"""Remote IPC between the hardware simulator and the board.

Three logical ports (DATA / INT / CLOCK, Section 5.1 of the paper) over
two interchangeable carriers:

* :class:`~repro.transport.inproc.InprocLink` — deterministic FIFOs,
  for reproducible accuracy experiments and tests;
* :class:`~repro.transport.tcp.TcpLink` — real localhost TCP, as in
  the paper, for measured wall-clock runs: one connection per port for
  the link's whole life, so a failed port is a ``TransportError``
  naming it.

Every link has the same shape: ``master`` and ``board`` endpoints, the
shared ``stats`` and ``close()``.  A session steps in-process links
window by window and gives a TCP link a board thread.
"""

from repro.transport.channel import BoardEndpoint, LinkStats, MasterEndpoint
from repro.transport.framing import decode, encode
from repro.transport.inproc import InprocLink
from repro.transport.latency import CycleLatencyModel, WallCostModel
from repro.transport.messages import (
    CLOCK_PORT,
    ClockGrant,
    DATA_PORT,
    DataRead,
    DataReply,
    DataWrite,
    INT_PORT,
    Interrupt,
    TimeReport,
)
from repro.transport.tcp import (
    TcpBoard,
    TcpLink,
    TcpLinkServer,
    TcpMaster,
    connect_board,
)

__all__ = [
    "BoardEndpoint",
    "CLOCK_PORT",
    "ClockGrant",
    "CycleLatencyModel",
    "DATA_PORT",
    "DataRead",
    "DataReply",
    "DataWrite",
    "INT_PORT",
    "InprocLink",
    "Interrupt",
    "LinkStats",
    "MasterEndpoint",
    "TcpBoard",
    "TcpLink",
    "TcpLinkServer",
    "TcpMaster",
    "TimeReport",
    "WallCostModel",
    "connect_board",
    "decode",
    "encode",
]
