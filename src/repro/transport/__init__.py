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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "channel": ("BoardEndpoint", "LinkStats", "MasterEndpoint"),
    "framing": ("decode", "encode"),
    "inproc": ("InprocLink",),
    "latency": ("CycleLatencyModel", "WallCostModel"),
    "messages": (
        "CLOCK_PORT", "ClockGrant", "DATA_PORT", "DataRead", "DataReply",
        "DataWrite", "INT_PORT", "Interrupt", "TimeReport",
    ),
    "tcp": (
        "TcpBoard", "TcpLink", "TcpLinkServer", "TcpMaster", "connect_board",
    ),
})
