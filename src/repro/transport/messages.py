"""Protocol messages exchanged between the simulator and the board.

The methodology uses three logical ports (Section 5.1):

* ``CLOCK_PORT`` — :class:`ClockGrant` (simulator → board, grants
  ``T_sync`` software ticks) and :class:`TimeReport` (board → simulator,
  "the current time of the board is sent back, to signal that the OS is
  frozen");
* ``INT_PORT`` — :class:`Interrupt` (simulator → board);
* ``DATA_PORT`` — :class:`DataRead` / :class:`DataWrite` (board →
  simulator) and :class:`DataReply` (simulator → board).

Messages are small frozen dataclasses; the wire format lives in
:mod:`repro.transport.framing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

Value = Union[int, bytes]


@dataclass(frozen=True)
class ClockGrant:
    """Grant the board *ticks* software ticks (the multiple-tick message)."""

    seq: int
    ticks: int


@dataclass(frozen=True)
class TimeReport:
    """The board's SW tick counter at freeze time."""

    seq: int
    board_ticks: int


@dataclass(frozen=True)
class Interrupt:
    """An interrupt request from the simulated hardware.

    ``master_cycle`` stamps the simulated clock cycle at which the
    interrupt signal rose; deterministic sessions use it to deliver the
    interrupt at the exact offset inside the board's window.
    """

    vector: int
    master_cycle: int


@dataclass(frozen=True)
class DataRead:
    """Board reads the driver register at *address*."""

    seq: int
    address: int


@dataclass(frozen=True)
class DataWrite:
    """Board writes *value* to the driver register at *address*."""

    seq: int
    address: int
    value: Value


@dataclass(frozen=True)
class DataReply:
    """Simulator's answer to a :class:`DataRead`."""

    seq: int
    value: Value


@dataclass(frozen=True)
class Counted:
    """A protocol message as the TCP link frames it, with the count the
    link orders its separate connections by: a grant carries the INT
    frames sent before it, a report the DATA requests sent before it,
    and an interrupt its own index.  Never passed to the protocol layer
    (see :mod:`repro.transport.tcp`)."""

    count: int
    message: "Message"


Message = Union[ClockGrant, TimeReport, Interrupt, DataRead, DataWrite,
                DataReply, Counted]

#: Logical port names.
CLOCK_PORT = "clock"
INT_PORT = "int"
DATA_PORT = "data"
