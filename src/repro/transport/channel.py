"""Abstract link endpoints between the simulator and the board.

A *link* is the bundle of the three logical ports.  It exposes two
asymmetric endpoints:

* :class:`MasterEndpoint` — used by the SystemC-side co-simulation
  master (``driver_simulate``): sends clock grants and interrupts and
  awaits time reports; the link's ``data_server`` answers DATA
  requests;
* :class:`BoardEndpoint` — used by the board runtime and the device
  driver: receives grants, reports time, performs register I/O.

Concrete implementations: :mod:`repro.transport.inproc` (deterministic,
in-process) and :mod:`repro.transport.tcp` (real localhost sockets, as
in the paper).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import TransportError
from repro.transport.framing import encode
from repro.transport.messages import (
    ClockGrant,
    Interrupt,
    Message,
    TimeReport,
    Value,
)

#: Serves one board DATA request: ``server("read", address, None)``
#: returns the register value, ``server("write", address, value)``
#: applies the write.  A session installs its master's ``serve_data``
#: on every link.
DataServer = Callable[[str, int, Optional[Value]], Optional[Value]]


class LinkStats:
    """Message/byte counters shared by both endpoints of a link.

    Every message is charged the length of its encoded frame, so the
    in-process and TCP links count the same bytes for the same run.
    """

    def __init__(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
        self.clock_messages = 0
        self.int_messages = 0
        self.data_messages = 0

    #: Counter attribute names, in snapshot order.
    FIELDS = (
        "messages_sent", "bytes_sent", "clock_messages", "int_messages",
        "data_messages",
    )

    def snapshot(self) -> dict:
        """All counters as a plain dict (checkpoint support)."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def restore(self, state: dict) -> None:
        for name in self.FIELDS:
            if name not in state:
                raise TransportError(
                    f"link stats snapshot missing {name!r}")
        for name in self.FIELDS:
            setattr(self, name, state[name])

    def account(self, message: Message, port: str) -> None:
        """Count *message* sent on *port*, sized by its encoded frame."""
        self.charge(port, len(encode(message)))

    def charge(self, port: str, size: int) -> None:
        """Count one message of *size* wire bytes sent on *port*."""
        self.messages_sent += 1
        self.bytes_sent += size
        if port == "clock":
            self.clock_messages += 1
        elif port == "int":
            self.int_messages += 1
        else:
            self.data_messages += 1


class MasterEndpoint:
    """Simulator-side endpoint."""

    def send_grant(self, grant: ClockGrant) -> None:
        raise NotImplementedError

    def recv_report(self, timeout: Optional[float] = None) -> Optional[TimeReport]:
        """The board's time report for the outstanding grant, or None
        when none arrived.

        A threaded link serves the board's DATA requests while it waits
        (through the link's ``data_server``) and gives up after
        *timeout* seconds without a request or the report (None: no
        limit); an in-process link answers at once.
        """
        raise NotImplementedError

    def send_interrupt(self, interrupt: Interrupt) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (no-op by default)."""


class BoardEndpoint:
    """Board-side endpoint."""

    def recv_grant(self, timeout: Optional[float] = None) -> Optional[ClockGrant]:
        raise NotImplementedError

    def send_report(self, report: TimeReport) -> None:
        raise NotImplementedError

    def poll_interrupt(self) -> Optional[Interrupt]:
        raise NotImplementedError

    def data_read(self, address: int) -> Value:
        """Synchronous register read (request + reply round trip)."""
        raise NotImplementedError

    def data_write(self, address: int, value: Value) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (no-op by default)."""
