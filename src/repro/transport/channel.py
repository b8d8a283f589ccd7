"""Abstract link endpoints between the simulator and the board.

A *link* is the bundle of the three logical ports.  It exposes two
asymmetric endpoints:

* :class:`MasterEndpoint` — used by the SystemC-side co-simulation
  master (``driver_simulate``): sends clock grants and interrupts,
  services DATA requests;
* :class:`BoardEndpoint` — used by the board runtime and the device
  driver: receives grants, reports time, performs register I/O.

Concrete implementations: :mod:`repro.transport.inproc` (deterministic,
in-process) and :mod:`repro.transport.tcp` (real localhost sockets, as
in the paper).
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.errors import TransportError
from repro.transport.framing import frame_size
from repro.transport.messages import (
    ClockGrant,
    DataRead,
    DataWrite,
    Interrupt,
    Message,
    TimeReport,
    Value,
)

DataRequest = Union[DataRead, DataWrite]


class LinkStats:
    """Message/byte counters shared by both endpoints of a link."""

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
        self.messages_sent += 1
        self.bytes_sent += frame_size(message)
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
        """Wait up to *timeout* seconds (None: forever) for the board's
        time report; None when none arrived.

        May also return None early while a DATA request is waiting, so
        the caller can serve it before waiting again (the board cannot
        report while its read is unanswered).  Callers that poll DATA
        between waits therefore loop on None rather than treat it as
        silence; the silence deadline is theirs to keep.
        """
        raise NotImplementedError

    def send_interrupt(self, interrupt: Interrupt) -> None:
        raise NotImplementedError

    def poll_data(self) -> Optional[DataRequest]:
        raise NotImplementedError

    def poll_data_batch(self, limit: int = 64) -> "List[DataRequest]":
        """Drain up to *limit* pending DATA requests in one call.

        The master serves a whole window's backlog per visit instead of
        re-entering the transport for every request; transports with a
        cheaper bulk path may override this.
        """
        batch: List[DataRequest] = []
        while len(batch) < limit:
            request = self.poll_data()
            if request is None:
                break
            batch.append(request)
        return batch

    def send_reply(self, seq: int, value: Value) -> None:
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
