"""Deterministic in-process link.

All three ports are plain FIFOs inside one Python process; the
co-simulation session interleaves master and board explicitly, so no OS
threads and no real sockets are involved and every run is bit-for-bit
reproducible.  DATA requests are served *synchronously* through the
link's :attr:`InprocLink.data_server` callback, which the session sets
to the master's register file, mirroring the zero-time settlement of
``driver_simulate``.

Every message is still encoded with the wire codec and charged to the
link's counters at its frame length, so both links count the same bytes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import TransportError
from repro.transport.channel import (
    BoardEndpoint,
    DataServer,
    LinkStats,
    MasterEndpoint,
)
from repro.transport.messages import (
    ClockGrant,
    DataRead,
    DataReply,
    DataWrite,
    Interrupt,
    TimeReport,
    Value,
)


class InprocLink:
    """A deterministic three-port link; create then take both endpoints."""

    def __init__(self) -> None:
        self.stats = LinkStats()
        self._grants: Deque[ClockGrant] = deque()
        self._reports: Deque[TimeReport] = deque()
        self._interrupts: Deque[Interrupt] = deque()
        #: Where board DATA requests go: ``data_server("read", address,
        #: None)`` returns the value, ``data_server("write", address,
        #: value)`` applies the write.  A session sets it to its master's
        #: ``serve_data``.
        self.data_server: Optional[DataServer] = None
        self.master = _InprocMaster(self)
        self.board = _InprocBoard(self)

    def close(self) -> None:
        self.master.close()
        self.board.close()


class _InprocMaster(MasterEndpoint):
    def __init__(self, link: InprocLink) -> None:
        self.link = link

    def send_grant(self, grant: ClockGrant) -> None:
        self.link.stats.account(grant, "clock")
        self.link._grants.append(grant)

    def recv_report(self, timeout: Optional[float] = None) -> Optional[TimeReport]:
        if self.link._reports:
            return self.link._reports.popleft()
        return None

    def send_interrupt(self, interrupt: Interrupt) -> None:
        self.link.stats.account(interrupt, "int")
        self.link._interrupts.append(interrupt)


class _InprocBoard(BoardEndpoint):
    def __init__(self, link: InprocLink) -> None:
        self.link = link
        self._data_seq = 0

    def recv_grant(self, timeout: Optional[float] = None) -> Optional[ClockGrant]:
        if self.link._grants:
            return self.link._grants.popleft()
        return None

    def send_report(self, report: TimeReport) -> None:
        self.link.stats.account(report, "clock")
        self.link._reports.append(report)

    def poll_interrupt(self) -> Optional[Interrupt]:
        if self.link._interrupts:
            return self.link._interrupts.popleft()
        return None

    def pending_interrupts(self) -> int:
        return len(self.link._interrupts)

    def data_read(self, address: int) -> Value:
        server = self.link.data_server
        if server is None:
            raise TransportError("no DATA server installed on in-proc link")
        self._data_seq += 1
        self.link.stats.account(DataRead(self._data_seq, address), "data")
        value = server("read", address, None)
        assert value is not None
        self.link.stats.account(DataReply(self._data_seq, value), "data")
        return value

    def data_write(self, address: int, value: Value) -> None:
        server = self.link.data_server
        if server is None:
            raise TransportError("no DATA server installed on in-proc link")
        self._data_seq += 1
        self.link.stats.account(
            DataWrite(self._data_seq, address, value), "data"
        )
        server("write", address, value)
