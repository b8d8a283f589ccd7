"""Thread-safe queue link.

Connects a master running in one OS thread with a board runtime running
in another, through ``queue.Queue`` objects — the same concurrency
structure as the TCP link (blocking receives, asynchronous interrupt
delivery) without socket overhead.  Used by the threaded session when
genuine network cost is not wanted.
"""

from __future__ import annotations

import queue
from typing import Optional

from repro.errors import TransportError
from repro.transport.channel import BoardEndpoint, LinkStats, MasterEndpoint
from repro.transport.messages import (
    ClockGrant,
    DataRead,
    DataReply,
    DataWrite,
    Interrupt,
    TimeReport,
    Value,
)


class QueueLink:
    """A three-port link over thread-safe queues."""

    def __init__(self) -> None:
        self.stats = LinkStats()
        self._grants: "queue.Queue[ClockGrant]" = queue.Queue()
        self._reports: "queue.Queue[TimeReport]" = queue.Queue()
        self._interrupts: "queue.Queue[Interrupt]" = queue.Queue()
        self._data_requests: "queue.Queue" = queue.Queue()
        self._data_replies: "queue.Queue[DataReply]" = queue.Queue()
        self.master = _QueueMaster(self)
        self.board = _QueueBoard(self)

    def close(self) -> None:
        self.master.close()
        self.board.close()
        # Release a board still waiting on the CLOCK port.
        self._grants.put(_CLOSED)


#: Put on the CLOCK queue by :meth:`QueueLink.close`.
_CLOSED = object()


def _get(q: "queue.Queue", timeout: Optional[float]):
    try:
        if timeout is None:
            return q.get(block=True)
        return q.get(block=True, timeout=timeout)
    except queue.Empty:
        return None


class _QueueMaster(MasterEndpoint):
    def __init__(self, link: QueueLink) -> None:
        self.link = link

    def send_grant(self, grant: ClockGrant) -> None:
        self.link.stats.account(grant, "clock")
        self.link._grants.put(grant)

    def recv_report(self, timeout: Optional[float] = None) -> Optional[TimeReport]:
        return _get(self.link._reports, timeout)

    def send_interrupt(self, interrupt: Interrupt) -> None:
        self.link.stats.account(interrupt, "int")
        self.link._interrupts.put(interrupt)

    def poll_data(self):
        try:
            return self.link._data_requests.get_nowait()
        except queue.Empty:
            return None

    def send_reply(self, seq: int, value: Value) -> None:
        reply = DataReply(seq, value)
        self.link.stats.account(reply, "data")
        self.link._data_replies.put(reply)


class _QueueBoard(BoardEndpoint):
    def __init__(self, link: QueueLink) -> None:
        self.link = link
        self._data_seq = 0
        #: Board-side receive timeout for DATA replies, seconds.
        self.reply_timeout = 30.0

    def recv_grant(self, timeout: Optional[float] = None) -> Optional[ClockGrant]:
        grant = _get(self.link._grants, timeout)
        if grant is _CLOSED:
            raise TransportError("queue link closed")
        return grant

    def send_report(self, report: TimeReport) -> None:
        self.link.stats.account(report, "clock")
        self.link._reports.put(report)

    def poll_interrupt(self) -> Optional[Interrupt]:
        try:
            return self.link._interrupts.get_nowait()
        except queue.Empty:
            return None

    def data_read(self, address: int) -> Value:
        self._data_seq += 1
        request = DataRead(self._data_seq, address)
        self.link.stats.account(request, "data")
        self.link._data_requests.put(request)
        reply = _get(self.link._data_replies, self.reply_timeout)
        if reply is None:
            raise TransportError(
                f"DATA read of {address:#x}: no reply within "
                f"{self.reply_timeout}s"
            )
        if reply.seq != request.seq:
            raise TransportError(
                f"DATA reply out of order: got seq {reply.seq}, "
                f"expected {request.seq}"
            )
        return reply.value

    def data_write(self, address: int, value: Value) -> None:
        self._data_seq += 1
        request = DataWrite(self._data_seq, address, value)
        self.link.stats.account(request, "data")
        self.link._data_requests.put(request)
