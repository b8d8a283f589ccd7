"""Real TCP/IP link on localhost.

Faithful to the paper's setup: three separate TCP connections — the DATA
port, the INT port and the CLOCK port — between the simulator host and
the board.  The master side listens; the board side connects.  Frames
use :mod:`repro.transport.framing`.

The wall-clock cost of these genuine socket round trips is exactly what
Figures 5 and 6 of the paper measure.

Each port is one connection for the link's whole life.  Any send or
receive failure on a port — the peer closed it, a send did not drain
within ``connect_timeout_s``, a frame broke the framing — raises
:class:`~repro.errors.TransportError` naming that port, in the thread
that made the call.  Nothing redials: a run that must outlive a lost
connection resumes from a checkpoint (:mod:`repro.replay`).

The ports are separate connections, so grants, reports and interrupts
travel as :class:`~repro.transport.messages.Counted` frames that fence
them.  The board returns a grant only once it has read the INT frames
the grant counts, and the master a report only once it has handed out
the DATA requests the report counts.  Interrupts are numbered, and the
master accepts only the report that answers its outstanding grant; a
frame out of order on either is a :class:`TransportError`.

Each connection's socket is non-blocking from the moment it is made:
a poll is one readiness syscall, a wait is a ``poll`` with the time
left to its deadline, and a send waits at most ``connect_timeout_s``
for the peer to drain.

The link sends no liveness probes.  Both ends of a :class:`TcpLink`
live in one process, so a dead board is a board thread that has ended,
and the session sees that directly (see
:class:`~repro.cosim.session.CosimSession`).  A live peer that falls
silent is bounded by the session's ``report_timeout_s`` alone.
"""

from __future__ import annotations

import select
import socket
import struct
import time
from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import TransportError
from repro.transport.channel import BoardEndpoint, LinkStats, MasterEndpoint
from repro.transport.framing import MAX_FRAME_SIZE, decode, encode
from repro.transport.messages import (
    CLOCK_PORT,
    ClockGrant,
    Counted,
    DATA_PORT,
    DataRead,
    DataReply,
    DataWrite,
    INT_PORT,
    Interrupt,
    Message,
    TimeReport,
    Value,
)

_LEN = struct.Struct(">I")
_PORTS = (DATA_PORT, INT_PORT, CLOCK_PORT)
#: Seconds allowed for each dial, for the peer to drain a send, and for
#: the INT frames a grant counts to arrive after it.
CONNECT_TIMEOUT_S = 5.0


class _FramedSocket:
    """Length-prefixed message stream over one TCP connection, the
    connection of *port*.

    The socket is made non-blocking once, here; every wait after that
    is an explicit ``poll`` on a per-connection :class:`select.poll`
    object, so a receive never touches the socket's mode or timeout.
    A send that cannot complete at once waits for the peer to drain
    for at most *send_timeout_s*, however the connection was last read.
    Every failure is a :class:`TransportError` naming the port.
    """

    def __init__(self, sock: socket.socket, port: str,
                 send_timeout_s: float = CONNECT_TIMEOUT_S) -> None:
        self.sock = sock
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.port = port
        self.send_timeout_s = send_timeout_s
        self._fd = sock.fileno()
        self._poller = select.poll()
        self._poller.register(self._fd, select.POLLIN)
        self._closed = False
        self._rxbuf = bytearray()

    def _error(self, what: str) -> TransportError:
        return TransportError(f"{self.port.upper()} port: {what}")

    def send(self, message: Message) -> None:
        """Write one frame, waiting for the peer to drain the socket for
        at most ``send_timeout_s`` in all."""
        data = memoryview(encode(message))
        deadline = time.monotonic() + self.send_timeout_s
        writable = None
        while True:
            try:
                data = data[self.sock.send(data):]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError as exc:
                raise self._error(f"send failed: {exc}") from exc
            if not data:
                return
            if writable is None:
                writable = select.poll()
                writable.register(self._fd, select.POLLOUT)
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not writable.poll(remaining * 1e3):
                raise self._error(
                    f"send timed out: the peer did not drain the "
                    f"connection within {self.send_timeout_s:g}s"
                )

    def recv(self, timeout: Optional[float],
             wake: Optional["_FramedSocket"] = None) -> Optional[Message]:
        """Receive one message; None on timeout.

        ``timeout`` is a wall-clock *deadline* for the whole message,
        not a per-chunk allowance: a peer dribbling partial frames
        cannot stretch the wait beyond ``timeout`` seconds.  A deadline
        that has passed (``timeout=0`` included) still gets one
        non-blocking poll and fill.  With *wake*, also return None as
        soon as *wake* has input waiting and this connection has none.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        expired = False
        while True:
            frame = self._extract_frame()
            if frame is not None:
                return decode(frame)
            if expired or (wake is not None and wake._has_frame()):
                return None
            wait_ms = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                expired = remaining <= 0
                wait_ms = max(remaining, 0.0) * 1e3
            if not self._wait(wait_ms, wake):
                return None  # timed out, or *wake* has input
            self._fill()

    def poll(self) -> Optional[Message]:
        """Non-blocking receive; None if no complete frame is available."""
        if self._rxbuf:
            frame = self._extract_frame()
            if frame is not None:
                return decode(frame)
        if not self._wait(0):
            return None
        self._fill()
        frame = self._extract_frame()
        return None if frame is None else decode(frame)

    def ready(self) -> bool:
        """True when a frame is buffered or bytes wait on the socket."""
        return self._has_frame() or self._wait(0)

    def _wait(self, wait_ms: Optional[float],
              wake: Optional["_FramedSocket"] = None) -> bool:
        """Poll until this connection is readable (True), *wake* is, or
        *wait_ms* milliseconds pass (None: no limit)."""
        if self._closed:
            raise self._error("connection is closed")
        if wake is None:
            return bool(self._poller.poll(wait_ms))
        self._poller.register(wake._fd, select.POLLIN)
        try:
            events = self._poller.poll(wait_ms)
        finally:
            self._poller.unregister(wake._fd)
        return any(fd == self._fd for fd, _ in events)

    def _fill(self) -> None:
        """One ``recv`` into the receive buffer; raises on EOF."""
        try:
            chunk = self.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            raise self._error(f"receive failed: {exc}") from exc
        if not chunk:
            raise self._error("peer closed the connection")
        self._rxbuf.extend(chunk)

    def _has_frame(self) -> bool:
        if len(self._rxbuf) < 4:
            return False
        (length,) = _LEN.unpack_from(self._rxbuf, 0)
        return len(self._rxbuf) >= 4 + length

    def _extract_frame(self) -> Optional[bytes]:
        if len(self._rxbuf) < 4:
            return None
        (length,) = _LEN.unpack_from(self._rxbuf, 0)
        if length > MAX_FRAME_SIZE:
            raise self._error(
                f"frame length {length} exceeds MAX_FRAME_SIZE "
                f"({MAX_FRAME_SIZE}); corrupt length prefix?"
            )
        if len(self._rxbuf) < 4 + length:
            return None
        frame = bytes(self._rxbuf[4:4 + length])
        del self._rxbuf[:4 + length]
        return frame

    def close(self) -> None:
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class TcpLinkServer:
    """Master-side listener for the three ports.

    Usage::

        server = TcpLinkServer()          # binds three ephemeral ports
        addresses = server.addresses      # hand these to the board side
        master = server.accept()          # blocks until the board connects

    :meth:`accept` closes the listeners once the three ports are
    connected: nothing ever dials them again.
    """

    def __init__(self, host: str = "127.0.0.1",
                 connect_timeout_s: float = CONNECT_TIMEOUT_S) -> None:
        self.stats = LinkStats()
        self.connect_timeout_s = connect_timeout_s
        self._listeners = {}
        for port_name in _PORTS:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, 0))
            listener.listen(1)
            self._listeners[port_name] = listener

    @property
    def addresses(self) -> dict:
        """``{port_name: (host, tcp_port)}`` for the board to connect to."""
        return {
            name: listener.getsockname()
            for name, listener in self._listeners.items()
        }

    def accept(self, timeout: float = 30.0) -> "TcpMaster":
        """Accept one connection per port, then close the listeners;
        cleans up fully on failure."""
        conns = {}
        try:
            for name, listener in self._listeners.items():
                listener.settimeout(timeout)
                try:
                    sock, _ = listener.accept()
                except socket.timeout:
                    raise TransportError(
                        f"board never connected to {name} port"
                    ) from None
                conns[name] = _FramedSocket(sock, name,
                                            self.connect_timeout_s)
        except TransportError:
            # Don't leak the connections already accepted.
            for conn in conns.values():
                conn.close()
            raise
        finally:
            self.close()
        return TcpMaster(conns, self.stats)

    def close(self) -> None:
        for listener in self._listeners.values():
            listener.close()
        self._listeners = {}


class TcpMaster(MasterEndpoint):
    """Master endpoint: grants and interrupts out, reports and DATA in."""

    def __init__(self, conns: Dict[str, _FramedSocket],
                 stats: LinkStats) -> None:
        self._conns = conns
        self.stats = stats
        #: The seq of the grant awaiting its report; None when every
        #: grant sent has been answered.
        self._outstanding: Optional[int] = None
        #: INT frames sent so far: the count of the next grant.
        self._interrupts_sent = 0
        #: Highest DATA request number handed out, and a report held
        #: back until the requests it counts have been.
        self._data_seen = 0
        self._held_report: Optional[Counted] = None

    # -- CLOCK ---------------------------------------------------------
    def send_grant(self, grant: ClockGrant) -> None:
        # The count is framing: the logical grant is what the link
        # counters account.
        self.stats.account(grant, "clock")
        self._conns[CLOCK_PORT].send(Counted(self._interrupts_sent, grant))
        self._outstanding = grant.seq

    def recv_report(self, timeout: Optional[float] = None) -> Optional[TimeReport]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            held = self._held_report
            if held is not None and self._data_seen >= held.count:
                self._held_report = None
                return held.message
            remaining = None
            if deadline is not None:
                remaining = max(deadline - time.monotonic(), 0.0)
            # A waiting DATA request ends the wait: the caller serves
            # it, which is also what releases a held report.
            message = self._conns[CLOCK_PORT].recv(
                remaining, wake=self._conns[DATA_PORT])
            if message is None:
                return None
            if not (isinstance(message, Counted)
                    and isinstance(message.message, TimeReport)):
                raise TransportError(
                    f"unexpected message on CLOCK port: {message!r}"
                )
            seq = message.message.seq
            if seq != self._outstanding:
                raise TransportError(
                    f"CLOCK port: time report seq {seq} answers no "
                    f"outstanding grant (awaiting {self._outstanding})"
                )
            self._outstanding = None
            self._held_report = message

    # -- INT -----------------------------------------------------------
    def send_interrupt(self, interrupt: Interrupt) -> None:
        self.stats.account(interrupt, "int")
        self._interrupts_sent += 1
        self._conns[INT_PORT].send(Counted(self._interrupts_sent, interrupt))

    # -- DATA ----------------------------------------------------------
    def poll_data(self):
        message = self._conns[DATA_PORT].poll()
        if message is None:
            return None
        if not isinstance(message, (DataRead, DataWrite)):
            raise TransportError(f"unexpected message on DATA port: {message!r}")
        self._data_seen = message.seq
        return message

    def send_reply(self, seq: int, value: Value) -> None:
        reply = DataReply(seq, value)
        self.stats.account(reply, "data")
        self._conns[DATA_PORT].send(reply)

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()


def connect_board(addresses: dict,
                  connect_timeout_s: float = CONNECT_TIMEOUT_S,
                  stats: Optional[LinkStats] = None) -> "TcpBoard":
    """Board-side: dial the three ports of a :class:`TcpLinkServer`.

    Pass the server's ``stats`` to aggregate both directions when the
    two sides live in one process (as the threaded session does).
    """
    return TcpBoard(addresses, connect_timeout_s, stats=stats)


class TcpBoard(BoardEndpoint):
    """Board endpoint: grants and interrupts in, reports and DATA out."""

    def __init__(self, addresses: dict,
                 connect_timeout_s: float = CONNECT_TIMEOUT_S,
                 stats: Optional[LinkStats] = None) -> None:
        self.connect_timeout_s = connect_timeout_s
        self.stats = stats if stats is not None else LinkStats()
        self._conns: Dict[str, _FramedSocket] = {}
        self._data_seq = 0
        self.reply_timeout = 30.0
        #: INT frames read so far, and those not yet polled.
        self._interrupts_read = 0
        self._interrupts: Deque[Interrupt] = deque()
        for port in _PORTS:
            try:
                sock = socket.create_connection(addresses[port],
                                                timeout=connect_timeout_s)
            except OSError as exc:
                self.close()
                raise TransportError(
                    f"{port.upper()} port: cannot connect: {exc}") from exc
            self._conns[port] = _FramedSocket(sock, port, connect_timeout_s)

    # -- CLOCK ---------------------------------------------------------
    def recv_grant(self, timeout: Optional[float] = None) -> Optional[ClockGrant]:
        message = self._conns[CLOCK_PORT].recv(timeout)
        if message is None:
            return None
        if not (isinstance(message, Counted)
                and isinstance(message.message, ClockGrant)):
            raise TransportError(
                f"unexpected message on CLOCK port: {message!r}"
            )
        self._read_interrupts(message.count)
        return message.message

    def _read_interrupts(self, count: int) -> None:
        """Read INT frames until *count* of them have arrived.  Raises
        :class:`TransportError` when a frame is still missing after
        ``connect_timeout_s``."""
        deadline = time.monotonic() + self.connect_timeout_s
        while self._interrupts_read < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"INT frame {self._interrupts_read + 1} of the "
                    f"{count} sent before this grant never arrived "
                    f"within {self.connect_timeout_s:g}s"
                )
            frame = self._conns[INT_PORT].recv(remaining)
            if frame is not None:
                self._take_interrupt(frame)

    def _take_interrupt(self, frame: Message) -> None:
        """Queue one INT frame for :meth:`poll_interrupt`; a number out
        of order (repeated or skipped) is a :class:`TransportError`."""
        if not (isinstance(frame, Counted)
                and isinstance(frame.message, Interrupt)):
            raise TransportError(f"unexpected message on INT port: {frame!r}")
        if frame.count != self._interrupts_read + 1:
            raise TransportError(
                f"INT port: frame {frame.count} arrived where frame "
                f"{self._interrupts_read + 1} was due")
        self._interrupts_read += 1
        self._interrupts.append(frame.message)

    def send_report(self, report: TimeReport) -> None:
        self.stats.account(report, "clock")
        self._conns[CLOCK_PORT].send(Counted(self._data_seq, report))

    # -- INT -----------------------------------------------------------
    def poll_interrupt(self) -> Optional[Interrupt]:
        # recv_grant has already read every frame fenced before the
        # grant; the socket is polled only once those are taken.
        if not self._interrupts:
            frame = self._conns[INT_PORT].poll()
            if frame is None:
                return None
            self._take_interrupt(frame)
        return self._interrupts.popleft()

    # -- DATA ----------------------------------------------------------
    def data_read(self, address: int) -> Value:
        self._data_seq += 1
        request = DataRead(self._data_seq, address)
        self.stats.account(request, "data")
        conn = self._conns[DATA_PORT]
        conn.send(request)
        reply = conn.recv(self.reply_timeout)
        if reply is None:
            raise TransportError(f"DATA read of {address:#x} timed out")
        if not isinstance(reply, DataReply) or reply.seq != request.seq:
            raise TransportError(f"bad DATA reply: {reply!r}")
        return reply.value

    def data_write(self, address: int, value: Value) -> None:
        self._data_seq += 1
        request = DataWrite(self._data_seq, address, value)
        self.stats.account(request, "data")
        self._conns[DATA_PORT].send(request)

    def close(self) -> None:
        # The connections stay installed, closed: a later call on one
        # raises TransportError naming its port.
        for conn in self._conns.values():
            conn.close()


class TcpLink:
    """Both ends of one board's three TCP connections, in one process.

    The same shape as the in-process link: ``master``, ``board``, the
    shared ``stats`` and :meth:`close`.  The master listens on three
    ephemeral localhost ports and the board dials them.
    """

    def __init__(self, connect_timeout_s: float = CONNECT_TIMEOUT_S) -> None:
        server = TcpLinkServer(connect_timeout_s=connect_timeout_s)
        self.stats = server.stats
        self.board = None
        try:
            self.board = connect_board(server.addresses, connect_timeout_s,
                                       stats=self.stats)
            self.master = server.accept()
        except BaseException:
            if self.board is not None:
                self.board.close()
            server.close()
            raise

    def close(self) -> None:
        """Close both ends."""
        try:
            self.master.close()
        finally:
            self.board.close()
