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
the grant counts, and the master a report only once it has served the
DATA requests the report counts.  Interrupts are numbered, and the
master accepts only the report that answers its outstanding grant; a
frame out of order on either is a :class:`TransportError`.

The master serves DATA itself, inside :meth:`TcpMaster.recv_report`,
through the link's ``data_server`` (the in-process link's callback):
one ``poll`` over the CLOCK and DATA sockets per wake, one ``recv`` per
readable socket, and every complete DATA frame served as soon as it
has been read.  Each connection's socket is non-blocking from the
moment it is made: a poll is one readiness syscall, a wait is a
``poll`` with the time left to its deadline, and a send waits at most
``connect_timeout_s`` for the peer to drain.  Frames are encoded once;
the link counters are charged from the encoded frame.

The link sends no liveness probes.  Both ends of a :class:`TcpLink`
live in one process, and a board thread that dies closes its end of
the link (see :class:`~repro.cosim.session.BoardSlot`), so the master's
report wait reads EOF at once.  A live peer that falls silent is
bounded by the session's ``report_timeout_s`` alone.
"""

from __future__ import annotations

import select
import socket
import struct
import time
from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import TransportError
from repro.transport.channel import (
    BoardEndpoint,
    DataServer,
    LinkStats,
    MasterEndpoint,
)
from repro.transport.framing import (
    COUNTED_OVERHEAD,
    MAX_FRAME_SIZE,
    decode,
    encode,
)
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
        #: The peer closed its end: frames read before that are still
        #: delivered, and the next wait raises.
        self._eof = False
        self._rxbuf = bytearray()

    def _error(self, what: str) -> TransportError:
        return TransportError(f"{self.port.upper()} port: {what}")

    def send_frame(self, frame: bytes) -> None:
        """Write one encoded frame, waiting for the peer to drain the
        socket for at most ``send_timeout_s`` in all."""
        try:
            sent = self.sock.send(frame)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError as exc:
            raise self._error(f"send failed: {exc}") from exc
        if sent == len(frame):
            return
        # The kernel buffer is full: wait for the peer to drain it.
        data = memoryview(frame)[sent:]
        deadline = time.monotonic() + self.send_timeout_s
        writable = select.poll()
        writable.register(self._fd, select.POLLOUT)
        while data:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not writable.poll(remaining * 1e3):
                raise self._error(
                    f"send timed out: the peer did not drain the "
                    f"connection within {self.send_timeout_s:g}s"
                )
            try:
                data = data[self.sock.send(data):]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError as exc:
                raise self._error(f"send failed: {exc}") from exc

    def recv(self, timeout: Optional[float]) -> Optional[Message]:
        """Receive one message; None on timeout (``recv(0)`` is a
        non-blocking poll).

        ``timeout`` is a wall-clock *deadline* for the whole message,
        not a per-chunk allowance: a peer dribbling partial frames
        cannot stretch the wait beyond ``timeout`` seconds.  A deadline
        that has passed (``timeout=0`` included) still gets one
        non-blocking poll and fill.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        expired = False
        while True:
            if self._rxbuf:
                frame = self._extract_frame()
                if frame is not None:
                    return decode(frame)
            if expired:
                return None
            wait_ms = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                expired = remaining <= 0
                wait_ms = max(remaining, 0.0) * 1e3
            if not self._wait(wait_ms):
                return None
            self._fill()

    def _wait(self, wait_ms: Optional[float]) -> bool:
        """Poll until this connection is readable (True) or *wait_ms*
        milliseconds pass (None: no limit)."""
        self._check_open()
        return bool(self._poller.poll(wait_ms))

    def _check_open(self) -> None:
        """Raise when nothing more can arrive: this side closed the
        connection, or the peer did."""
        if self._closed:
            raise self._error("connection is closed")
        if self._eof:
            raise self._error("peer closed the connection")

    def _fill(self) -> None:
        """One ``recv`` into the receive buffer; EOF sets ``_eof``."""
        try:
            chunk = self.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            raise self._error(f"receive failed: {exc}") from exc
        if not chunk:
            self._eof = True
        self._rxbuf.extend(chunk)

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
    """Master endpoint: grants and interrupts out, reports and DATA in.

    DATA requests are served inside :meth:`recv_report`, through
    :attr:`data_server` (the in-process link's callback, set by the
    session): a read gets its reply from there.
    """

    def __init__(self, conns: Dict[str, _FramedSocket],
                 stats: LinkStats) -> None:
        self._conns = conns
        self.stats = stats
        #: Serves board DATA requests: ``data_server("read", address,
        #: None)`` returns the value, ``data_server("write", address,
        #: value)`` applies the write.
        self.data_server: Optional[DataServer] = None
        #: The seq of the grant awaiting its report; None when every
        #: grant sent has been answered.
        self._outstanding: Optional[int] = None
        #: INT frames sent so far: the count of the next grant.
        self._interrupts_sent = 0
        #: Highest DATA request number served, and a report held back
        #: until the requests it counts have been.
        self._data_seen = 0
        self._held_report: Optional[Counted] = None
        # The report wait's one poll, over CLOCK and DATA.
        self._clock, self._data = conns[CLOCK_PORT], conns[DATA_PORT]
        self._readable = select.poll()
        self._by_fd = {}
        for conn in (self._clock, self._data):
            self._readable.register(conn._fd, select.POLLIN)
            self._by_fd[conn._fd] = conn

    # -- CLOCK ---------------------------------------------------------
    def send_grant(self, grant: ClockGrant) -> None:
        frame = encode(Counted(self._interrupts_sent, grant))
        # The count is framing: the logical grant is what the link
        # counters account.
        self.stats.charge("clock", len(frame) - COUNTED_OVERHEAD)
        self._clock.send_frame(frame)
        self._outstanding = grant.seq

    def recv_report(self, timeout: Optional[float] = None) -> Optional[TimeReport]:
        """Serve DATA until the time report of the outstanding grant is
        in, and return it; None after *timeout* seconds of silence.

        Every DATA request is served as soon as its frame has been
        read, in arrival order, and starts the silence bound again.
        The report is returned once the DATA requests it counts have
        been served (the two ports are separate connections).  One
        ``poll`` per wake, over both connections, and one ``recv`` per
        readable one.
        """
        clock, data = self._clock, self._data
        deadline = None if timeout is None else time.monotonic() + timeout
        expired = False
        while True:
            # Most wakes fill one buffer: parse only what holds bytes.
            if data._rxbuf and self._serve_data() and deadline is not None:
                deadline = time.monotonic() + timeout
                expired = False
            if clock._rxbuf or self._held_report is not None:
                report = self._take_report()
                if report is not None:
                    return report
            if expired:
                return None
            wait_ms = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                expired = remaining <= 0
                wait_ms = max(remaining, 0.0) * 1e3
            # Frames read before a peer closed are served above; a
            # report its board sent before dying still counts.
            clock._check_open()
            data._check_open()
            for fd, _ in self._readable.poll(wait_ms):
                self._by_fd[fd]._fill()

    def _take_report(self) -> Optional[TimeReport]:
        """The report of the outstanding grant once it has been read
        and the DATA requests it counts served; else None."""
        held = self._held_report
        if held is None:
            frame = self._clock._extract_frame()
            if frame is None:
                return None
            held = decode(frame)
            if not (type(held) is Counted
                    and type(held.message) is TimeReport):
                raise TransportError(
                    f"unexpected message on CLOCK port: {held!r}"
                )
            seq = held.message.seq
            if seq != self._outstanding:
                raise TransportError(
                    f"CLOCK port: time report seq {seq} answers no "
                    f"outstanding grant (awaiting {self._outstanding})"
                )
            self._outstanding = None
            self._held_report = held
        if self._data_seen < held.count:
            return None
        self._held_report = None
        return held.message

    # -- INT -----------------------------------------------------------
    def send_interrupt(self, interrupt: Interrupt) -> None:
        frame = encode(Counted(self._interrupts_sent + 1, interrupt))
        self.stats.charge("int", len(frame) - COUNTED_OVERHEAD)
        self._interrupts_sent += 1
        self._conns[INT_PORT].send_frame(frame)

    # -- DATA ----------------------------------------------------------
    def _serve_data(self) -> bool:
        """Serve every complete DATA frame read so far, in arrival
        order; True when there was one."""
        conn = self._data
        frame = conn._extract_frame()
        if frame is None:
            return False
        server = self.data_server
        if server is None:
            raise TransportError("no DATA server installed on TCP link")
        while frame is not None:
            request = decode(frame)
            kind = type(request)
            if kind is DataRead:
                reply = encode(DataReply(
                    request.seq, server("read", request.address, None)))
                self.stats.charge("data", len(reply))
                conn.send_frame(reply)
            elif kind is DataWrite:
                server("write", request.address, request.value)
            else:
                raise TransportError(
                    f"unexpected message on DATA port: {request!r}")
            self._data_seen = request.seq
            frame = conn._extract_frame()
        return True

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
        frame = encode(Counted(self._data_seq, report))
        self.stats.charge("clock", len(frame) - COUNTED_OVERHEAD)
        self._conns[CLOCK_PORT].send_frame(frame)

    # -- INT -----------------------------------------------------------
    def poll_interrupt(self) -> Optional[Interrupt]:
        # recv_grant has already read every frame fenced before the
        # grant; the socket is polled only once those are taken.
        if not self._interrupts:
            frame = self._conns[INT_PORT].recv(0)
            if frame is None:
                return None
            self._take_interrupt(frame)
        return self._interrupts.popleft()

    # -- DATA ----------------------------------------------------------
    def data_read(self, address: int) -> Value:
        self._data_seq += 1
        frame = encode(DataRead(self._data_seq, address))
        self.stats.charge("data", len(frame))
        conn = self._conns[DATA_PORT]
        conn.send_frame(frame)
        reply = conn.recv(self.reply_timeout)
        if reply is None:
            raise TransportError(f"DATA read of {address:#x} timed out")
        if type(reply) is not DataReply or reply.seq != self._data_seq:
            raise TransportError(f"bad DATA reply: {reply!r}")
        return reply.value

    def data_write(self, address: int, value: Value) -> None:
        self._data_seq += 1
        frame = encode(DataWrite(self._data_seq, address, value))
        self.stats.charge("data", len(frame))
        self._conns[DATA_PORT].send_frame(frame)

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

    @property
    def data_server(self) -> Optional[DataServer]:
        """What serves the board's DATA requests (the master's
        ``serve_data`` in a session), as on the in-process link."""
        return self.master.data_server

    @data_server.setter
    def data_server(self, server: Optional[DataServer]) -> None:
        self.master.data_server = server

    def close(self) -> None:
        """Close both ends."""
        try:
            self.master.close()
        finally:
            self.board.close()
