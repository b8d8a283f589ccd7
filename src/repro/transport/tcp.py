"""Real TCP/IP link on localhost.

Faithful to the paper's setup: three separate TCP connections — the DATA
port, the INT port and the CLOCK port — between the simulator host and
the board.  The master side listens; the board side connects.  Frames
use :mod:`repro.transport.framing`.

The wall-clock cost of these genuine socket round trips is exactly what
Figures 5 and 6 of the paper measure.

The link survives faults instead of merely detecting them:

* **Automatic reconnect** — the board side redials a dropped port with
  exponential backoff, deterministic jitter and a bounded retry budget;
  the master keeps its listeners open and re-accepts.
* **Resync** — after a reconnect, the side that may have lost an
  in-flight message replays it: the master re-sends its unacknowledged
  :class:`ClockGrant`, the board re-sends its last
  :class:`TimeReport` and any DATA request awaiting a reply.  The
  existing sequence numbers let the receiver drop the duplicates, so
  the virtual tick never skews (alignment invariant preserved).
* **Fences** — the ports are separate connections, so grants, reports
  and interrupts travel as :class:`~repro.transport.messages.Counted`
  frames.  The board returns a grant only once it has read the INT
  frames the grant counts, and the master a report only once it has
  handed out the DATA requests the report counts.  Interrupts are
  numbered: the master resends those no report has covered after an
  INT reconnect, and the board drops numbers it already has.

Each connection's socket is non-blocking from the moment it is made:
a poll is one readiness syscall, a wait is a ``poll`` with the time
left to its deadline, and a send waits at most
:attr:`ResilienceConfig.connect_timeout_s` for the peer to drain.

The link sends no liveness probes.  Both ends of a :class:`TcpLink`
live in one process, so a dead board is a board thread that has ended,
and the session sees that directly (see
:class:`~repro.cosim.session.CosimSession`).  A live peer that falls
silent is bounded by the session's ``report_timeout_s`` alone.

Counters for all of this land in the shared
:class:`~repro.transport.channel.LinkStats` and surface in
``CosimMetrics.summary()``.
"""

from __future__ import annotations

import errno
import select
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.determinism import seeded_rng
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
#: How long the master waits per re-accept poll while blocked on CLOCK,
#: and the longest CLOCK wait between two polls for a redialed INT port.
_REVIVE_SLICE_S = 0.05


@dataclass
class ResilienceConfig:
    """Reconnect knobs of the TCP link."""

    #: Bounded retry budget: (re)connect attempts per incident.
    max_attempts: int = 8
    #: First backoff delay; doubles (``backoff_multiplier``) per failure.
    backoff_initial_s: float = 0.01
    backoff_multiplier: float = 2.0
    #: Ceiling on a single backoff delay.
    backoff_max_s: float = 0.5
    #: Deterministic jitter: up to this fraction of each delay, drawn
    #: from a PRNG seeded with ``jitter_seed`` (reproducible schedules).
    jitter_fraction: float = 0.1
    jitter_seed: int = 2005
    #: TCP connect timeout for each dial attempt, and the deadline for
    #: the peer to drain a send that does not fit the socket buffer.
    connect_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if self.backoff_initial_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")

    def backoff_schedule(self) -> List[float]:
        """The bounded, jittered delays (seconds) for one incident.

        Deterministic: the same config always yields the same schedule.
        """
        rng = seeded_rng(self.jitter_seed)
        delays = []
        delay = self.backoff_initial_s
        for _ in range(self.max_attempts):
            bounded = min(delay, self.backoff_max_s)
            jitter = bounded * self.jitter_fraction * rng.random()
            delays.append(bounded + jitter)
            delay *= self.backoff_multiplier
        return delays


class _FramedSocket:
    """Length-prefixed message stream over one TCP connection.

    The socket is made non-blocking once, here; every wait after that
    is an explicit ``poll`` on a per-connection :class:`select.poll`
    object, so a receive never touches the socket's mode or timeout.
    A send that cannot complete at once waits for the peer to drain
    for at most *send_timeout_s*, however the connection was last read.
    """

    def __init__(self, sock: socket.socket,
                 send_timeout_s: float = ResilienceConfig.connect_timeout_s
                 ) -> None:
        self.sock = sock
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.send_timeout_s = send_timeout_s
        self._fd = sock.fileno()
        self._poller = select.poll()
        self._poller.register(self._fd, select.POLLIN)
        self._closed = False
        self._rxbuf = bytearray()

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
            if not data:
                return
            if writable is None:
                writable = select.poll()
                writable.register(self._fd, select.POLLOUT)
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not writable.poll(remaining * 1e3):
                raise TransportError(
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
            raise OSError(errno.EBADF, "connection is closed")
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
        if not chunk:
            raise TransportError("peer closed the connection")
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
            raise TransportError(
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

    Listeners stay open after :meth:`accept`, so when a connection is
    lost the board redials and the master re-accepts the fresh socket.
    """

    def __init__(self, host: str = "127.0.0.1",
                 config: Optional[ResilienceConfig] = None) -> None:
        self.stats = LinkStats()
        self.config = config or ResilienceConfig()
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
        """Accept one connection per port; cleans up fully on failure."""
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
                conns[name] = _FramedSocket(sock,
                                            self.config.connect_timeout_s)
        except TransportError:
            # Don't leak the connections already accepted, nor the
            # listeners we never got to.
            for conn in conns.values():
                conn.close()
            self.close()
            raise
        return TcpMaster(conns, self.stats, self, self.config)

    def reaccept(self, port_name: str,
                 timeout: float = 0.0) -> Optional[_FramedSocket]:
        """Accept a fresh connection on one port.

        Returns None when no connection is pending within *timeout*.
        """
        listener = self._listeners.get(port_name)
        if listener is None:
            raise TransportError(f"no open listener for {port_name} port")
        listener.settimeout(timeout)
        try:
            sock, _ = listener.accept()
        except (socket.timeout, BlockingIOError):
            return None
        return _FramedSocket(sock, self.config.connect_timeout_s)

    def close(self) -> None:
        for listener in self._listeners.values():
            listener.close()
        self._listeners = {}


class TcpMaster(MasterEndpoint):
    """Master endpoint with re-accept, grant replay and INT resend."""

    def __init__(self, conns: Dict[str, _FramedSocket], stats: LinkStats,
                 server: TcpLinkServer,
                 config: ResilienceConfig) -> None:
        self._conns = conns
        self.stats = stats
        self._server = server
        self.config = config
        self._dead: set = set()
        #: The last grant as sent, counted; replayed on a CLOCK
        #: reconnect until its report arrives.
        self._last_grant: Optional[Counted] = None
        self._last_grant_acked = True
        #: INT frames accepted so far: the count of the next grant.
        self._interrupts_accepted = 0
        #: Accepted INT frames that no report has covered yet, in order;
        #: resent after an INT reconnect.
        self._unreported: List[Counted] = []
        #: Highest DATA request number handed out, and a report held
        #: back until the requests it counts have been.
        self._data_seen = 0
        self._held_report: Optional[Counted] = None

    # -- recovery -------------------------------------------------------
    def _mark_dead(self, port: str) -> None:
        conn = self._conns.get(port)
        if conn is not None:
            conn.close()
            self._conns[port] = None
        self._dead.add(port)

    def _revive(self, port: str, timeout: float) -> bool:
        """Re-accept *port*; replays in-flight traffic on success."""
        conn = self._server.reaccept(port, timeout)
        if conn is None:
            return False
        old = self._conns.get(port)
        if old is not None:
            old.close()
        self._conns[port] = conn
        self._dead.discard(port)
        self.stats.reconnects += 1
        try:
            if port == CLOCK_PORT:
                if self._last_grant is not None and not self._last_grant_acked:
                    conn.send(self._last_grant)
                    self.stats.replays += 1
            elif port == INT_PORT:
                for frame in self._unreported:
                    conn.send(frame)
                    self.stats.replays += 1
        except (TransportError, OSError):
            self._mark_dead(port)
            return False
        return True

    def _revive_blocking(self, port: str) -> None:
        """Re-accept *port* within the bounded backoff budget."""
        for delay in self.config.backoff_schedule():
            start = time.monotonic()
            if self._revive(port, timeout=delay):
                return
            self.stats.reconnect_attempts += 1
            self.stats.backoff_wait_s += time.monotonic() - start
        raise TransportError(
            f"reconnect budget exhausted for {port} port "
            f"({self.config.max_attempts} attempts)"
        )

    # -- CLOCK ---------------------------------------------------------
    def send_grant(self, grant: ClockGrant) -> None:
        # The count is framing: the logical grant is what the link
        # counters account.
        self.stats.account(grant, "clock")
        grant = Counted(self._interrupts_accepted, grant)
        self._last_grant = grant
        self._last_grant_acked = False
        if CLOCK_PORT in self._dead:
            self._revive_blocking(CLOCK_PORT)  # replays the unacked grant
            return
        try:
            self._conns[CLOCK_PORT].send(grant)
        except (TransportError, OSError):
            self._mark_dead(CLOCK_PORT)
            self._revive_blocking(CLOCK_PORT)

    def recv_report(self, timeout: Optional[float] = None) -> Optional[TimeReport]:
        deadline = None if timeout is None else time.monotonic() + timeout

        def expired() -> bool:
            return deadline is not None and time.monotonic() >= deadline

        while True:
            held = self._held_report
            if held is not None and self._data_seen >= held.count:
                self._held_report = None
                return held.message
            if CLOCK_PORT in self._dead:
                if not self._revive(CLOCK_PORT, timeout=_REVIVE_SLICE_S):
                    if expired():
                        return None
                    continue
            conn = self._conns[CLOCK_PORT]
            slice_s = _REVIVE_SLICE_S
            if deadline is not None:
                slice_s = min(slice_s, max(deadline - time.monotonic(), 0.0))
            data = self._conns.get(DATA_PORT)  # None while dead
            try:
                message = conn.recv(slice_s, wake=data)
            except (TransportError, OSError):
                self._mark_dead(CLOCK_PORT)
                continue
            if message is None:
                if data is not None and data.ready():
                    return None  # a DATA request is waiting: serve it
                # A board stuck at an interrupt fence redials INT: take
                # the fresh connection and resend the frames it lacks.
                self._revive(INT_PORT, 0.0)
                if expired():
                    return None
                continue
            if not (isinstance(message, Counted)
                    and isinstance(message.message, TimeReport)):
                raise TransportError(
                    f"unexpected message on CLOCK port: {message!r}"
                )
            seq = message.message.seq
            if (self._last_grant is None
                    or seq < self._last_grant.message.seq
                    or (seq == self._last_grant.message.seq
                        and self._last_grant_acked)):
                continue  # stale duplicate left over from a resync
            if seq > self._last_grant.message.seq:
                raise TransportError(
                    f"time report from the future: seq {seq}, "
                    f"last grant {self._last_grant.message.seq}"
                )
            self._last_grant_acked = True
            # The board read every INT frame the acked grant counted.
            self._unreported = [frame for frame in self._unreported
                                if frame.count > self._last_grant.count]
            # Returned at the top of the loop once its DATA requests
            # are handed out; until then a waiting request wakes us.
            self._held_report = message

    # -- INT -----------------------------------------------------------
    def send_interrupt(self, interrupt: Interrupt) -> None:
        self.stats.account(interrupt, "int")
        self._interrupts_accepted += 1
        frame = Counted(self._interrupts_accepted, interrupt)
        self._unreported.append(frame)
        if INT_PORT in self._dead:
            # A successful revive resends this frame with the others.
            self._revive(INT_PORT, 0.0)
            return
        try:
            self._conns[INT_PORT].send(frame)
        except (TransportError, OSError):
            self._mark_dead(INT_PORT)

    # -- DATA ----------------------------------------------------------
    def poll_data(self):
        for port in (INT_PORT, DATA_PORT):
            # Opportunistically pick up redialed connections.
            if port in self._dead:
                self._revive(port, 0.0)
        if DATA_PORT in self._dead:
            return None
        try:
            message = self._conns[DATA_PORT].poll()
        except (TransportError, OSError):
            self._mark_dead(DATA_PORT)
            self._revive(DATA_PORT, 0.0)
            return None
        if message is None:
            return None
        if not isinstance(message, (DataRead, DataWrite)):
            raise TransportError(f"unexpected message on DATA port: {message!r}")
        self._data_seen = max(self._data_seen, message.seq)
        return message

    def send_reply(self, seq: int, value: Value) -> None:
        reply = DataReply(seq, value)
        self.stats.account(reply, "data")
        if DATA_PORT in self._dead:
            self._revive_blocking(DATA_PORT)
        try:
            self._conns[DATA_PORT].send(reply)
        except (TransportError, OSError):
            self._mark_dead(DATA_PORT)
            # The board replays its request after reconnecting, which
            # re-produces the reply; nothing more to do here.

    def close(self) -> None:
        for conn in self._conns.values():
            if conn is not None:
                conn.close()
        self._conns = {}
        self._server.close()


def connect_board(addresses: dict,
                  config: Optional[ResilienceConfig] = None,
                  stats: Optional[LinkStats] = None) -> "TcpBoard":
    """Board-side: dial the three ports of a :class:`TcpLinkServer`.

    Pass the server's ``stats`` to aggregate both directions when the
    two sides live in one process (as the threaded session does).
    """
    return TcpBoard(addresses, config or ResilienceConfig(), stats=stats)


class TcpBoard(BoardEndpoint):
    """Board endpoint that redials dropped ports and resyncs."""

    def __init__(self, addresses: dict, config: ResilienceConfig,
                 stats: Optional[LinkStats] = None) -> None:
        self._addresses = addresses
        self.config = config
        self.stats = stats if stats is not None else LinkStats()
        self._conns: Dict[str, Optional[_FramedSocket]] = {}
        self._data_seq = 0
        self.reply_timeout = 30.0
        #: The last report as sent, counted; replayed on resync.
        self._last_report: Optional[Counted] = None
        self._last_grant_seq = 0
        #: INT frames read so far, and those not yet polled.
        self._interrupts_read = 0
        self._interrupts: Deque[Interrupt] = deque()
        for port in _PORTS:
            self._dial(port)

    # -- connection management -----------------------------------------
    def _dial(self, port: str) -> None:
        """Connect *port*, retrying over the bounded backoff schedule."""
        last_error: Optional[OSError] = None
        for delay in self.config.backoff_schedule():
            try:
                sock = socket.create_connection(
                    self._addresses[port],
                    timeout=self.config.connect_timeout_s,
                )
            except OSError as exc:
                last_error = exc
                # Only failed dials count: a first-try connect is not
                # a retry and must not inflate the summary counters.
                self.stats.reconnect_attempts += 1
                self.stats.backoff_wait_s += delay
                time.sleep(delay)
                continue
            self._conns[port] = _FramedSocket(sock,
                                              self.config.connect_timeout_s)
            return
        raise TransportError(
            f"reconnect budget exhausted for {port} port "
            f"({self.config.max_attempts} attempts): {last_error}"
        )

    def _reconnect(self, port: str) -> None:
        conn = self._conns.get(port)
        if conn is not None:
            conn.close()
            self._conns[port] = None
        self._dial(port)
        self.stats.reconnects += 1
        if port == CLOCK_PORT:
            if self._last_report is not None:
                # Resync: the master may never have heard this report;
                # its sequence number lets the master drop a duplicate.
                self._send_raw(CLOCK_PORT, self._last_report)
                self.stats.replays += 1

    def _send_raw(self, port: str, message: Message) -> None:
        conn = self._conns[port]
        if conn is None:
            raise TransportError(f"{port} port is down")
        conn.send(message)

    def _send_with_retry(self, port: str, message: Message) -> None:
        """Send, redialing the port once if the first attempt fails."""
        try:
            self._send_raw(port, message)
            return
        except (TransportError, OSError):
            self._reconnect(port)
        self._send_raw(port, message)

    def inject_disconnect(self, port: str) -> None:
        """Forcibly drop one connection (fault injection hook).

        The dead socket stays installed, so the next operation on the
        port fails and exercises the real recovery path on both sides.
        """
        conn = self._conns.get(port)
        if conn is not None:
            conn.close()

    # -- CLOCK ---------------------------------------------------------
    def recv_grant(self, timeout: Optional[float] = None) -> Optional[ClockGrant]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None
            if deadline is not None:
                # Past the deadline, recv still polls once.
                remaining = max(deadline - time.monotonic(), 0.0)
            conn = self._conns[CLOCK_PORT]
            if conn is None:
                self._reconnect(CLOCK_PORT)
                continue
            try:
                message = conn.recv(remaining)
            except (TransportError, OSError):
                self._reconnect(CLOCK_PORT)
                continue
            if message is None:
                return None
            if not (isinstance(message, Counted)
                    and isinstance(message.message, ClockGrant)):
                raise TransportError(
                    f"unexpected message on CLOCK port: {message!r}"
                )
            grant = message.message
            if grant.seq <= self._last_grant_seq:
                # Replayed grant we already executed: the master lost
                # our report — resend it so both sides realign.
                if self._last_report is not None:
                    self._send_with_retry(CLOCK_PORT, self._last_report)
                    self.stats.replays += 1
                continue
            self._read_interrupts(message.count)
            self._last_grant_seq = grant.seq
            return grant

    def _read_interrupts(self, count: int) -> None:
        """Read INT frames until *count* of them have arrived, redialing
        a dropped INT connection (the master resends what no report has
        covered; numbers already read are dropped).  Raises
        :class:`TransportError` when a frame is still missing after
        ``connect_timeout_s``, the time a redial may take."""
        window_s = self.config.connect_timeout_s
        deadline = time.monotonic() + window_s
        while self._interrupts_read < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"INT frame {self._interrupts_read + 1} of the "
                    f"{count} sent before this grant never arrived "
                    f"within {window_s:g}s"
                )
            conn = self._conns[INT_PORT]
            if conn is None:
                self._reconnect(INT_PORT)
                continue
            try:
                frame = conn.recv(remaining)
            except (TransportError, OSError):
                self._reconnect(INT_PORT)
                continue
            if frame is not None:
                self._take_interrupt(frame)

    def _take_interrupt(self, frame: Message) -> None:
        """Queue one INT frame for :meth:`poll_interrupt`, dropping a
        number already read (a resend after a reconnect)."""
        if not (isinstance(frame, Counted)
                and isinstance(frame.message, Interrupt)):
            raise TransportError(f"unexpected message on INT port: {frame!r}")
        if frame.count <= self._interrupts_read:
            return
        if frame.count != self._interrupts_read + 1:
            raise TransportError(
                f"INT frame {frame.count} arrived while frame "
                f"{self._interrupts_read + 1} is missing")
        self._interrupts_read += 1
        self._interrupts.append(frame.message)

    def send_report(self, report: TimeReport) -> None:
        self.stats.account(report, "clock")
        self._last_report = Counted(self._data_seq, report)
        self._send_with_retry(CLOCK_PORT, self._last_report)

    # -- INT -----------------------------------------------------------
    def poll_interrupt(self) -> Optional[Interrupt]:
        # recv_grant has already read every frame fenced before the
        # grant; the socket is polled only once those are taken.
        if not self._interrupts:
            conn = self._conns[INT_PORT]
            if conn is None:
                self._reconnect(INT_PORT)
                return None
            try:
                frame = conn.poll()
            except (TransportError, OSError):
                self._reconnect(INT_PORT)
                return None
            if frame is None:
                return None
            self._take_interrupt(frame)
        return self._interrupts.popleft() if self._interrupts else None

    # -- DATA ----------------------------------------------------------
    def data_read(self, address: int) -> Value:
        self._data_seq += 1
        request = DataRead(self._data_seq, address)
        self.stats.account(request, "data")
        self._send_with_retry(DATA_PORT, request)
        deadline = time.monotonic() + self.reply_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(f"DATA read of {address:#x} timed out")
            conn = self._conns[DATA_PORT]
            try:
                reply = conn.recv(remaining)
            except (TransportError, OSError):
                # The reply (and possibly the request) was lost; replay.
                # Reads are idempotent on the master, so at-least-once
                # delivery is safe here.
                self._reconnect(DATA_PORT)
                self._send_raw(DATA_PORT, request)
                self.stats.replays += 1
                continue
            if reply is None:
                continue
            if isinstance(reply, DataReply) and reply.seq < request.seq:
                continue  # stale duplicate from before a reconnect
            if not isinstance(reply, DataReply) or reply.seq != request.seq:
                raise TransportError(f"bad DATA reply: {reply!r}")
            return reply.value

    def data_write(self, address: int, value: Value) -> None:
        self._data_seq += 1
        request = DataWrite(self._data_seq, address, value)
        self.stats.account(request, "data")
        self._send_with_retry(DATA_PORT, request)

    def close(self) -> None:
        for conn in self._conns.values():
            if conn is not None:
                conn.close()
        self._conns = {port: None for port in _PORTS}


class TcpLink:
    """Both ends of one board's three TCP connections, in one process.

    The same shape as the in-process link: ``master``, ``board``, the
    shared ``stats`` and :meth:`close`.  The master listens on three
    ephemeral localhost ports and the board dials them.
    """

    def __init__(self, config: Optional[ResilienceConfig] = None) -> None:
        server = TcpLinkServer(config=config)
        self.stats = server.stats
        self.board = None
        try:
            self.board = connect_board(server.addresses, server.config,
                                       stats=self.stats)
            self.master = server.accept()
        except BaseException:
            if self.board is not None:
                self.board.close()
            server.close()
            raise

    def close(self) -> None:
        """Close both ends and the master's listeners."""
        try:
            self.master.close()
        finally:
            self.board.close()
