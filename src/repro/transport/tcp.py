"""Real TCP/IP link on localhost.

Faithful to the paper's setup: three separate TCP connections — the DATA
port, the INT port and the CLOCK port — between the simulator host and
the board.  The master side listens; the board side connects.  Frames
use :mod:`repro.transport.framing`.

The wall-clock cost of these genuine socket round trips is exactly what
Figures 5 and 6 of the paper measure.
"""

from __future__ import annotations

import select
import socket
import struct
import time
from typing import Optional

from repro.errors import TransportError
from repro.transport.channel import BoardEndpoint, LinkStats, MasterEndpoint
from repro.transport.framing import MAX_FRAME_SIZE, decode, encode
from repro.transport.messages import (
    CLOCK_PORT,
    ClockGrant,
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


class _FramedSocket:
    """Length-prefixed message stream over one TCP connection."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rxbuf = bytearray()

    def send(self, message: Message) -> None:
        self.sock.sendall(encode(message))

    def recv(self, timeout: Optional[float],
             wake: Optional["_FramedSocket"] = None) -> Optional[Message]:
        """Receive one message; None on timeout.

        ``timeout`` is a wall-clock *deadline* for the whole message,
        not a per-chunk allowance: a peer dribbling partial frames
        cannot stretch the wait beyond ``timeout`` seconds.  With
        *wake*, also return None as soon as *wake* has input waiting
        and this connection has none.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            while True:
                frame = self._extract_frame()
                if frame is not None:
                    return decode(frame)
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                if wake is not None:
                    if wake._has_frame():
                        return None
                    readable, _, _ = select.select([self.sock, wake.sock],
                                                   [], [], remaining)
                    if self.sock not in readable:
                        return None  # timed out, or *wake* has input
                self.sock.settimeout(remaining)
                chunk = self.sock.recv(65536)
                if not chunk:
                    raise TransportError("peer closed the connection")
                self._rxbuf.extend(chunk)
        except socket.timeout:
            return None

    def poll(self) -> Optional[Message]:
        """Non-blocking receive; None if no complete frame is available."""
        frame = self._extract_frame()
        if frame is not None:
            return decode(frame)
        prior_timeout = self.sock.gettimeout()
        self.sock.setblocking(False)
        try:
            while True:
                chunk = self.sock.recv(65536)
                if not chunk:
                    raise TransportError("peer closed the connection")
                self._rxbuf.extend(chunk)
        except (BlockingIOError, InterruptedError):
            pass
        finally:
            self.sock.settimeout(prior_timeout)
        frame = self._extract_frame()
        return decode(frame) if frame is not None else None

    def ready(self) -> bool:
        """True when a frame is buffered or bytes wait on the socket."""
        if self._has_frame():
            return True
        readable, _, _ = select.select([self.sock], [], [], 0)
        return bool(readable)

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
    """

    def __init__(self, host: str = "127.0.0.1",
                 keep_listening: bool = False) -> None:
        self.stats = LinkStats()
        #: When set, listeners stay open after :meth:`accept` so dropped
        #: connections can be re-accepted (see transport.resilience).
        self.keep_listening = keep_listening
        self._listeners = {}
        for port_name in (DATA_PORT, INT_PORT, CLOCK_PORT):
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

    def _accept_conns(self, timeout: float) -> dict:
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
                conns[name] = _FramedSocket(sock)
        except TransportError:
            # Don't leak the connections already accepted, nor the
            # listeners we never got to.
            for conn in conns.values():
                conn.close()
            self.close()
            raise
        if not self.keep_listening:
            for listener in self._listeners.values():
                listener.close()
            self._listeners = {}
        return conns

    def accept(self, timeout: float = 30.0) -> "TcpMaster":
        return TcpMaster(self._accept_conns(timeout), self.stats)

    def reaccept(self, port_name: str,
                 timeout: float = 0.0) -> Optional[_FramedSocket]:
        """Accept a fresh connection on one port (``keep_listening`` only).

        Returns None when no connection is pending within *timeout*.
        """
        listener = self._listeners.get(port_name)
        if listener is None:
            raise TransportError(
                f"no open listener for {port_name} port "
                "(construct the server with keep_listening=True)"
            )
        listener.settimeout(timeout)
        try:
            sock, _ = listener.accept()
        except (socket.timeout, BlockingIOError):
            return None
        return _FramedSocket(sock)

    def close(self) -> None:
        for listener in self._listeners.values():
            listener.close()
        self._listeners = {}


def connect_board(addresses: dict, timeout: float = 30.0,
                  stats: Optional[LinkStats] = None) -> "TcpBoard":
    """Board-side: connect the three ports to a :class:`TcpLinkServer`.

    Pass the server's ``stats`` to aggregate both directions when the
    two sides live in one process (as the threaded session does).
    """
    conns = {}
    for name in (DATA_PORT, INT_PORT, CLOCK_PORT):
        sock = socket.create_connection(addresses[name], timeout=timeout)
        conns[name] = _FramedSocket(sock)
    return TcpBoard(conns, stats)


class TcpMaster(MasterEndpoint):
    def __init__(self, conns: dict, stats: LinkStats) -> None:
        self._conns = conns
        self.stats = stats

    def send_grant(self, grant: ClockGrant) -> None:
        self.stats.account(grant, "clock")
        self._conns[CLOCK_PORT].send(grant)

    def recv_report(self, timeout: Optional[float] = None) -> Optional[TimeReport]:
        # Wakes early on DATA input: the master serves it and waits again.
        message = self._conns[CLOCK_PORT].recv(
            timeout, wake=self._conns[DATA_PORT])
        if message is not None and not isinstance(message, TimeReport):
            raise TransportError(f"unexpected message on CLOCK port: {message!r}")
        return message

    def send_interrupt(self, interrupt: Interrupt) -> None:
        self.stats.account(interrupt, "int")
        self._conns[INT_PORT].send(interrupt)

    def poll_data(self):
        message = self._conns[DATA_PORT].poll()
        if message is not None and not isinstance(message, (DataRead, DataWrite)):
            raise TransportError(f"unexpected message on DATA port: {message!r}")
        return message

    def send_reply(self, seq: int, value: Value) -> None:
        reply = DataReply(seq, value)
        self.stats.account(reply, "data")
        self._conns[DATA_PORT].send(reply)

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()


class TcpBoard(BoardEndpoint):
    def __init__(self, conns: dict, stats: Optional[LinkStats] = None) -> None:
        self._conns = conns
        self.stats = stats
        self._data_seq = 0
        self.reply_timeout = 30.0

    def _account(self, message: Message, port: str) -> None:
        if self.stats is not None:
            self.stats.account(message, port)

    def recv_grant(self, timeout: Optional[float] = None) -> Optional[ClockGrant]:
        message = self._conns[CLOCK_PORT].recv(timeout)
        if message is not None and not isinstance(message, ClockGrant):
            raise TransportError(f"unexpected message on CLOCK port: {message!r}")
        return message

    def send_report(self, report: TimeReport) -> None:
        self._account(report, "clock")
        self._conns[CLOCK_PORT].send(report)

    def poll_interrupt(self) -> Optional[Interrupt]:
        message = self._conns[INT_PORT].poll()
        if message is not None and not isinstance(message, Interrupt):
            raise TransportError(f"unexpected message on INT port: {message!r}")
        return message

    def data_read(self, address: int) -> Value:
        self._data_seq += 1
        request = DataRead(self._data_seq, address)
        self._account(request, "data")
        self._conns[DATA_PORT].send(request)
        reply = self._conns[DATA_PORT].recv(self.reply_timeout)
        if reply is None:
            raise TransportError(f"DATA read of {address:#x} timed out")
        if not isinstance(reply, DataReply) or reply.seq != request.seq:
            raise TransportError(f"bad DATA reply: {reply!r}")
        return reply.value

    def data_write(self, address: int, value: Value) -> None:
        self._data_seq += 1
        request = DataWrite(self._data_seq, address, value)
        self._account(request, "data")
        self._conns[DATA_PORT].send(request)

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()
