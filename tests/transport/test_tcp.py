"""Tests for the localhost TCP link."""

import socket
import struct
import threading
import time

import pytest

from repro.cosim import CosimConfig
from repro.errors import TransportError
from repro.router.testbench import RouterWorkload, build_router_cosim
from repro.transport import (
    ClockGrant,
    Interrupt,
    LinkStats,
    TcpLinkServer,
    TimeReport,
    connect_board,
)
from repro.transport.faults import FaultPlan
from repro.transport.framing import MAX_FRAME_SIZE, encode
from repro.transport.messages import (
    CLOCK_PORT,
    DATA_PORT,
    INT_PORT,
    Counted,
    DataReply,
)
from repro.transport.tcp import _FramedSocket


def tcp_socket_pair():
    """A connected (client, server) pair of real TCP sockets."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.create_connection(listener.getsockname())
    server, _ = listener.accept()
    listener.close()
    return client, server


def wait_readable(framed, timeout=5.0):
    """Wait until bytes are waiting on *framed*, without reading them."""
    assert framed._wait(timeout * 1e3), "no bytes arrived"


@pytest.fixture
def tcp_pair():
    server = TcpLinkServer()
    board_holder = {}

    def connect():
        board_holder["board"] = connect_board(server.addresses,
                                              stats=server.stats)

    thread = threading.Thread(target=connect)
    thread.start()
    master = server.accept(timeout=10)
    thread.join(timeout=10)
    board = board_holder["board"]
    yield master, board
    master.close()
    board.close()


class TestTcpLink:
    def test_three_distinct_ports_bound(self):
        server = TcpLinkServer()
        addresses = server.addresses
        ports = {addr[1] for addr in addresses.values()}
        assert len(ports) == 3
        server.close()

    def test_clock_exchange(self, tcp_pair):
        master, board = tcp_pair
        master.send_grant(ClockGrant(seq=1, ticks=42))
        grant = board.recv_grant(timeout=5)
        assert grant.ticks == 42
        board.send_report(TimeReport(seq=1, board_ticks=42))
        report = master.recv_report(timeout=5)
        assert report.board_ticks == 42

    def test_interrupt_poll(self, tcp_pair):
        master, board = tcp_pair
        assert board.poll_interrupt() is None
        master.send_interrupt(Interrupt(vector=1, master_cycle=9))
        # Poll until the frame arrives (the write is asynchronous).
        for _ in range(1000):
            irq = board.poll_interrupt()
            if irq is not None:
                break
        assert irq.master_cycle == 9

    def test_data_rpc(self, tcp_pair):
        master, board = tcp_pair
        served = _serve_into(master, value=b"payload")
        _open_window(master, board)
        result = {}

        def board_side():
            result["value"] = board.data_read(7)
            board.send_report(TimeReport(seq=1, board_ticks=7))

        thread = threading.Thread(target=board_side)
        thread.start()
        assert master.recv_report(timeout=5).board_ticks == 7
        thread.join(timeout=10)
        assert [entry[:3] for entry in served] == [("read", 7, None)]
        assert result["value"] == b"payload"

    def test_data_write_reaches_master(self, tcp_pair):
        master, board = tcp_pair
        served = _serve_into(master)
        _open_window(master, board)
        board.data_write(3, 99)
        board.send_report(TimeReport(seq=1, board_ticks=7))
        assert master.recv_report(timeout=5).board_ticks == 7
        assert [entry[:3] for entry in served] == [("write", 3, 99)]

    def test_data_without_a_server_is_an_error(self, tcp_pair):
        master, board = tcp_pair
        board.data_write(3, 99)
        with pytest.raises(TransportError, match="no DATA server"):
            master.recv_report(timeout=5)

    def test_recv_timeout(self, tcp_pair):
        master, board = tcp_pair
        assert board.recv_grant(timeout=0.02) is None

    # An expired (here: zero) deadline still gets one non-blocking poll
    # and fill, so a frame already waiting on the socket is returned.
    def test_zero_timeout_recv_grant_reads_a_waiting_grant(self, tcp_pair):
        master, board = tcp_pair
        assert board.recv_grant(timeout=0) is None
        master.send_grant(ClockGrant(seq=1, ticks=42))
        wait_readable(board._conns[CLOCK_PORT])
        assert board.recv_grant(timeout=0).ticks == 42

    def test_zero_timeout_recv_report_reads_a_waiting_report(self, tcp_pair):
        master, board = tcp_pair
        master.send_grant(ClockGrant(seq=1, ticks=42))
        assert board.recv_grant(timeout=5).ticks == 42
        assert master.recv_report(timeout=0) is None
        board.send_report(TimeReport(seq=1, board_ticks=42))
        wait_readable(master._conns[CLOCK_PORT])
        assert master.recv_report(timeout=0).board_ticks == 42

    def test_listeners_close_once_connected(self):
        server = TcpLinkServer()
        addresses = server.addresses
        board = connect_board(addresses, stats=server.stats)
        master = server.accept(timeout=10)
        try:
            # Nothing redials, so nothing listens any more.
            assert server._listeners == {}
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(addresses[DATA_PORT], timeout=1)
        finally:
            master.close()
            board.close()

    def test_dial_failure_names_the_port(self):
        # A port nobody listens on: bind, grab the number, close.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()
        probe.close()
        start = time.monotonic()
        with pytest.raises(TransportError, match="DATA port: cannot connect"):
            connect_board({name: dead_address
                           for name in (DATA_PORT, INT_PORT, CLOCK_PORT)},
                          connect_timeout_s=0.2)
        assert time.monotonic() - start < 1.0

    def test_report_for_no_outstanding_grant_is_an_error(self, tcp_pair):
        master, board = tcp_pair
        _open_window(master, board)
        board.send_report(TimeReport(seq=1, board_ticks=7))
        assert master.recv_report(timeout=5).board_ticks == 7
        # A second report for the answered grant: nothing resends on
        # this link, so it is a fault, not a duplicate to drop.
        board.send_report(TimeReport(seq=1, board_ticks=7))
        with pytest.raises(TransportError,
                           match="CLOCK port: time report seq 1"):
            master.recv_report(timeout=5)

    def test_accept_timeout(self):
        server = TcpLinkServer()
        with pytest.raises(TransportError, match="never connected"):
            server.accept(timeout=0.05)
        server.close()

    def test_shared_stats(self, tcp_pair):
        master, board = tcp_pair
        master.send_grant(ClockGrant(seq=1, ticks=1))
        board.send_report(TimeReport(seq=1, board_ticks=1))
        assert master.stats.clock_messages == 2

    def test_accept_timeout_closes_accepted_connections(self):
        """A partial connect must not leak the sockets already accepted:
        when a later listener times out, everything is torn down."""
        server = TcpLinkServer()
        # Connect only the first port; INT/CLOCK never connect.
        lone = socket.create_connection(server.addresses[DATA_PORT])
        try:
            with pytest.raises(TransportError, match="never connected"):
                server.accept(timeout=0.1)
            assert server._listeners == {}
            # The accepted DATA connection was closed server-side: the
            # client sees EOF instead of a half-open socket.
            lone.settimeout(2.0)
            assert lone.recv(1) == b""
        finally:
            lone.close()


class TestSessionOverTcp:
    """The link sends no liveness probes, its checkpoint tree holds the
    link counters and nothing else, and a slow report is waited for."""

    def test_clean_run_sends_no_heartbeats(self):
        workload = RouterWorkload(packets_per_producer=4, seed=7)
        cosim = build_router_cosim(CosimConfig(t_sync=200), workload,
                                   mode="tcp")
        metrics = cosim.run()
        assert metrics.windows > 10
        state = cosim.session.link_stats.snapshot()
        assert list(state) == list(LinkStats.FIELDS)
        restored = LinkStats()
        restored.restore(state)
        assert restored.snapshot() == state

    def test_delayed_report_is_absorbed(self):
        workload = RouterWorkload(packets_per_producer=3,
                                  interval_cycles=100, corrupt_rate=0.0,
                                  payload_size=16, seed=7)
        plan = FaultPlan(delay_reports={2: 0.2})
        cosim = build_router_cosim(
            CosimConfig(t_sync=50, report_timeout_s=30.0), workload,
            mode="tcp", fault_plan=plan)
        metrics = cosim.run(max_cycles=500, await_drain=False)
        assert plan.reports_delayed == 1
        assert metrics.board_ticks == metrics.master_cycles == 500


def _after(delay_s, fn, *args):
    thread = threading.Timer(delay_s, fn, args)
    thread.start()
    return thread


def _open_window(master, board, ticks=7):
    """Grant one window: the master only accepts a report that answers
    its outstanding grant."""
    master.send_grant(ClockGrant(seq=1, ticks=ticks))
    assert board.recv_grant(timeout=5) == ClockGrant(seq=1, ticks=ticks)


def _serve_into(master, value=0):
    """Serve *master*'s DATA requests with reads of *value*; returns the
    list each request is appended to, as ``(op, address, value, when)``."""
    served = []

    def server(op, address, written):
        served.append((op, address, written, time.monotonic()))
        return value if op == "read" else None

    master.data_server = server
    return served


class TestReportWaitWakesOnData:
    """A DATA frame ends the master's poll at once: the report wait
    serves it through the link's ``data_server`` and waits on, and each
    request served starts the silence bound again."""

    def test_data_frame_ends_the_wait(self, tcp_pair):
        master, board = tcp_pair
        served = _serve_into(master)
        sender = _after(0.05, board.data_write, 3, 99)
        start = time.monotonic()
        assert master.recv_report(timeout=0.3) is None
        end = time.monotonic()
        sender.join()
        assert [entry[:3] for entry in served] == [("write", 3, 99)]
        served_at = served[0][3]
        # Served as it arrived, and the 0.3s of silence counted from
        # there, not from the start of the wait.
        assert served_at - start < 0.25
        assert end - served_at >= 0.3

    def test_data_frame_ends_the_wait_mid_window(self, tcp_pair):
        master, board = tcp_pair
        served = _serve_into(master)
        _open_window(master, board, ticks=5)

        def board_side():
            board.data_write(3, 99)
            time.sleep(0.05)
            board.send_report(TimeReport(seq=1, board_ticks=5))

        sender = _after(0.05, board_side)
        assert master.recv_report(timeout=5.0).board_ticks == 5
        sender.join()
        assert [entry[:3] for entry in served] == [("write", 3, 99)]

    def test_buffered_data_frame_ends_the_wait(self, tcp_pair):
        # Frames already read are served in arrival order before the
        # wait polls again.
        master, board = tcp_pair
        served = _serve_into(master)
        _open_window(master, board)
        board.data_write(1, 10)
        board.data_write(2, 20)
        board.send_report(TimeReport(seq=1, board_ticks=7))
        time.sleep(0.05)  # all three frames in flight before the poll
        assert master.recv_report(timeout=5.0).board_ticks == 7
        assert [entry[:3] for entry in served] == [("write", 1, 10),
                                                   ("write", 2, 20)]

    def test_report_still_returned(self, tcp_pair):
        master, board = tcp_pair
        _open_window(master, board)
        sender = _after(0.05, board.send_report,
                        TimeReport(seq=1, board_ticks=7))
        assert master.recv_report(timeout=5.0).board_ticks == 7
        sender.join()

    def test_report_waits_for_the_data_sent_before_it(self, tcp_pair):
        # DATA and CLOCK are separate connections: a report must not
        # overtake a write the board issued before it.  Here the report
        # that counts one request reaches the master 0.1s before it.
        master, board = tcp_pair
        served = _serve_into(master)
        _open_window(master, board)
        board._conns[CLOCK_PORT].send_frame(
            encode(Counted(1, TimeReport(seq=1, board_ticks=7))))
        wait_readable(master._conns[CLOCK_PORT])
        sender = _after(0.1, board.data_write, 3, 99)
        assert master.recv_report(timeout=5.0).board_ticks == 7
        returned_at = time.monotonic()
        sender.join()
        assert [entry[:3] for entry in served] == [("write", 3, 99)]
        assert served[0][3] <= returned_at

    def test_silence_still_times_out(self, tcp_pair):
        master, _board = tcp_pair
        start = time.monotonic()
        assert master.recv_report(timeout=0.1) is None
        assert time.monotonic() - start >= 0.09


class TestFramedSocket:
    def test_oversized_length_prefix_rejected(self):
        """A corrupt length prefix (e.g. 0xFFFFFFFF) must fail fast
        instead of buffering unboundedly."""
        client, server = tcp_socket_pair()
        framed = _FramedSocket(server, DATA_PORT)
        try:
            client.sendall(struct.pack(">I", 0xFFFFFFFF) + b"junk")
            with pytest.raises(TransportError, match="MAX_FRAME_SIZE"):
                framed.recv(timeout=2.0)
        finally:
            client.close()
            framed.close()

    def test_max_frame_size_boundary(self):
        client, server = tcp_socket_pair()
        framed = _FramedSocket(server, DATA_PORT)
        try:
            client.sendall(struct.pack(">I", MAX_FRAME_SIZE + 1))
            with pytest.raises(TransportError, match="MAX_FRAME_SIZE"):
                framed.recv(timeout=2.0)
        finally:
            client.close()
            framed.close()

    def test_poll_preserves_configured_timeout(self):
        client, server = tcp_socket_pair()
        framed = _FramedSocket(server, DATA_PORT)
        try:
            framed.sock.settimeout(1.5)
            assert framed.recv(0) is None
            assert framed.sock.gettimeout() == 1.5
            # And a message still comes through afterwards.
            client.sendall(encode(ClockGrant(seq=1, ticks=2)))
            assert framed.recv(timeout=2.0) == ClockGrant(seq=1, ticks=2)
            # Neither a message nor a timed-out receive touches it.
            assert framed.recv(timeout=0.01) is None
            assert framed.sock.gettimeout() == 1.5
        finally:
            client.close()
            framed.close()

    @pytest.mark.parametrize("timeout", [0.05, 0.15])
    def test_recv_timeout_is_a_deadline(self, timeout):
        """A peer dripping partial frames cannot stretch the wait: the
        timeout is a wall-clock deadline, overshot by at most one
        scheduling slice."""
        client, server = tcp_socket_pair()
        framed = _FramedSocket(server, DATA_PORT)
        stop = threading.Event()

        def dripper():
            # One header byte every 10ms: each chunk would reset a
            # naive per-chunk timeout forever.
            payload = struct.pack(">I", 64)
            index = 0
            while not stop.is_set():
                client.sendall(payload[index % len(payload):][:1])
                index += 1
                time.sleep(0.01)

        thread = threading.Thread(target=dripper, daemon=True)
        thread.start()
        try:
            start = time.monotonic()
            assert framed.recv(timeout=timeout) is None
            elapsed = time.monotonic() - start
            assert elapsed >= timeout
            assert elapsed <= timeout + 0.1
        finally:
            stop.set()
            thread.join(timeout=2)
            client.close()
            framed.close()

    def test_frame_split_across_two_segments(self):
        client, server = tcp_socket_pair()
        framed = _FramedSocket(server, DATA_PORT)
        wire = encode(ClockGrant(seq=3, ticks=40))
        try:
            client.sendall(wire[:5])
            time.sleep(0.02)
            assert framed.recv(0) is None  # half a frame is buffered
            client.sendall(wire[5:])
            assert framed.recv(timeout=2.0) == ClockGrant(seq=3, ticks=40)
        finally:
            client.close()
            framed.close()

    def test_several_frames_in_one_segment(self):
        client, server = tcp_socket_pair()
        framed = _FramedSocket(server, DATA_PORT)
        grants = [ClockGrant(seq=n, ticks=n * 10) for n in (1, 2, 3)]
        try:
            client.sendall(b"".join(encode(grant) for grant in grants))
            assert framed.recv(timeout=2.0) == grants[0]
            # The other two come out one poll each, in order.
            assert [framed.recv(0), framed.recv(0)] == grants[1:]
            assert framed.recv(0) is None
        finally:
            client.close()
            framed.close()

    def test_peer_close_seen_by_poll(self):
        client, server = tcp_socket_pair()
        framed = _FramedSocket(server, DATA_PORT)
        try:
            client.close()
            deadline = time.monotonic() + 2.0
            with pytest.raises(TransportError,
                               match="DATA port: peer closed"):
                while time.monotonic() < deadline:
                    framed.recv(0)
        finally:
            framed.close()

    def test_poll_after_local_close_fails(self):
        """A connection closed on this side fails its next poll, send
        or receive, naming the port, instead of reading as silent."""
        client, server = tcp_socket_pair()
        framed = _FramedSocket(server, DATA_PORT)
        framed.close()
        try:
            with pytest.raises(TransportError,
                               match="DATA port: connection is closed"):
                framed.recv(0)
            with pytest.raises(TransportError,
                               match="DATA port: connection is closed"):
                framed.recv(timeout=0.05)
            with pytest.raises(TransportError, match="DATA port: send"):
                framed.send_frame(encode(ClockGrant(seq=1, ticks=2)))
        finally:
            client.close()


def narrow_socket_pair():
    """A connected (client, server) pair whose kernel buffers are fixed
    before the handshake, well below one large frame (but above the
    loopback MSS, so the receive window reopens as the client drains)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 64 * 1024)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 256 * 1024)
    client.connect(listener.getsockname())
    server, _ = listener.accept()
    listener.close()
    return client, server


class TestSendDeadline:
    BIG = DataReply(seq=1, value=bytes(900 * 1024))

    def test_peer_that_never_reads_fails_the_send(self):
        client, server = narrow_socket_pair()
        framed = _FramedSocket(server, DATA_PORT, send_timeout_s=0.2)
        try:
            start = time.monotonic()
            with pytest.raises(TransportError, match="did not drain"):
                for _ in range(64):
                    framed.send_frame(encode(self.BIG))
            elapsed = time.monotonic() - start
            assert 0.2 <= elapsed < 2.0
        finally:
            client.close()
            framed.close()

    def test_send_ignores_the_last_receive_timeout(self):
        """A short receive slice does not shorten the next send: a peer
        that drains after 100ms still gets the whole frame."""
        client, server = narrow_socket_pair()
        framed = _FramedSocket(server, DATA_PORT)
        wire = encode(self.BIG)
        received = bytearray()

        def slow_reader():
            time.sleep(0.1)
            client.settimeout(5.0)
            while len(received) < len(wire):
                chunk = client.recv(65536)
                if not chunk:
                    return
                received.extend(chunk)

        reader = threading.Thread(target=slow_reader, daemon=True)
        reader.start()
        try:
            assert framed.recv(timeout=0.001) is None
            framed.send_frame(wire)
            reader.join(timeout=5)
            assert bytes(received) == wire
        finally:
            client.close()
            framed.close()
