"""Tests for the TCP link's fault handling: reconnect and deadlines.

Unit tests drive the endpoints directly; the session tests at the
bottom are the acceptance runs — a TCP co-simulation survives a forced
disconnect of each of the three ports and finishes with tick/cycle
accounting identical to a fault-free run.
"""

import socket
import threading
import time

import pytest

from repro.cosim import CosimConfig
from repro.errors import TransportError
from repro.router.testbench import RouterWorkload, build_router_cosim
from repro.transport import (
    ClockGrant,
    LinkStats,
    ResilienceConfig,
    TcpLinkServer,
    TimeReport,
    connect_board,
)
from repro.transport.faults import FaultPlan
from repro.transport.messages import (
    CLOCK_PORT,
    DATA_PORT,
    INT_PORT,
    Interrupt,
)


def fast_config(**overrides):
    base = dict(max_attempts=5, backoff_initial_s=0.005,
                backoff_multiplier=2.0, backoff_max_s=0.02,
                connect_timeout_s=1.0)
    base.update(overrides)
    return ResilienceConfig(**base)


@pytest.fixture
def resilient_pair():
    config = fast_config()
    server = TcpLinkServer(config=config)
    holder = {}

    def connect():
        holder["board"] = connect_board(server.addresses, config,
                                        stats=server.stats)

    thread = threading.Thread(target=connect)
    thread.start()
    master = server.accept(timeout=10)
    thread.join(timeout=10)
    board = holder["board"]
    yield master, board
    board.close()
    master.close()


class TestBackoffSchedule:
    def test_deterministic(self):
        config = fast_config()
        assert config.backoff_schedule() == config.backoff_schedule()
        same = fast_config()
        assert same.backoff_schedule() == config.backoff_schedule()

    def test_bounded_budget_and_delays(self):
        config = fast_config(max_attempts=7, backoff_initial_s=0.001,
                             backoff_max_s=0.004, jitter_fraction=0.25)
        schedule = config.backoff_schedule()
        assert len(schedule) == config.max_attempts
        for delay in schedule:
            assert 0.0 <= delay <= config.backoff_max_s * 1.25 + 1e-9

    def test_exponential_growth_until_cap(self):
        config = fast_config(jitter_fraction=0.0, max_attempts=6,
                             backoff_initial_s=0.01, backoff_max_s=1.0)
        schedule = config.backoff_schedule()
        assert schedule == [0.01, 0.02, 0.04, 0.08, 0.16, 0.32]

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_attempts=0)
        with pytest.raises(ValueError):
            ResilienceConfig(backoff_initial_s=-1.0)
        with pytest.raises(ValueError):
            ResilienceConfig(backoff_multiplier=0.5)


class TestReconnectBudget:
    def test_dial_budget_exhausts_with_bounded_attempts(self):
        # A port nobody listens on: bind, grab the number, close.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()
        probe.close()
        config = fast_config(max_attempts=3, backoff_initial_s=0.001,
                             backoff_max_s=0.004, connect_timeout_s=0.2)
        stats = LinkStats()
        start = time.monotonic()
        with pytest.raises(TransportError, match="budget exhausted"):
            connect_board(
                {name: dead_address
                 for name in (DATA_PORT, INT_PORT, CLOCK_PORT)},
                config, stats=stats)
        assert stats.reconnect_attempts == 3
        assert stats.backoff_wait_s > 0
        assert time.monotonic() - start < 5.0


class TestClockRecovery:
    def test_grant_report_survive_clock_disconnect(self, resilient_pair):
        master, board = resilient_pair
        total = [0]
        failures = []

        def board_loop():
            try:
                for i in range(3):
                    grant = board.recv_grant(timeout=10)
                    total[0] += grant.ticks
                    if i == 0:
                        board.inject_disconnect(CLOCK_PORT)
                    board.send_report(
                        TimeReport(seq=grant.seq, board_ticks=total[0]))
            except Exception as exc:  # surfaced in the main thread
                failures.append(exc)

        thread = threading.Thread(target=board_loop, daemon=True)
        thread.start()
        granted = 0
        for seq, ticks in ((1, 4), (2, 5), (3, 6)):
            master.send_grant(ClockGrant(seq=seq, ticks=ticks))
            granted += ticks
            report = master.recv_report(timeout=10)
            assert report == TimeReport(seq=seq, board_ticks=granted)
        thread.join(timeout=10)
        assert not failures
        assert master.stats.reconnects >= 1
        assert master.stats.replays >= 1

    def test_stale_report_filtered_after_resync(self, resilient_pair):
        """The replayed TimeReport from before the drop never reaches
        the protocol layer twice."""
        master, board = resilient_pair
        master.send_grant(ClockGrant(seq=1, ticks=3))
        assert board.recv_grant(timeout=5) == ClockGrant(seq=1, ticks=3)
        board.send_report(TimeReport(seq=1, board_ticks=3))
        assert master.recv_report(timeout=5).seq == 1
        # Drop the link; the board redials and resends report 1.
        board.inject_disconnect(CLOCK_PORT)
        assert board.recv_grant(timeout=0.2) is None  # triggers redial
        master.send_grant(ClockGrant(seq=2, ticks=3))
        # The master notices the dead socket here, re-accepts, replays
        # grant 2, and must silently drop the board's resent report 1.
        assert master.recv_report(timeout=0.5) is None
        grant = board.recv_grant(timeout=5)
        assert grant == ClockGrant(seq=2, ticks=3)
        board.send_report(TimeReport(seq=2, board_ticks=6))
        report = master.recv_report(timeout=5)
        assert report == TimeReport(seq=2, board_ticks=6)


class TestDataRecovery:
    def test_data_rpc_survives_disconnect(self, resilient_pair):
        master, board = resilient_pair
        stop = threading.Event()

        def master_loop():
            while not stop.is_set():
                request = master.poll_data()
                if request is None:
                    time.sleep(0.001)
                    continue
                master.send_reply(request.seq, request.address * 2)

        thread = threading.Thread(target=master_loop, daemon=True)
        thread.start()
        try:
            assert board.data_read(21) == 42
            board.inject_disconnect(DATA_PORT)
            assert board.data_read(100) == 200
            board.data_write(5, 55)
            assert board.data_read(7) == 14
        finally:
            stop.set()
            thread.join(timeout=5)
        assert master.stats.reconnects >= 1


class TestInterruptRecovery:
    def test_interrupts_flow_again_after_disconnect(self, resilient_pair):
        master, board = resilient_pair

        def drain(deadline_s=5.0):
            deadline = time.monotonic() + deadline_s
            seen = []
            while time.monotonic() < deadline:
                irq = board.poll_interrupt()
                if irq is not None:
                    seen.append(irq)
                    continue
                if seen:
                    return seen
                time.sleep(0.005)
            return seen

        master.send_interrupt(Interrupt(vector=1, master_cycle=1))
        assert [irq.master_cycle for irq in drain()] == [1]
        board.inject_disconnect(INT_PORT)
        assert board.poll_interrupt() is None  # board redials here
        # The first post-drop send may be silently buffered into the
        # dead socket; later sends hit the reset, queue, and replay.
        deadline = time.monotonic() + 5.0
        cycle = 10
        received = []
        while time.monotonic() < deadline:
            master.send_interrupt(Interrupt(vector=1, master_cycle=cycle))
            cycle += 1
            received = [irq for irq in (board.poll_interrupt(),)
                        if irq is not None]
            if received:
                break
            time.sleep(0.01)
        assert received, "no interrupt delivered after INT reconnect"


class TestHeartbeats:
    """The link sends no liveness probes, and its checkpoint tree holds
    the link counters and nothing else."""

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


def build_session(fault_plan=None, t_sync=50):
    workload = RouterWorkload(packets_per_producer=3, interval_cycles=100,
                              corrupt_rate=0.0, payload_size=16, seed=7)
    resilience = ResilienceConfig(
        max_attempts=8, backoff_initial_s=0.005,
        backoff_max_s=0.05)
    config = CosimConfig(t_sync=t_sync, report_timeout_s=30.0,
                         resilience=resilience)
    return build_router_cosim(config, workload, mode="tcp",
                              fault_plan=fault_plan)


class TestSessionSurvivesDisconnects:
    """The acceptance runs: forced disconnects of all three ports."""

    CYCLES = 1500  # 30 windows of 50 ticks

    def test_disconnects_do_not_skew_the_virtual_tick(self):
        baseline = build_session()
        base_metrics = baseline.run(max_cycles=self.CYCLES,
                                    await_drain=False)
        plan = FaultPlan(disconnect_after_grants={
            3: CLOCK_PORT, 9: DATA_PORT, 15: INT_PORT})
        faulted = build_session(fault_plan=plan)
        metrics = faulted.run(max_cycles=self.CYCLES, await_drain=False)

        assert plan.disconnects_injected == 3
        # Tick/cycle accounting identical to the fault-free run.
        assert metrics.master_cycles == base_metrics.master_cycles
        assert metrics.board_ticks == base_metrics.board_ticks
        assert metrics.board_ticks == metrics.master_cycles == self.CYCLES
        # The link actually went through recovery.
        assert metrics.reconnects >= 2
        # Counters surface in the human-readable summary.
        summary = metrics.summary()
        assert "reconnects=" in summary
        assert "backoff=" in summary
        assert f"reconnects={metrics.reconnects}" in summary

    def test_delayed_report_is_absorbed(self):
        plan = FaultPlan(delay_reports={2: 0.2})
        cosim = build_session(fault_plan=plan)
        metrics = cosim.run(max_cycles=500, await_drain=False)
        assert plan.reports_delayed == 1
        assert metrics.board_ticks == metrics.master_cycles == 500
