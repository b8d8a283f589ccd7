"""Integration tests for threaded sessions (TCP links).

Every link runs each window in the same order, so these runs are as
deterministic as in-process ones (see test_window_order.py); the tests
here cover what only a board thread has: the measured wall clock, the
shutdown handshake, and errors raised on the board thread.
"""

import threading
import time

import pytest

from repro.cosim import CosimConfig
from repro.errors import ProtocolError, ReproError
from repro.router.testbench import RouterWorkload, build_router_cosim
from repro.transport.faults import FaultPlan


def run_threaded(mode, t_sync=100, **workload_kwargs):
    workload = RouterWorkload(
        packets_per_producer=workload_kwargs.pop("packets_per_producer", 4),
        interval_cycles=workload_kwargs.pop("interval_cycles", 150),
        corrupt_rate=workload_kwargs.pop("corrupt_rate", 0.2),
        payload_size=16,
        seed=3,
        **workload_kwargs,
    )
    cosim = build_router_cosim(CosimConfig(t_sync=t_sync), workload,
                               mode=mode)
    metrics = cosim.run()
    return cosim, metrics


@pytest.fixture
def thread_errors(monkeypatch):
    """Every exception that escapes a thread during the test."""
    escaped = []
    monkeypatch.setattr(threading, "excepthook",
                        lambda args: escaped.append(args.exc_value))
    return escaped


@pytest.mark.parametrize("mode", ["tcp"])
class TestThreadedModes:
    def test_all_packets_accounted(self, mode):
        cosim, metrics = run_threaded(mode)
        stats = cosim.stats
        terminal = (stats.forwarded + stats.dropped_overflow
                    + stats.dropped_checksum + stats.dropped_unroutable)
        assert stats.generated == 16
        assert terminal == stats.generated

    def test_wall_clock_measured(self, mode):
        cosim, metrics = run_threaded(mode)
        assert metrics.wall_seconds is not None
        assert metrics.wall_seconds > 0

    def test_time_alignment(self, mode):
        cosim, metrics = run_threaded(mode)
        assert metrics.board_ticks == metrics.master_cycles

    def test_corruption_detected(self, mode):
        cosim, metrics = run_threaded(mode)
        assert cosim.stats.dropped_checksum == cosim.stats.generated_corrupt


class TestShutdown:
    def test_board_thread_terminates(self):
        cosim, metrics = run_threaded("tcp")
        # cosim.run() already joined the board thread; a second session
        # over the same link must not be attempted, but the runtime's
        # counters should be consistent.
        assert cosim.runtime.windows_served == metrics.windows


class TestEmulatedNetworkDelay:
    WORKLOAD = RouterWorkload(packets_per_producer=2, interval_cycles=100,
                              corrupt_rate=0.0)

    def test_delay_increases_wall_time(self):
        fast = build_router_cosim(CosimConfig(t_sync=50), self.WORKLOAD,
                                  mode="tcp")
        fast_metrics = fast.run()
        slow = build_router_cosim(
            CosimConfig(t_sync=50, emulated_network_delay_s=0.005),
            self.WORKLOAD, mode="tcp",
        )
        slow_metrics = slow.run()
        assert slow_metrics.wall_seconds > fast_metrics.wall_seconds
        expected_extra = 0.005 * slow_metrics.sync_exchanges
        assert slow_metrics.wall_seconds >= 0.8 * expected_extra

    def test_inproc_run_honours_the_delay(self):
        # The board waits before every report on every link, so a
        # hosted in-process run is latency-bound without sockets.
        cosim = build_router_cosim(
            CosimConfig(t_sync=50, emulated_network_delay_s=0.005),
            self.WORKLOAD, mode="inproc")
        start = time.perf_counter()
        metrics = cosim.run()
        elapsed = time.perf_counter() - start
        assert elapsed >= 0.8 * 0.005 * metrics.windows


class TestFailureCleanup:
    """A run that dies mid-window must not leak the board thread or
    leave transport endpoints open."""

    def _run_with_dropped_report(self):
        workload = RouterWorkload(packets_per_producer=4,
                                  interval_cycles=150, corrupt_rate=0.0,
                                  payload_size=16, seed=3)
        # Drop the second time report: the master times out waiting for
        # it while the healthy board loops back to recv_grant and takes
        # the shutdown grant from the cleanup path.
        cosim = build_router_cosim(
            CosimConfig(t_sync=100, report_timeout_s=0.5), workload,
            mode="tcp", fault_plan=FaultPlan(drop_reports={2}))
        session = cosim.session
        closed = []
        for name, endpoint in (("master", session.master.endpoint),
                               ("board", session.runtime.endpoint)):
            def wrapped(original=endpoint.close, name=name):
                closed.append(name)
                original()
            endpoint.close = wrapped
        with pytest.raises(ProtocolError, match="report"):
            cosim.run()
        return closed

    def test_board_thread_joined_and_endpoints_closed(self):
        closed = self._run_with_dropped_report()
        assert not any(t.name == "cosim-board" and t.is_alive()
                       for t in threading.enumerate()), \
            "failed run leaked the board thread"
        assert closed == ["master", "board"], \
            "failed run must close both transport endpoints"

    def test_board_error_is_the_run_errors_context(self, thread_errors):
        # The board executes grant 2, then takes its duplicate and
        # dies; the master stops waiting for the report of grant 3 as
        # soon as it sees the board thread has ended, long before the
        # default 60 s report timeout.
        cosim = build_router_cosim(
            CosimConfig(t_sync=100), RouterWorkload(),
            mode="tcp", fault_plan=FaultPlan(duplicate_grants={2}))
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="'board' stopped serving "
                           "before its time report") as failure:
            cosim.run()
        assert time.monotonic() - start < 2.0
        chain = []
        error = failure.value
        while error is not None:
            chain.append(str(error))
            error = error.__context__
        assert any("grant out of order" in text for text in chain), chain
        assert thread_errors == []

    def test_board_error_after_a_clean_run_raised_by_close(
            self, thread_errors):
        # The board reports grant 1, which ends the run, then takes the
        # grant's duplicate and dies between runs.
        cosim = build_router_cosim(
            CosimConfig(t_sync=100), RouterWorkload(), mode="tcp",
            fault_plan=FaultPlan(duplicate_grants={1}))
        metrics = cosim.session.run(max_windows=1)
        assert metrics.windows == 1
        with pytest.raises(ReproError, match="grant out of order"):
            cosim.close()
        assert thread_errors == []


class TestBetweenRuns:
    def test_idle_between_runs_outlasts_the_report_timeout(
            self, thread_errors):
        # The board thread waits for its next grant without a deadline:
        # a session idle for longer than report_timeout_s runs again.
        cosim = build_router_cosim(
            CosimConfig(t_sync=100, report_timeout_s=0.5),
            RouterWorkload(), mode="tcp")
        session = cosim.session
        try:
            session.run(max_windows=2)
            assert session.aligned()
            time.sleep(1.0)
            metrics = session.run(max_windows=4)
            assert metrics.windows == 2
            assert session.aligned()
            assert session.master.clock.cycles == 400
        finally:
            cosim.close()
        assert thread_errors == []


class TestOneLoop:
    """The threaded session runs the same window loop as the in-process
    one: the same bounds, the same refusals."""

    def test_max_windows_bound(self):
        cosim = build_router_cosim(CosimConfig(t_sync=100),
                                   RouterWorkload(), mode="tcp")
        try:
            metrics = cosim.session.run(max_windows=2)
        finally:
            cosim.close()
        assert metrics.windows == 2
        assert metrics.master_cycles == 200
        assert cosim.session.aligned()

    def test_speculation_refused_before_window_zero(self):
        from repro.board import Board
        from repro.cosim import (
            BoardSlot,
            CosimBoardRuntime,
            CosimMaster,
            CosimSession,
            build_driver_sim,
        )
        from repro.transport import TcpLink

        config = CosimConfig(t_sync=100, speculation_depth=4)
        sim, clock = build_driver_sim("spec_threaded", config=config)
        link = TcpLink()
        master = CosimMaster(sim, clock, link.master, config)
        runtime = CosimBoardRuntime(Board(), link.board, config)
        session = CosimSession(master, [BoardSlot("board", link, runtime)],
                               config)
        try:
            with pytest.raises(ProtocolError, match="in-process"):
                session.run(max_cycles=100)
        finally:
            session.close()
        assert master.clock.cycles == 0
        assert session.windows_completed == 0
