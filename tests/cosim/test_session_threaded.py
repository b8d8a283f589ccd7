"""Integration tests for threaded sessions (queue and TCP links).

These runs are concurrent and hence not bit-deterministic; the tests
assert conservation laws and protocol invariants, not exact schedules.
"""

import pytest

from repro.cosim import CosimConfig
from repro.router.testbench import RouterWorkload, build_router_cosim


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


@pytest.mark.parametrize("mode", ["queue", "tcp"])
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
        cosim, metrics = run_threaded("queue")
        # cosim.run() already joined the board thread; a second session
        # over the same link must not be attempted, but the runtime's
        # counters should be consistent.
        assert cosim.runtime.windows_served == metrics.windows


class TestEmulatedNetworkDelay:
    def test_delay_increases_wall_time(self):
        workload = RouterWorkload(packets_per_producer=2,
                                  interval_cycles=100, corrupt_rate=0.0)
        fast = build_router_cosim(CosimConfig(t_sync=50), workload,
                                  mode="queue")
        fast_metrics = fast.run()
        slow = build_router_cosim(
            CosimConfig(t_sync=50, emulated_network_delay_s=0.005),
            workload, mode="queue",
        )
        slow_metrics = slow.run()
        assert slow_metrics.wall_seconds > fast_metrics.wall_seconds
        expected_extra = 0.005 * slow_metrics.sync_exchanges
        assert slow_metrics.wall_seconds >= 0.8 * expected_extra


class TestFailureCleanup:
    """A run that dies mid-window must not leak the board thread or
    leave transport endpoints open."""

    def _run_with_dropped_report(self):
        import threading

        from repro.errors import ProtocolError
        from repro.transport.faults import FaultPlan

        workload = RouterWorkload(packets_per_producer=4,
                                  interval_cycles=150, corrupt_rate=0.0,
                                  payload_size=16, seed=3)
        # Drop the second time report: the master times out waiting for
        # it while the healthy board loops back to recv_grant and takes
        # the shutdown pill from the cleanup path.
        cosim = build_router_cosim(
            CosimConfig(t_sync=100, report_timeout_s=0.5), workload,
            mode="queue", fault_plan=FaultPlan(drop_reports={2}))
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
        return closed, threading

    def test_board_thread_joined_and_endpoints_closed(self):
        import time

        closed, threading = self._run_with_dropped_report()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and any(
                t.name == "cosim-board" and t.is_alive()
                for t in threading.enumerate()):
            time.sleep(0.01)
        assert not any(t.name == "cosim-board" and t.is_alive()
                       for t in threading.enumerate()), \
            "failed run leaked the board thread"
        assert closed == ["master", "board"], \
            "failed run must close both transport endpoints"


class TestOneLoop:
    """The threaded session runs the same window loop as the in-process
    one: the same bounds, the same refusals."""

    def test_max_windows_bound(self):
        cosim = build_router_cosim(CosimConfig(t_sync=100),
                                   RouterWorkload(), mode="queue")
        try:
            metrics = cosim.session.run(max_windows=2)
        finally:
            cosim.close()
        assert metrics.windows == 2
        assert metrics.master_cycles == 200
        assert cosim.session.aligned()

    def test_speculation_refused_at_construction(self):
        from repro.board import Board
        from repro.cosim import (
            BoardSlot,
            CosimBoardRuntime,
            CosimMaster,
            CosimSession,
            build_driver_sim,
        )
        from repro.errors import ProtocolError
        from repro.transport.queues import QueueLink

        config = CosimConfig(t_sync=100, speculation_depth=4)
        sim, clock = build_driver_sim("spec_threaded", config=config)
        link = QueueLink()
        master = CosimMaster(sim, clock, link.master, config)
        runtime = CosimBoardRuntime(Board(), link.board, config)
        with pytest.raises(ProtocolError, match="in-process"):
            CosimSession(master, [BoardSlot("board", link, runtime)],
                         config)
