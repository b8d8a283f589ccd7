"""Integration tests for the deterministic in-process session."""

import pytest

from repro.cosim import CosimConfig
from repro.errors import ProtocolError
from repro.router.testbench import RouterWorkload, build_router_cosim


def run_router(t_sync, workload, **config_kwargs):
    config = CosimConfig(t_sync=t_sync, **config_kwargs)
    cosim = build_router_cosim(config, workload, mode="inproc")
    metrics = cosim.run()
    return cosim, metrics


class TestEndToEnd:
    def test_all_packets_accounted(self, tiny_workload):
        cosim, metrics = run_router(100, tiny_workload)
        stats = cosim.stats
        assert stats.generated == tiny_workload.total_packets
        terminal = (stats.forwarded + stats.dropped_overflow
                    + stats.dropped_checksum + stats.dropped_unroutable)
        assert terminal == stats.generated
        assert stats.consistent()

    def test_corrupted_packets_rejected_by_software(self, tiny_workload):
        cosim, metrics = run_router(100, tiny_workload)
        assert cosim.stats.dropped_checksum == cosim.stats.generated_corrupt
        assert cosim.app.packets_bad == cosim.stats.generated_corrupt

    def test_deliveries_routed_correctly(self, tiny_workload):
        cosim, metrics = run_router(100, tiny_workload)
        assert sum(c.misrouted_count for c in cosim.consumers) == 0
        assert sum(c.invalid_count for c in cosim.consumers) == 0
        delivered = sum(c.received_count for c in cosim.consumers)
        assert delivered == cosim.stats.forwarded

    def test_time_alignment_invariant(self, tiny_workload):
        cosim, metrics = run_router(100, tiny_workload)
        # Invariant 1: board ticks == master cycles at every exchange;
        # at the end they must be identical.
        assert metrics.board_ticks == metrics.master_cycles
        assert cosim.master.protocol.exchanges == metrics.sync_exchanges

    def test_tight_sync_is_fully_accurate(self, tiny_workload):
        cosim, metrics = run_router(10, tiny_workload)
        assert cosim.accuracy() == 1.0

    def test_deterministic_across_runs(self, tiny_workload):
        results = []
        for _ in range(2):
            cosim, metrics = run_router(100, tiny_workload)
            results.append((
                cosim.stats.generated, cosim.stats.forwarded,
                cosim.stats.dropped_checksum, metrics.master_cycles,
                metrics.int_packets, metrics.bytes_total,
                tuple(cosim.stats.latencies),
            ))
        assert results[0] == results[1]

    def test_board_runs_exactly_granted_ticks(self, tiny_workload):
        cosim, metrics = run_router(100, tiny_workload)
        kernel = cosim.runtime.board.kernel
        assert kernel.sw_ticks == cosim.master.protocol.ticks_granted

    def test_modeled_wall_clock_positive(self, tiny_workload):
        cosim, metrics = run_router(100, tiny_workload)
        assert metrics.modeled_wall_seconds > 0
        assert metrics.wall_seconds is None


class TestAccuracyDegradation:
    def test_loose_sync_drops_packets(self):
        workload = RouterWorkload(packets_per_producer=25,
                                  interval_cycles=200, corrupt_rate=0.0,
                                  buffer_capacity=10)
        tight, _ = run_router(100, workload)
        loose, _ = run_router(5000, workload)
        assert tight.accuracy() == 1.0
        assert loose.accuracy() < 1.0
        assert loose.stats.dropped_overflow > 0

    def test_accuracy_monotone_over_three_points(self):
        workload = RouterWorkload(packets_per_producer=20,
                                  interval_cycles=200, corrupt_rate=0.0,
                                  buffer_capacity=10)
        accuracies = []
        for t_sync in (100, 2000, 8000):
            cosim, _ = run_router(t_sync, workload)
            accuracies.append(cosim.accuracy())
        assert accuracies[0] >= accuracies[1] >= accuracies[2]
        assert accuracies[0] == 1.0


class TestOverheadCounters:
    def test_sync_count_scales_inversely_with_t_sync(self, tiny_workload):
        _, fine = run_router(50, tiny_workload)
        _, coarse = run_router(500, tiny_workload)
        assert fine.sync_exchanges > coarse.sync_exchanges
        assert fine.modeled_wall_seconds > coarse.modeled_wall_seconds

    def test_interrupt_and_data_traffic_present(self, tiny_workload):
        _, metrics = run_router(100, tiny_workload)
        assert metrics.int_packets > 0
        assert metrics.data_messages > 0
        assert metrics.bytes_total > 0

    def test_state_switches_track_windows(self, tiny_workload):
        _, metrics = run_router(100, tiny_workload)
        # One freeze + one thaw per window (plus the boot freeze).
        assert metrics.state_switches == 2 * metrics.windows + 1


class TestSessionGuards:
    def test_requires_done_or_max_cycles(self, tiny_workload):
        cosim = build_router_cosim(CosimConfig(t_sync=100), tiny_workload)
        with pytest.raises(ProtocolError):
            cosim.session.run()

    def test_max_windows_guard(self, tiny_workload):
        config = CosimConfig(t_sync=10, max_windows=3)
        cosim = build_router_cosim(config, tiny_workload)
        with pytest.raises(ProtocolError, match="max_windows"):
            cosim.session.run(max_cycles=10_000, done=lambda: False)

    def test_unknown_transport_mode(self, tiny_workload):
        with pytest.raises(ProtocolError, match="unknown transport"):
            build_router_cosim(CosimConfig(), tiny_workload, mode="carrier")

    def test_queue_mode_is_gone(self, tiny_workload):
        # The links are in-process and TCP; the old thread-safe queue
        # link is an unknown mode like any other.
        with pytest.raises(ProtocolError, match="unknown transport"):
            build_router_cosim(CosimConfig(), tiny_workload, mode="queue")
