"""Tests for the Section 2 baseline co-simulation approaches."""

import pytest

from repro.cosim.baselines import (
    OptimisticCosim,
    build_annotated_router,
    run_lockstep,
    run_untimed,
)
from repro.router.testbench import RouterWorkload


@pytest.fixture
def small_workload():
    return RouterWorkload(packets_per_producer=4, interval_cycles=150,
                          payload_size=16, corrupt_rate=0.25, seed=11)


class TestUntimed:
    def test_functionally_complete(self, small_workload):
        result = run_untimed(small_workload)
        stats = result.stats
        assert stats.generated == small_workload.total_packets
        assert stats.dropped_overflow == 0  # zero-delay SW never lags
        assert stats.forwarded == stats.generated - stats.generated_corrupt
        assert result.packets_checked == stats.generated

    def test_wall_time_recorded(self, small_workload):
        result = run_untimed(small_workload)
        assert result.wall_seconds > 0
        assert result.cycles > 0


class TestLockstep:
    def test_lockstep_is_cycle_accurate_reference(self, small_workload):
        metrics, stats = run_lockstep(small_workload)
        assert metrics.t_sync == 1
        assert stats.handled_fraction() == 1.0
        assert metrics.sync_exchanges == metrics.master_cycles

    def test_lockstep_matches_untimed_functionally(self, small_workload):
        metrics, lockstep_stats = run_lockstep(small_workload)
        untimed_stats = run_untimed(small_workload).stats
        assert lockstep_stats.forwarded == untimed_stats.forwarded
        assert (lockstep_stats.dropped_checksum
                == untimed_stats.dropped_checksum)


class TestAnnotatedIss:
    def test_functional_agreement_with_untimed(self, small_workload):
        annotated = build_annotated_router(small_workload)
        stats = annotated.run()
        untimed_stats = run_untimed(small_workload).stats
        assert stats.forwarded == untimed_stats.forwarded
        assert stats.dropped_checksum == untimed_stats.dropped_checksum
        assert annotated.software.packets_checked == stats.generated

    def test_annotation_cycles_accumulate(self, small_workload):
        annotated = build_annotated_router(small_workload)
        annotated.run()
        software = annotated.software
        assert software.annotated_cycles_total > 0
        # ISS cost is cached per payload size (single size here).
        assert len(software._cycle_cache) == 1

    def test_annotated_latency_is_nonzero(self, small_workload):
        annotated = build_annotated_router(small_workload)
        stats = annotated.run()
        assert stats.mean_latency() >= 1.0


class TestOptimistic:
    def test_conservative_run_has_no_rollbacks(self):
        stats = OptimisticCosim(packet_count=50, lookahead=0,
                                mean_interarrival=200,
                                service_time=10).run()
        # With zero lookahead the SW engine never runs past a message
        # by more than one service; stragglers stay rare.
        assert stats.messages == 50
        assert stats.efficiency > 0.5

    def test_lookahead_causes_rollbacks(self):
        stats = OptimisticCosim(packet_count=50, lookahead=1000,
                                checkpoint_interval=50).run()
        assert stats.stragglers > 0
        assert stats.rollbacks > 0
        assert stats.wasted_units > 0

    def test_no_packets_lost_despite_rollback(self):
        cosim = OptimisticCosim(packet_count=120, lookahead=700,
                                checkpoint_interval=30)
        cosim.run()
        assert cosim.software.state.packets_processed == 120

    def test_rollback_restores_consistent_state(self):
        """The final checksum accumulator must match a rollback-free
        (conservative) execution of the same schedule."""
        def final_accumulator(lookahead):
            cosim = OptimisticCosim(packet_count=80, lookahead=lookahead,
                                    checkpoint_interval=40, seed=99)
            cosim.run()
            return cosim.software.state.checksum_accumulator

        assert final_accumulator(0) == final_accumulator(900)

    def test_efficiency_decreases_with_lookahead(self):
        effs = [OptimisticCosim(packet_count=60, lookahead=la,
                                checkpoint_interval=50).run().efficiency
                for la in (0, 400, 2000)]
        assert effs[0] >= effs[1] >= effs[2]

    def test_requires_state_restore(self):
        assert OptimisticCosim.requires_state_restore()


class TestSharedNetlist:
    """Both baselines elaborate the co-simulated run's netlist, so they
    generate the same packets at the same cycles — bursts included."""

    WORKLOAD = RouterWorkload(packets_per_producer=8, interval_cycles=2000,
                              burst_size=4, burst_gap_cycles=50, seed=1)

    def test_generation_schedules_match_the_cosim(self):
        from repro.cosim import CosimConfig
        from repro.router.testbench import build_router_cosim

        cosim = build_router_cosim(CosimConfig(t_sync=1000), self.WORKLOAD)
        cosim.run()
        expected = cosim.stats.generation_cycle
        assert len(expected) == self.WORKLOAD.total_packets
        # Within a burst, packets are burst_gap_cycles apart.
        cycles = sorted(set(expected.values()))
        assert any(b - a == 50 for a, b in zip(cycles, cycles[1:]))
        assert run_untimed(self.WORKLOAD).stats.generation_cycle == expected
        annotated = build_annotated_router(self.WORKLOAD)
        assert annotated.run().generation_cycle == expected
