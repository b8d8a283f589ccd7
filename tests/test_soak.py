"""Bounded soak tests: longer runs exercising sustained operation.

Marked ``slow`` (deselected by default; run with ``pytest -m slow``).
All randomness is derived through :func:`repro.determinism.derive_seed`
so every run — locally, in CI, after a bisect — draws the identical
workload and fault plan.
"""

import pytest

from repro.cosim import CosimConfig
from repro.determinism import derive_seed, seeded_rng
from repro.router.testbench import RouterWorkload, build_router_cosim
from repro.transport import ResilienceConfig
from repro.transport.faults import FaultPlan
from repro.transport.messages import CLOCK_PORT, DATA_PORT, INT_PORT

pytestmark = pytest.mark.slow

#: One base seed; every stream below derives its own namespace from it.
BASE_SEED = 2025


class TestSoak:
    def test_long_router_run_conserves_every_packet(self):
        """400 packets across 100k cycles; full accounting at the end."""
        workload = RouterWorkload(
            packets_per_producer=100, interval_cycles=1000,
            payload_size=48, corrupt_rate=0.1, buffer_capacity=20,
            seed=derive_seed(BASE_SEED, "soak", "long-run"))
        cosim = build_router_cosim(CosimConfig(t_sync=2000), workload)
        metrics = cosim.run()
        stats = cosim.stats
        assert stats.generated == 400
        terminal = (stats.forwarded + stats.dropped_overflow
                    + stats.dropped_checksum + stats.dropped_unroutable)
        assert terminal == 400
        assert stats.dropped_checksum == stats.generated_corrupt
        assert stats.handled_fraction() == 1.0  # inside the knee
        assert metrics.board_ticks == metrics.master_cycles
        # Every delivery was routed correctly and arrived intact.
        assert sum(c.misrouted_count for c in cosim.consumers) == 0
        assert sum(c.invalid_count for c in cosim.consumers) == 0

    def test_sustained_overload_recovers(self):
        """Arrivals deliberately exceed what loose windows can absorb;
        drops happen, but the system keeps serving and accounting."""
        workload = RouterWorkload(
            packets_per_producer=60, interval_cycles=300,
            corrupt_rate=0.0, buffer_capacity=6,
            seed=derive_seed(BASE_SEED, "soak", "overload"))
        cosim = build_router_cosim(CosimConfig(t_sync=3000), workload)
        cosim.run()
        stats = cosim.stats
        assert stats.dropped_overflow > 0
        assert stats.forwarded > 0
        terminal = (stats.forwarded + stats.dropped_overflow
                    + stats.dropped_checksum + stats.dropped_unroutable)
        assert terminal == stats.generated

    def test_many_small_windows(self):
        """Thousands of exchanges in one session."""
        workload = RouterWorkload(
            packets_per_producer=10, interval_cycles=500,
            corrupt_rate=0.0,
            seed=derive_seed(BASE_SEED, "soak", "small-windows"))
        cosim = build_router_cosim(CosimConfig(t_sync=2), workload)
        metrics = cosim.run()
        assert metrics.sync_exchanges > 2000
        assert cosim.accuracy() == 1.0
        assert metrics.board_ticks == metrics.master_cycles

    def test_tcp_soak_with_seeded_random_disconnects(self):
        """A real TCP session under a randomized (but derived-seed)
        fault plan: connections are yanked at random windows and the
        virtual tick still never skews."""
        rng = seeded_rng(derive_seed(BASE_SEED, "soak", "tcp-faults"))
        windows, t_sync = 24, 40
        ports = [CLOCK_PORT, DATA_PORT, INT_PORT]
        plan = FaultPlan(
            disconnect_after_grants={
                seq: rng.choice(ports)
                for seq in rng.sample(range(2, windows - 1), 4)
            },
            delay_reports={rng.randrange(2, windows - 1): 0.05},
        )
        injected = dict(plan.disconnect_after_grants)
        resilience = ResilienceConfig(
            max_attempts=8, backoff_initial_s=0.005, backoff_max_s=0.05)
        config = CosimConfig(t_sync=t_sync, report_timeout_s=30.0,
                             resilience=resilience)
        workload = RouterWorkload(
            packets_per_producer=2, interval_cycles=80,
            corrupt_rate=0.0, payload_size=16,
            seed=derive_seed(BASE_SEED, "soak", "tcp-workload"))
        cosim = build_router_cosim(config, workload, mode="tcp",
                                   fault_plan=plan)
        metrics = cosim.run(max_cycles=windows * t_sync,
                            await_drain=False)
        assert plan.disconnects_injected == len(injected)
        assert metrics.board_ticks == metrics.master_cycles
        assert metrics.master_cycles == windows * t_sync
        assert metrics.reconnects > 0
        assert "reconnects=" in metrics.summary()
