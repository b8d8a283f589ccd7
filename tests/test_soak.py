"""Bounded soak tests: longer runs exercising sustained operation.

Marked ``slow`` (deselected by default; run with ``pytest -m slow``).
All randomness is derived through :func:`repro.determinism.derive_seed`
so every run — locally, in CI, after a bisect — draws the identical
workload.
"""

import pytest

from repro.cosim import CosimConfig
from repro.determinism import derive_seed
from repro.router.testbench import RouterWorkload, build_router_cosim

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
