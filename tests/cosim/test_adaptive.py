"""Tests for adaptive synchronization (reactive windows + controller)."""

import pytest

from repro.cosim import AdaptiveController, AdaptivePolicy, CosimConfig
from repro.errors import ProtocolError
from repro.router.testbench import RouterWorkload, build_router_cosim


def bursty_workload(**overrides):
    defaults = dict(packets_per_producer=10, interval_cycles=200,
                    burst_size=5, burst_gap_cycles=10_000,
                    corrupt_rate=0.0, buffer_capacity=10, seed=13)
    defaults.update(overrides)
    return RouterWorkload(**defaults)


def adaptive_policy(**overrides):
    defaults = dict(min_t_sync=200, max_t_sync=8000, initial_t_sync=1000)
    defaults.update(overrides)
    return AdaptivePolicy(**defaults)


class TestController:
    def test_reset_on_activity(self):
        controller = AdaptiveController(adaptive_policy())
        controller.next_window()
        controller.feedback(active=True)
        assert controller.t_sync == 200
        assert controller.shrinks == 1

    def test_geometric_shrink_mode(self):
        controller = AdaptiveController(
            adaptive_policy(reset_on_activity=False, shrink_divisor=4)
        )
        controller.feedback(active=True)
        assert controller.t_sync == 250

    def test_growth_requires_patience(self):
        controller = AdaptiveController(adaptive_policy(patience=3))
        controller.feedback(active=False)
        controller.feedback(active=False)
        assert controller.t_sync == 1000
        controller.feedback(active=False)
        assert controller.t_sync == 2000
        assert controller.grows == 1

    def test_growth_capped_at_max(self):
        controller = AdaptiveController(adaptive_policy(patience=1))
        for _ in range(20):
            controller.feedback(active=False)
        assert controller.t_sync == 8000

    def test_activity_resets_patience(self):
        controller = AdaptiveController(adaptive_policy(patience=2))
        controller.feedback(active=False)
        controller.feedback(active=True)
        controller.feedback(active=False)
        assert controller.t_sync == 200  # growth streak restarted

    def test_trace_and_mean(self):
        controller = AdaptiveController(adaptive_policy())
        assert controller.mean_window == 1000
        controller.next_window()
        controller.feedback(active=True)
        controller.next_window()
        assert controller.trace == [1000, 200]
        assert controller.mean_window == 600

    @pytest.mark.parametrize("kwargs", [
        dict(min_t_sync=0),
        dict(min_t_sync=2000, initial_t_sync=1000),
        dict(max_t_sync=500, initial_t_sync=1000),
        dict(shrink_divisor=1),
        dict(grow_factor=1),
        dict(patience=0),
    ])
    def test_policy_validation(self, kwargs):
        with pytest.raises(ProtocolError):
            adaptive_policy(**kwargs)


class TestAdaptiveSession:
    def test_protocol_invariants_hold(self):
        cosim = build_router_cosim(CosimConfig(t_sync=1000),
                                   bursty_workload(),
                                   adaptive=adaptive_policy())
        metrics = cosim.run()
        assert metrics.board_ticks == metrics.master_cycles
        assert cosim.master.protocol.exchanges == metrics.sync_exchanges

    def test_matches_tight_accuracy_on_bursts(self):
        workload = bursty_workload()
        adaptive = build_router_cosim(CosimConfig(t_sync=1000), workload,
                                      adaptive=adaptive_policy())
        adaptive_metrics = adaptive.run()
        loose = build_router_cosim(CosimConfig(t_sync=8000), workload)
        loose.run()
        assert adaptive.accuracy() == 1.0
        assert loose.accuracy() < 1.0
        # ... with far fewer exchanges than a tight static setting.
        tight = build_router_cosim(CosimConfig(t_sync=200), workload)
        tight_metrics = tight.run()
        assert adaptive_metrics.sync_exchanges < \
            tight_metrics.sync_exchanges / 2

    def test_window_size_varies(self):
        cosim = build_router_cosim(CosimConfig(t_sync=1000),
                                   bursty_workload(),
                                   adaptive=adaptive_policy())
        cosim.run()
        trace = cosim.session.controller.trace
        assert min(trace) == 200
        assert max(trace) > 1000

    def test_deterministic(self):
        outcomes = []
        for _ in range(2):
            cosim = build_router_cosim(CosimConfig(t_sync=1000),
                                       bursty_workload(),
                                       adaptive=adaptive_policy())
            metrics = cosim.run()
            outcomes.append((metrics.sync_exchanges, metrics.master_cycles,
                             tuple(cosim.session.controller.trace)))
        assert outcomes[0] == outcomes[1]

    def test_steady_traffic_behaves_like_tight_sync(self):
        """With continuous arrivals the controller pins near min."""
        workload = RouterWorkload(packets_per_producer=10,
                                  interval_cycles=300, corrupt_rate=0.0)
        cosim = build_router_cosim(CosimConfig(t_sync=1000), workload,
                                   adaptive=adaptive_policy())
        cosim.run()
        assert cosim.accuracy() == 1.0
        controller = cosim.session.controller
        assert controller.mean_window < 2000


class TestHandWiredController:
    """A controller set by hand on a speculating session, past
    attach_adaptive, is refused by run() before window 0."""

    def test_refused_before_window_zero(self):
        cosim = build_router_cosim(
            CosimConfig(speculation_depth=2),
            RouterWorkload(packets_per_producer=3, interval_cycles=20_000))
        cosim.session.controller = AdaptiveController(AdaptivePolicy())
        with pytest.raises(ProtocolError, match="adaptive"):
            cosim.run(max_cycles=100_000, await_drain=False)
        assert cosim.master.clock.cycles == 0
        assert cosim.session.windows_completed == 0
