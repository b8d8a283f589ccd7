"""Runtime lock-order sanitizer (repro.staticcheck.sanitizer)."""

import threading

import pytest

from repro.cosim import CosimConfig
from repro.router.testbench import RouterWorkload, build_router_cosim
from repro.staticcheck import (
    SANITIZER,
    LockOrderSanitizer,
    LockOrderViolation,
)
from repro.staticcheck.sanitizer import enabled, holding


class TestDisabled:
    def test_holding_is_a_noop_when_inactive(self):
        san = LockOrderSanitizer()
        assert not san.active
        with san.holding("anything"):
            pass
        assert san.observations == []
        # Nothing was pushed on the thread-local stack either.
        assert getattr(san._tls, "stack", None) is None

    def test_module_singleton_starts_disabled(self):
        assert SANITIZER.active is False


class TestEnforcement:
    def test_canonical_order_is_accepted(self):
        san = LockOrderSanitizer()
        with san.enabled(order=["a", "b", "c"]):
            with san.holding("a"):
                with san.holding("b"):
                    with san.holding("c"):
                        pass
        assert not san.active
        assert len(san.observations) == 3

    def test_inversion_raises_with_both_names(self):
        san = LockOrderSanitizer()
        with san.enabled(order=["a", "b"]):
            with san.holding("b"):
                with pytest.raises(LockOrderViolation) as exc:
                    with san.holding("a"):
                        pass
        message = str(exc.value)
        assert "'a'" in message and "'b'" in message

    def test_distinct_unknowns_share_a_rank_and_conflict(self):
        # Unknown locks all rank last; two *different* unknowns nested
        # have no defined order, so the bracket refuses them.  The same
        # name re-entered (re-entrant bracket) stays legal.
        san = LockOrderSanitizer()
        with san.enabled(order=["a"]):
            with san.holding("unknown-1"):
                with san.holding("unknown-1"):
                    pass
                with pytest.raises(LockOrderViolation):
                    with san.holding("unknown-2"):
                        pass

    def test_unknown_names_rank_after_static_locks(self):
        san = LockOrderSanitizer()
        with san.enabled(order=["a"]):
            with san.holding("a"):
                with san.holding("dynamic"):
                    pass  # unknown after known: fine

    def test_stacks_are_per_thread(self):
        san = LockOrderSanitizer()
        errors = []

        def worker():
            try:
                with san.holding("b"):
                    pass
            except LockOrderViolation as exc:  # pragma: no cover
                errors.append(exc)

        with san.enabled(order=["a", "b"]):
            with san.holding("b"):
                # Another thread holding nothing may acquire 'b' even
                # while this thread is inside it.
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        assert errors == []

    def test_observation_buffer_is_bounded(self):
        san = LockOrderSanitizer()
        san.max_observations = 5
        with san.enabled(order=["a"]):
            for _ in range(20):
                with san.holding("a"):
                    pass
        assert len(san.observations) == 5


class TestIntegration:
    def test_enabled_computes_the_static_order_by_default(self):
        with enabled() as san:
            assert san.rank, "canonical order should not be empty"
            assert all(":" in name for name in san.rank)

    def test_threaded_session_runs_green_under_sanitizer(self):
        workload = RouterWorkload(packets_per_producer=2,
                                  interval_cycles=150, payload_size=16,
                                  corrupt_rate=0.0, seed=3)
        cosim = build_router_cosim(CosimConfig(t_sync=100), workload,
                                   mode="tcp")
        with enabled():
            with holding("tests:outer-bracket"):
                metrics = cosim.run()
        assert metrics.board_ticks == metrics.master_cycles
        assert not SANITIZER.active
