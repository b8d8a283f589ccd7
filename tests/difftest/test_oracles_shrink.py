"""Unit tests for the oracle tiers and the greedy shrinker."""

import dataclasses

from repro.difftest.backends import RunOutcome
from repro.difftest.oracles import (
    Mismatch,
    check_outcome,
    check_pair,
    run_oracles,
)
from repro.difftest.shrink import shrink_candidates, shrink_spec
from repro.difftest.workload import generate_spec


def _spec(**overrides):
    spec = generate_spec(1, 0, scenarios=["router"])
    return dataclasses.replace(spec, **overrides) if overrides else spec


def _clean_outcome(t_sync=100, windows=3, **overrides):
    rows = [[i, t_sync, (i + 1) * t_sync, (i + 1) * t_sync, 0, 0]
            for i in range(windows)]
    fields = dict(
        backend="inproc", windows=windows,
        master_cycles=windows * t_sync, board_ticks=windows * t_sync,
        aligned=True, trace_rows=rows,
        stats={"generated": 6, "forwarded": 4, "dropped_overflow": 1,
               "dropped_checksum": 1, "dropped_unroutable": 0},
        digest="d" * 16,
    )
    fields.update(overrides)
    return RunOutcome(**fields)


class TestTier1:
    def test_clean_outcome_passes(self):
        assert check_outcome(_spec(t_sync=100), _clean_outcome()) == []

    def test_backend_error_short_circuits(self):
        outcome = RunOutcome(backend="tcp", ok=False, error="boom")
        found = check_outcome(_spec(), outcome)
        assert [m.oracle for m in found] == ["backend-error"]

    def test_tick_misalignment_caught(self):
        outcome = _clean_outcome(board_ticks=299, aligned=False)
        oracles = {m.oracle for m in check_outcome(_spec(t_sync=100),
                                                   outcome)}
        assert "tick-alignment" in oracles

    def test_row_level_misalignment_caught(self):
        outcome = _clean_outcome()
        outcome.trace_rows[1][3] += 1  # board_ticks != master_cycles
        oracles = {m.oracle for m in check_outcome(_spec(t_sync=100),
                                                   outcome)}
        assert "tick-alignment" in oracles

    def test_window_count_mismatch_caught(self):
        outcome = _clean_outcome()
        outcome.windows = 5  # metrics disagree with the 3-row trace
        oracles = {m.oracle for m in check_outcome(_spec(t_sync=100),
                                                   outcome)}
        assert "window-count" in oracles

    def test_grant_schedule_violation_caught(self):
        # An oversized non-final window: internally consistent but off
        # the fixed T_sync grant schedule.
        outcome = _clean_outcome()
        outcome.trace_rows[0][1] += 1
        for row in outcome.trace_rows:
            row[2] += 1
            row[3] += 1
        outcome.master_cycles += 1
        outcome.board_ticks += 1
        oracles = {m.oracle for m in check_outcome(_spec(t_sync=100),
                                                   outcome)}
        assert "grant-schedule" in oracles

    def test_adaptive_windows_exempt_from_grant_schedule(self):
        outcome = _clean_outcome(fixed_windows=False)
        outcome.trace_rows[0][1] += 1
        for row in outcome.trace_rows:
            row[2] += 1
            row[3] += 1
        outcome.master_cycles += 1
        outcome.board_ticks += 1
        oracles = {m.oracle for m in check_outcome(_spec(t_sync=100),
                                                   outcome)}
        assert "grant-schedule" not in oracles

    def test_stats_conservation_caught(self):
        outcome = _clean_outcome(
            stats={"generated": 2, "forwarded": 5, "dropped_overflow": 0,
                   "dropped_checksum": 0, "dropped_unroutable": 0})
        oracles = {m.oracle for m in check_outcome(_spec(t_sync=100),
                                                   outcome)}
        assert "stats-conservation" in oracles

    def test_negative_counter_caught(self):
        outcome = _clean_outcome(
            stats={"generated": 2, "forwarded": -1})
        oracles = {m.oracle for m in check_outcome(_spec(t_sync=100),
                                                   outcome)}
        assert "stats-conservation" in oracles

    def test_freeze_violation_caught(self):
        outcome = _clean_outcome(extra={"freeze_violations": [3]})
        oracles = {m.oracle for m in check_outcome(_spec(t_sync=100),
                                                   outcome)}
        assert "freeze-invariant" in oracles

    def test_adaptive_bounds_caught(self):
        outcome = _clean_outcome(
            fixed_windows=False,
            extra={"window_sizes": [50, 5, 120], "policy_min": 10,
                   "policy_max": 100})
        oracles = {m.oracle for m in check_outcome(_spec(t_sync=100),
                                                   outcome)}
        assert "adaptive-bounds" in oracles

    def test_replay_divergence_caught(self):
        outcome = _clean_outcome(
            extra={"divergence_clean": False, "divergence": "window 2"})
        oracles = {m.oracle for m in check_outcome(_spec(t_sync=100),
                                                   outcome)}
        assert "replay-divergence" in oracles

    def test_checksum_value_caught(self):
        outcome = _clean_outcome(
            extra={"csum": 0x1234, "expected_csum": 0x4321})
        oracles = {m.oracle for m in check_outcome(_spec(t_sync=100),
                                                   outcome)}
        assert "checksum-value" in oracles


class TestTier2And3:
    def test_deterministic_digest_mismatch(self):
        ref = _clean_outcome()
        other = _clean_outcome(backend="rerun", digest="e" * 16)
        oracles = {m.oracle for m in check_pair(_spec(), ref, other)}
        assert "determinism" in oracles

    def test_deterministic_trace_mismatch_names_window(self):
        ref = _clean_outcome()
        other = _clean_outcome(backend="replay")
        other.trace_rows[1][4] += 1
        found = check_pair(_spec(), ref, other)
        diverging = [m for m in found if m.oracle == "trace-equivalence"]
        assert diverging and "window 1" in diverging[0].detail

    def test_iss_cycles_compared_under_one_timing_model(self):
        def iss(backend, cycles, timing):
            return RunOutcome(backend=backend, digest="d" * 16, extra={
                "instructions": 40, "cycles": cycles, "timing": timing})

        ref = iss("iss-default", 90, "default")
        found = check_pair(_spec(), ref, iss("iss-chunked", 91, "default"))
        assert [m.oracle for m in found] == ["iss-cycles"]
        assert check_pair(_spec(), ref, iss("iss-unit", 40, "unit")) == []

    def test_failed_run_is_not_compared(self):
        ref = _clean_outcome()
        other = RunOutcome(backend="tcp", ok=False, error="boom")
        # Its crash is a tier-1 finding, not a digest mismatch.
        assert check_pair(_spec(), ref, other) == []

    def test_run_oracles_picks_first_successful_reference(self):
        outcomes = {
            "inproc": RunOutcome(backend="inproc", ok=False, error="boom"),
            "rerun": _clean_outcome(backend="rerun"),
            "tcp": _clean_outcome(backend="tcp", digest="e" * 16),
        }
        found = run_oracles(_spec(t_sync=100), outcomes)
        assert [m.backend for m in found
                if m.oracle == "determinism"] == ["rerun vs tcp"]

    def test_mismatch_renders_oracle_and_backend(self):
        text = str(Mismatch("tick-alignment", "tcp", "off by 3"))
        assert "tick-alignment" in text and "tcp" in text


class TestShrinker:
    def test_candidates_stay_valid_specs(self):
        spec = generate_spec(42, 0, scenarios=["router"])
        spec.drop_interrupts = [2, 5]
        for _label, candidate in shrink_candidates(spec):
            assert candidate.scenario == spec.scenario
            assert candidate.max_cycles >= 2 * candidate.t_sync
            assert candidate.packets_per_producer >= 1

    def test_shrinks_packets_to_threshold(self):
        spec = _spec(packets_per_producer=5, max_cycles=2000, t_sync=100)

        def still_fails(candidate):
            return candidate.packets_per_producer >= 2

        shrunk, applied = shrink_spec(spec, still_fails)
        # Greedy halving lands on the smallest still-failing count.
        assert shrunk.packets_per_producer == 2
        assert applied

    def test_prunes_fault_plan_entries(self):
        spec = _spec(drop_interrupts=[2, 4])

        def still_fails(candidate):
            return 2 in candidate.drop_interrupts

        shrunk, _applied = shrink_spec(spec, still_fails)
        assert shrunk.drop_interrupts == [2]

    def test_never_returns_passing_spec(self):
        spec = _spec(packets_per_producer=4)
        calls = []

        def still_fails(candidate):
            calls.append(candidate)
            return candidate.packets_per_producer >= 2

        shrunk, _applied = shrink_spec(spec, still_fails)
        assert still_fails(shrunk)

    def test_max_steps_bounds_work(self):
        spec = _spec(packets_per_producer=5, max_cycles=3000)
        calls = []

        def still_fails(candidate):
            calls.append(candidate)
            return True

        shrink_spec(spec, still_fails, max_steps=5)
        assert len(calls) <= 6

    def test_iss_fragments_shrink(self):
        spec = generate_spec(1, 1, scenarios=["iss"])
        spec.fragments = 8

        def still_fails(candidate):
            return candidate.fragments >= 2

        shrunk, _applied = shrink_spec(spec, still_fails)
        assert shrunk.fragments == 2
