"""Protocol model checker (PROTO001-PROTO005).

Two halves: the shipped transition tables must pass every bounded
configuration exhaustively, and seeded table defects must be convicted
by the *right* rule — a model checker that merely stays quiet on good
input is untested.
"""

import pytest

from repro.cosim.protocol import (
    BOARD_WINDOW_TABLE,
    MASTER_WINDOW_TABLE,
)
from repro.staticcheck import LintReport, ModelConfig, explore
from repro.staticcheck.model import table_inconsistencies
from repro.staticcheck.protocol_rules import (
    DEFAULT_CONFIGS,
    check_protocol_model,
    summarize_exploration,
)


def rules(report):
    return sorted({d.rule for d in report.diagnostics})


class TestShippedTables:
    @pytest.mark.parametrize("config", DEFAULT_CONFIGS,
                             ids=[c.name for c in DEFAULT_CONFIGS])
    def test_bounded_configs_are_exhaustive_and_clean(self, config):
        result = explore(config)
        assert result.complete, "exploration must be exhaustive"
        assert result.violations == []
        assert result.ok
        # The final configuration (everything shut down, channels
        # drained) must actually be reachable, not vacuously absent.
        assert result.final_states > 0
        assert result.states > result.final_states

    def test_speculative_config_reaches_speculative_states(self):
        plain, *_rest, speculative = DEFAULT_CONFIGS
        assert speculative.speculation_depth == 2
        result = explore(speculative)
        assert result.ok
        # Speculation opens strictly more interleavings: the same
        # windows can also be granted ahead and caught up on.
        assert result.states > explore(plain).states
        # The deepest speculation the config admits must actually be
        # explored, not vacuously absent: force a depth-2 prefix and
        # confirm it is a legal run of the shipped tables.
        from repro.staticcheck.model import _Explorer  # self-test hook
        explorer = _Explorer(speculative, dict(MASTER_WINDOW_TABLE),
                             dict(BOARD_WINDOW_TABLE), "idle", "frozen")
        state = __import__(
            "repro.staticcheck.model", fromlist=["_initial_state"]
        )._initial_state(speculative, "idle", "frozen")
        for wanted in ("master.spec_grant(seq=1)",
                       "master.spec_grant(seq=2)"):
            for label, nxt, violation in explorer.successors(state):
                if label == wanted:
                    assert violation is None
                    state = nxt
                    break
            else:
                raise AssertionError(f"{wanted} not enabled")
        (_phase, granted, _irqs, spec, _stashed) = state[0]
        assert granted == 2 and spec == 2

    def test_lint_pass_is_clean(self):
        report = LintReport()
        check_protocol_model(report)
        assert report.errors == []
        assert report.warnings == []
        assert report.targets == ["protocol"]
        # Coverage is reported, not silent: one PROTO000 info per
        # config, each carrying the explored state count.
        infos = [d for d in report.diagnostics if d.rule == "PROTO000"]
        assert len(infos) == len(DEFAULT_CONFIGS)
        assert any("1-board-speculative" in d.message for d in infos)
        assert all("states explored" in d.message for d in infos)

    def test_summary_covers_every_default_config(self):
        summary = summarize_exploration()
        for config in DEFAULT_CONFIGS:
            assert config.name in summary
        assert "ok" in summary


class TestSeededDefects:
    """Each classic protocol bug must be convicted by its rule ID."""

    def test_dropped_report_transition_deadlocks(self):
        # Board never leaves 'reporting': the master waits for a report
        # that cannot be sent -> PROTO001 (plus PROTO005 for the now
        # trapped state).
        table = dict(BOARD_WINDOW_TABLE)
        del table[("reporting", "send_report")]
        report = LintReport()
        check_protocol_model(report, board_table=table)
        assert "PROTO001" in rules(report)
        deadlocks = [d for d in report.diagnostics if d.rule == "PROTO001"]
        assert any("reporting" in d.message for d in deadlocks)
        # The counterexample trace names concrete protocol steps.
        assert any("send_grant" in d.message for d in deadlocks)

    def test_dropped_grant_reception_loses_the_wakeup(self):
        # Board cannot consume grants: the grant sits undeliverable in
        # the clock channel -> lost wake-up, not a silent deadlock.
        table = dict(BOARD_WINDOW_TABLE)
        del table[("frozen", "recv_grant")]
        report = LintReport()
        check_protocol_model(report, board_table=table)
        assert "PROTO002" in rules(report)
        lost = [d for d in report.diagnostics if d.rule == "PROTO002"]
        assert any("G(" in d.message for d in lost)

    def test_grant_overtaking_its_interrupts_is_convicted(self,
                                                          monkeypatch):
        # Remove the interrupt fence: a board may take a grant before
        # the IRQs the master raised ahead of it, and start the window
        # without them (PROTO004).
        from repro.staticcheck.model import _Explorer  # self-test hook

        config = ModelConfig(name="no-fence", boards=1, windows=2)
        assert explore(config).ok
        monkeypatch.setattr(_Explorer, "_fence_met",
                            staticmethod(lambda read, fence: True))
        result = explore(config)
        assert any(v.kind == "sequence" and "IRQs sent before it"
                   in v.message for v in result.violations)
        report = LintReport()
        check_protocol_model(report, configs=[config])
        assert "PROTO004" in rules(report)

    def test_renamed_event_is_a_table_inconsistency(self):
        table = dict(MASTER_WINDOW_TABLE)
        table[("idle", "send_gront")] = table.pop(("idle", "send_grant"))
        report = LintReport()
        check_protocol_model(report, master_table=table)
        assert "PROTO005" in rules(report)
        assert any("send_gront" in d.message for d in report.diagnostics
                   if d.rule == "PROTO005")

    def test_unreachable_state_is_a_table_inconsistency(self):
        table = dict(MASTER_WINDOW_TABLE)
        table[("limbo", "send_grant")] = "simulating"
        problems = table_inconsistencies(
            table, "idle", ("idle", "closed"),
            frozenset(e for (_s, e) in table), "master")
        assert any("unreachable" in p for p in problems)

    def test_exploration_bound_reports_incomplete(self):
        config = ModelConfig(name="tiny-bound", boards=2, windows=2,
                             max_states=50)
        result = explore(config)
        assert not result.complete
        report = LintReport()
        check_protocol_model(report, configs=[config])
        assert rules(report) == ["PROTO005"]
        assert any("not exhaustive" in d.message
                   for d in report.diagnostics)


class TestTraces:
    def test_counterexample_trace_is_bounded_and_ordered(self):
        table = dict(BOARD_WINDOW_TABLE)
        del table[("reporting", "send_report")]
        result = explore(ModelConfig(name="trace", windows=1),
                         board_table=table)
        deadlocks = [v for v in result.violations if v.kind == "deadlock"]
        assert deadlocks
        trace = deadlocks[0].trace
        # BFS parent chains give shortest counterexamples; the first
        # step of any run is the first grant.
        assert trace[0].startswith("master.send_grant")
        rendered = deadlocks[0].render_trace(limit=3)
        assert "->" in rendered
        assert rendered.count("->") <= 3
