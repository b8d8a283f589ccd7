"""The fuzz loop end to end: clean campaigns, the injected-bug
mutation check, shrinking and reproduction artifacts.

The mutation check is the acceptance criterion for the fuzzer: an
intentional off-by-one in window granting must be (a) caught by an
oracle, (b) shrunk, (c) emitted as a replayable ``repro-recording/1``
file whose replay reproduces the out-of-schedule grants.
"""

import json

from repro.cosim.session import CosimSession
from repro.difftest import (
    FuzzSpec,
    RunOutcome,
    fuzz,
    generate_spec,
    run_spec,
    scenario_backends,
)
from repro.difftest.oracles import check_outcome
from repro.replay import SessionRecording, find_divergence
from repro.router.testbench import replay_router_recording


class TestBackendSelection:
    def test_tcp_in_the_default_sweep(self):
        assert scenario_backends("router", None) == [
            "inproc", "rerun", "replay", "optimistic", "fmu", "tcp"]

    def test_tcp_included_when_requested(self):
        picked = scenario_backends("router", ["tcp"])
        assert "tcp" in picked
        # The reference backend is always kept: without it there is
        # nothing to diff against.
        assert picked[0] == "inproc"

    def test_unknown_names_dropped(self):
        assert scenario_backends("iss", ["bogus"]) == ["iss-default"]


class TestCleanCampaign:
    def test_all_scenarios_hold_on_main(self):
        report = fuzz(base_seed=42, runs=4)
        assert report.ok, report.describe()
        assert report.runs == 4
        assert set(report.scenario_counts) == {
            "router", "iss", "adaptive", "multiboard"}
        assert "all oracles held" in report.describe()

    def test_campaign_is_deterministic(self):
        a = fuzz(base_seed=9, runs=2, scenarios=["iss"])
        b = fuzz(base_seed=9, runs=2, scenarios=["iss"])
        assert a.ok and b.ok
        assert a.scenario_counts == b.scenario_counts
        assert a.backend_runs == b.backend_runs

    def test_run_spec_threads_recording_to_replay(self):
        spec = generate_spec(42, 0, scenarios=["router"])
        outcomes, mismatches = run_spec(spec)
        assert mismatches == []
        assert outcomes["inproc"].recording is not None
        assert outcomes["replay"].extra["divergence_clean"] is True


def _mutate_window_grants(monkeypatch):
    """Inject an off-by-one: every full window grants T_sync+1 ticks.

    The mutation is internally consistent — master and board both
    advance by the granted amount, so tick accounting still balances —
    which is exactly what makes it invisible to everything except the
    grant-schedule oracle.
    """
    original = CosimSession._window_ticks

    def mutated(self, max_cycles):
        ticks = original(self, max_cycles)
        if ticks == self.config.t_sync:
            ticks += 1
        return ticks

    monkeypatch.setattr(CosimSession, "_window_ticks", mutated)


class TestMutationCheck:
    def test_injected_off_by_one_is_caught_and_shrunk(
            self, monkeypatch, tmp_path):
        _mutate_window_grants(monkeypatch)
        report = fuzz(base_seed=42, runs=1, scenarios=["router"],
                      out_dir=str(tmp_path), max_failures=1)
        assert not report.ok, "the injected bug must be caught"
        failure = report.failures[0]
        oracles = {m.oracle for m in failure.mismatches}
        assert "grant-schedule" in oracles

        # Shrinking made the case smaller while preserving the bug.
        assert failure.shrink_steps
        assert failure.shrunk.max_cycles <= failure.spec.max_cycles

        # Reproduction artifacts: a runnable spec and a recording.
        assert failure.workload_path and failure.recording_path
        reloaded = FuzzSpec.load(failure.workload_path)
        assert reloaded == failure.shrunk
        assert any("repro fuzz --spec" in c
                   for c in failure.repro_commands)
        assert any("repro replay" in c for c in failure.repro_commands)

        # The shrunk spec still fails for the same reason.
        _outcomes, mismatches = run_spec(failure.shrunk)
        assert "grant-schedule" in {m.oracle for m in mismatches}

    def test_mutant_recording_replays_and_convicts(
            self, monkeypatch, tmp_path):
        _mutate_window_grants(monkeypatch)
        report = fuzz(base_seed=42, runs=1, scenarios=["router"],
                      backends=["inproc", "rerun"],
                      out_dir=str(tmp_path), max_failures=1,
                      shrink=False)
        assert not report.ok
        failure = report.failures[0]
        recording = SessionRecording.load(failure.recording_path)

        # Back on unmutated code: the recording replays bit-clean (it
        # faithfully captured the buggy run)...
        monkeypatch.undo()
        result = replay_router_recording(recording)
        assert result.clean
        assert find_divergence(recording, result).clean

        # ...and the grant-schedule oracle convicts the replayed trace
        # itself: the divergence is reproducible offline from the
        # artifact alone.
        rows = [r.as_row() for r in result.trace.records]
        outcome = RunOutcome(
            backend="replayed-mutant",
            windows=len(rows),
            master_cycles=rows[-1][2],
            board_ticks=rows[-1][3],
            trace_rows=rows,
        )
        found = check_outcome(failure.spec, outcome)
        assert "grant-schedule" in {m.oracle for m in found}


class TestFailureHandling:
    def test_crashing_backend_is_a_finding(self, monkeypatch):
        import repro.difftest.backends as backends_mod

        def boom(spec, backend):
            raise RuntimeError("backend exploded")

        monkeypatch.setattr(backends_mod, "_run_iss", boom)
        spec = generate_spec(1, 1, scenarios=["iss"])
        outcomes, mismatches = run_spec(spec)
        assert not outcomes["iss-default"].ok
        assert {m.oracle for m in mismatches} == {"backend-error"}
        assert "backend exploded" in mismatches[0].detail

    def test_max_failures_stops_campaign(self, monkeypatch, tmp_path):
        _mutate_window_grants(monkeypatch)
        report = fuzz(base_seed=42, runs=6, scenarios=["router"],
                      backends=["inproc", "rerun"], shrink=False,
                      max_failures=2, out_dir=str(tmp_path))
        assert len(report.failures) == 2
        assert report.runs < 6

    def test_workload_artifact_is_json(self, monkeypatch, tmp_path):
        _mutate_window_grants(monkeypatch)
        report = fuzz(base_seed=42, runs=1, scenarios=["router"],
                      backends=["inproc", "rerun"], shrink=False,
                      max_failures=1, out_dir=str(tmp_path))
        path = report.failures[0].workload_path
        with open(path, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        assert payload["scenario"] == "router"
        assert FuzzSpec.from_dict(payload).seed == payload["seed"]
