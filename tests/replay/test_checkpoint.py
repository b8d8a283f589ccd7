"""Checkpoint capture, serialization and restore-by-re-execution."""

import json

import pytest

from repro.cosim import CosimConfig, ProtocolTrace
from repro.replay import (
    Checkpoint,
    CheckpointDivergence,
    Checkpointer,
    SnapshotError,
    capture_checkpoint,
    restore_session,
    verify_against,
)
from repro.router.testbench import (
    RouterWorkload,
    build_router_cosim,
    router_run_from_meta,
    router_run_meta,
)

T_SYNC = 300
WORKLOAD = dict(packets_per_producer=5, interval_cycles=300,
                corrupt_rate=0.2, seed=11)


def build(t_sync=T_SYNC, **workload_kwargs):
    defaults = dict(WORKLOAD)
    defaults.update(workload_kwargs)
    config = CosimConfig(t_sync=t_sync)
    workload = RouterWorkload(**defaults)
    cosim = build_router_cosim(config, workload, mode="inproc")
    trace = ProtocolTrace()
    cosim.session.attach_trace(trace)
    return cosim, trace, config, workload


class TestCapture:
    def test_periodic_capture_at_window_boundaries(self):
        cosim, _trace, config, workload = build()
        checkpointer = Checkpointer(
            every=2, meta=router_run_meta(config, workload))
        cosim.session.attach_checkpointer(checkpointer)
        metrics = cosim.run()
        assert checkpointer.checkpoints, "expected at least one capture"
        assert [c.window for c in checkpointer.checkpoints] == \
            [2 * (i + 1) for i in range(len(checkpointer.checkpoints))]
        assert metrics.checkpoints_taken == len(checkpointer.checkpoints)
        latest = checkpointer.latest
        assert latest.meta["scenario"] == "router"
        assert latest.master_cycles == latest.window * T_SYNC
        # State tree covers every layer of the stack.
        assert set(latest.state) == {"master", "boards", "extra"}
        assert "sim" in latest.state["master"]
        [board] = latest.state["boards"].values()
        assert set(board) == {"runtime", "link"}
        assert "board" in board["runtime"]
        assert "workload_stats" in latest.state["extra"]

    def test_checkpoint_save_load_verifies_digest(self, tmp_path):
        cosim, _trace, config, workload = build()
        checkpointer = Checkpointer(every=2, directory=str(tmp_path))
        cosim.session.attach_checkpointer(checkpointer)
        cosim.run()
        path = checkpointer.paths[0]
        loaded = Checkpoint.load(path)
        assert loaded.digest == checkpointer.checkpoints[0].digest
        assert loaded.state == checkpointer.checkpoints[0].state

    def test_tampered_checkpoint_file_is_rejected(self, tmp_path):
        cosim, _trace, config, workload = build()
        checkpointer = Checkpointer(every=2, directory=str(tmp_path))
        cosim.session.attach_checkpointer(checkpointer)
        cosim.run()
        path = checkpointer.paths[0]
        with open(path) as handle:
            payload = json.load(handle)
        payload["window"] += 1  # digest no longer matches? state same —
        # window is outside the digest, but flipping state must fail:
        Checkpoint.from_dict(payload)  # window alone is permitted
        payload["state"]["master"]["interrupts_sent"] = 999
        with pytest.raises(SnapshotError, match="digest"):
            Checkpoint.from_dict(payload)

    def test_interval_must_be_positive(self):
        with pytest.raises(SnapshotError):
            Checkpointer(every=0)


class TestRestore:
    def test_restore_and_resume_matches_uninterrupted_run(self):
        # Reference: one uninterrupted run.
        ref, ref_trace, _config, _workload = build()
        ref_metrics = ref.run()
        ref_rows = [r.as_row() for r in ref_trace.records]

        # Checkpointed run.
        first, _trace, config, workload = build()
        checkpointer = Checkpointer(
            every=2, meta=router_run_meta(config, workload))
        first.session.attach_checkpointer(checkpointer)
        first.run()
        checkpoint = checkpointer.checkpoints[0]

        # Fresh session, fast-forward, verified restore, resume.
        resumed, resumed_trace, _c, _w = build()
        restore_session(resumed.session, checkpoint)
        assert resumed.session.windows_completed == checkpoint.window
        metrics = resumed.run()
        assert [r.as_row() for r in resumed_trace.records] == ref_rows
        assert metrics.master_cycles == ref_metrics.master_cycles
        assert metrics.board_ticks == ref_metrics.board_ticks
        assert metrics.restores == 1
        assert metrics.windows_replayed == checkpoint.window
        assert resumed.stats.snapshot() == ref.stats.snapshot()

    def test_restore_via_file_round_trip(self, tmp_path):
        ref, ref_trace, _config, _workload = build()
        ref.run()
        ref_rows = [r.as_row() for r in ref_trace.records]

        first, _trace, config, workload = build()
        checkpointer = Checkpointer(
            every=3, directory=str(tmp_path),
            meta=router_run_meta(config, workload))
        first.session.attach_checkpointer(checkpointer)
        first.run()

        checkpoint = Checkpoint.load(checkpointer.paths[0])
        # The checkpoint's meta alone is enough to rebuild the session.
        rebuilt_config, rebuilt_workload, _iss = router_run_from_meta(
            checkpoint.meta)
        cosim = build_router_cosim(rebuilt_config, rebuilt_workload,
                                   mode="inproc")
        trace = ProtocolTrace()
        cosim.session.attach_trace(trace)
        restore_session(cosim.session, checkpoint)
        cosim.run()
        assert [r.as_row() for r in trace.records] == ref_rows

    def test_restore_rejects_used_session(self):
        first, _trace, config, workload = build()
        checkpointer = Checkpointer(every=2)
        first.session.attach_checkpointer(checkpointer)
        first.run()
        with pytest.raises(SnapshotError, match="fresh"):
            restore_session(first.session, checkpointer.checkpoints[0])

    def test_divergent_reexecution_is_detected(self):
        first, _trace, config, workload = build()
        checkpointer = Checkpointer(every=2)
        first.session.attach_checkpointer(checkpointer)
        first.run()
        checkpoint = checkpointer.checkpoints[0]
        # Rebuild with a different seed: re-execution cannot reproduce
        # the checkpointed state and must say so, leaf by leaf.
        other, _t, _c, _w = build(seed=1234)
        with pytest.raises(CheckpointDivergence) as excinfo:
            restore_session(other.session, checkpoint)
        assert excinfo.value.window == checkpoint.window
        assert excinfo.value.diffs

    def test_verify_against_returns_diffs_when_not_strict(self):
        first, _trace, config, workload = build()
        checkpointer = Checkpointer(every=2)
        first.session.attach_checkpointer(checkpointer)
        first.run()
        checkpoint = checkpointer.checkpoints[0]
        other, _t, _c, _w = build(seed=1234)
        other.session.run(max_windows=checkpoint.window)
        diffs = verify_against(other.session, checkpoint, strict=False)
        assert diffs, "different seed must yield a non-empty diff"


class TestSessionSnapshotApi:
    def test_capture_requires_window_boundary_state(self):
        cosim, _trace, _config, _workload = build()
        cosim.run()
        checkpoint = capture_checkpoint(cosim.session, meta={"k": "v"})
        assert checkpoint.meta["k"] == "v"
        assert checkpoint.window == cosim.session.windows_completed

    def test_register_snapshotable_rejects_bad_objects(self):
        from repro.errors import ReproError

        cosim, _trace, _config, _workload = build()
        with pytest.raises(ReproError):
            cosim.session.register_snapshotable("bad", object())
        with pytest.raises(ReproError):
            cosim.session.register_snapshotable("workload_stats",
                                                cosim.stats)


class TestOptimisticCheckpoints:
    """Checkpoint/restore across optimistic speculation (ROADMAP 3).

    Periodic checkpoints land on committed *speculative* boundaries:
    the live board has already run ahead, so the checkpointer reads the
    session's composed boundary state.  Those checkpoints must still
    digest-verify on restore-by-re-execution — the re-executed fresh
    session re-speculates but commits the very same boundaries.
    """

    def _build(self, depth):
        config = CosimConfig(t_sync=400, speculation_depth=depth)
        workload = RouterWorkload(packets_per_producer=3,
                                  interval_cycles=1200,
                                  corrupt_rate=0.0, seed=11)
        cosim = build_router_cosim(config, workload, mode="inproc")
        trace = ProtocolTrace()
        cosim.session.attach_trace(trace)
        return cosim, trace, config, workload

    def test_disk_checkpoints_mid_speculation_verify_and_resume(
            self, tmp_path):
        budget = 12_000
        # Uninterrupted reference run.
        ref, ref_trace, _config, _workload = self._build(depth=3)
        ref_metrics = ref.run(max_cycles=budget, await_drain=False)
        assert ref_metrics.windows_speculated > 0
        ref_rows = [r.as_row() for r in ref_trace.records]

        # Same run, checkpointed to disk every third window.
        first, _trace, config, workload = self._build(depth=3)
        checkpointer = Checkpointer(
            every=3, directory=str(tmp_path),
            meta=router_run_meta(config, workload))
        first.session.attach_checkpointer(checkpointer)
        first.run(max_cycles=budget, await_drain=False)
        assert checkpointer.paths, "expected on-disk checkpoints"

        # Restore from the file (strict: every leaf digest-verified
        # against the re-executed, re-speculated fresh session), then
        # resume to the end of the budget.
        checkpoint = Checkpoint.load(checkpointer.paths[1])
        resumed, resumed_trace, _c, _w = self._build(depth=3)
        restore_session(resumed.session, checkpoint)
        assert resumed.session.windows_completed == checkpoint.window
        metrics = resumed.run(max_cycles=budget, await_drain=False)
        assert metrics.restores == 1
        assert [r.as_row() for r in resumed_trace.records] == ref_rows
        assert metrics.master_cycles == ref_metrics.master_cycles
        assert metrics.board_ticks == ref_metrics.board_ticks
        assert resumed.stats.snapshot() == ref.stats.snapshot()
