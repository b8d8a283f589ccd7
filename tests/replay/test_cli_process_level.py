"""Process-level acceptance: the CLI record/replay/checkpoint flows.

These run the actual console entry points in subprocesses, proving the
determinism guarantees hold across process boundaries — a checkpoint
written by one process restores bit-exactly in a fresh one, and a
recording replayed in a fresh process reproduces the live trace CSV
byte for byte.
"""

import os
import pathlib
import subprocess
import sys

REPO_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

RUN_ARGS = ["--t-sync", "300", "--packets", "16", "--interval", "300",
            "--seed", "11"]


def repro_cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=str(cwd), env=env, capture_output=True, text=True,
        timeout=180,
    )
    return result


class TestRecordReplayAcrossProcesses:
    def test_replayed_trace_csv_is_byte_identical(self, tmp_path):
        record = repro_cli("record", "run.json", *RUN_ARGS,
                           "--trace", "live.csv", cwd=tmp_path)
        assert record.returncode == 0, record.stderr
        assert "recorded" in record.stdout

        replay = repro_cli("replay", "run.json",
                           "--trace", "replayed.csv", cwd=tmp_path)
        assert replay.returncode == 0, replay.stderr
        assert "bit-identical" in replay.stdout
        live = (tmp_path / "live.csv").read_bytes()
        replayed = (tmp_path / "replayed.csv").read_bytes()
        assert live == replayed

    def test_bisect_pinpoints_tampered_recording(self, tmp_path):
        import json

        record = repro_cli("record", "run.json", *RUN_ARGS, cwd=tmp_path)
        assert record.returncode == 0, record.stderr
        payload = json.loads((tmp_path / "run.json").read_text())
        # Corrupt a recorded report tick count.
        payload["boards"]["board"][1]["report"][1] += 1
        (tmp_path / "run.json").write_text(json.dumps(payload))

        replay = repro_cli("replay", "run.json", "--bisect", cwd=tmp_path)
        assert replay.returncode == 1
        assert "first divergent window" in replay.stdout


class TestCheckpointResumeAcrossProcesses:
    def test_resumed_run_trace_matches_uninterrupted_run(self, tmp_path):
        full = repro_cli("checkpoint", "--every", "1", "--dir", "cks",
                         *RUN_ARGS, "--trace", "full.csv", cwd=tmp_path)
        assert full.returncode == 0, full.stderr
        checkpoints = sorted((tmp_path / "cks").glob("checkpoint-*.json"))
        assert len(checkpoints) >= 2

        # Resume from a mid-run checkpoint in a brand-new process; the
        # workload knobs come from the checkpoint's meta, not the CLI.
        resume = repro_cli("checkpoint", "--resume",
                           str(checkpoints[1]), "--every", "1",
                           "--dir", "cks2", "--trace", "resumed.csv",
                           cwd=tmp_path)
        assert resume.returncode == 0, resume.stderr
        assert "restored window 2" in resume.stdout
        assert (tmp_path / "full.csv").read_bytes() == \
            (tmp_path / "resumed.csv").read_bytes()

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        (tmp_path / "fake.json").write_text("{}")
        resume = repro_cli("checkpoint", "--resume", "fake.json",
                           cwd=tmp_path)
        assert resume.returncode != 0
