"""Malformed recordings and checkpoints get one-line errors, not tracebacks.

``repro replay`` and ``repro checkpoint --resume`` validate the whole
document before trusting any field, and exit 2 with a single stderr
line on a schema error, an unreadable file or bad JSON.
"""

import copy
import json

import pytest

from repro.cli import main
from repro.cosim import CosimConfig
from repro.replay import Checkpoint, SessionRecording, SnapshotError
from repro.router.testbench import (
    RouterWorkload,
    build_router_cosim,
    finalize_router_recording,
)

CHECKPOINT_ARGS = ["--t-sync", "300", "--packets", "8", "--interval", "300",
                   "--seed", "11", "--every", "1"]


@pytest.fixture
def recording_doc():
    recording = SessionRecording()
    cosim = build_router_cosim(
        CosimConfig(t_sync=300),
        RouterWorkload(packets_per_producer=2, interval_cycles=300,
                       seed=11),
        recorder=recording)
    metrics = cosim.run()
    finalize_router_recording(recording, cosim, metrics)
    return recording.to_dict()


@pytest.fixture
def checkpoint_doc(tmp_path, capsys):
    directory = tmp_path / "cks"
    assert main(["checkpoint", *CHECKPOINT_ARGS,
                 "--dir", str(directory)]) == 0
    capsys.readouterr()
    path = sorted(directory.glob("checkpoint-*.json"))[0]
    return json.loads(path.read_text())


def _exit_code_and_error(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    return code, err.strip().splitlines()


def _replay(tmp_path, capsys, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return _exit_code_and_error(["replay", str(path)], capsys)


def _resume(tmp_path, capsys, doc):
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(doc))
    return _exit_code_and_error(
        ["checkpoint", "--resume", str(path), "--every", "1",
         "--dir", str(tmp_path / "out")], capsys)


class TestReplayCommand:
    def test_short_grant_row(self, tmp_path, capsys, recording_doc):
        recording_doc["boards"]["board"][0]["grant"] = [1]
        code, lines = _replay(tmp_path, capsys, recording_doc)
        assert code == 2
        assert len(lines) == 1
        assert "'board' row 0 grant" in lines[0]

    def test_final_not_an_object(self, tmp_path, capsys, recording_doc):
        recording_doc["final"] = 3
        code, lines = _replay(tmp_path, capsys, recording_doc)
        assert code == 2
        assert len(lines) == 1
        assert "'final'" in lines[0]

    @pytest.mark.parametrize("key,value", [
        ("seed", None), ("packets_per_producer", "4"), ("t_sync", "x"),
        ("iss_timing", "yes"), ("scenario", "iss")])
    def test_malformed_meta(self, tmp_path, capsys, recording_doc, key,
                            value):
        recording_doc["meta"][key] = value
        code, lines = _replay(tmp_path, capsys, recording_doc)
        assert code == 2
        assert len(lines) == 1
        assert key in lines[0]

    def test_bad_json_and_missing_file(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        code, lines = _exit_code_and_error(["replay", str(path)], capsys)
        assert code == 2 and len(lines) == 1
        code, lines = _exit_code_and_error(
            ["replay", str(tmp_path / "absent.json")], capsys)
        assert code == 2 and len(lines) == 1


def _first_row_with(doc, key):
    return next(row for row in doc["boards"]["board"] if row[key])


    def test_multiboard_recording_is_refused_naming_its_boards(
            self, tmp_path, capsys):
        # The CLI rebuilds only the one-board router case study; a
        # two-board recording replays through the library instead.
        from tests.cosim.test_multiboard import _record_two_boards

        recording, *_live = _record_two_boards("inproc")
        code, lines = _replay(tmp_path, capsys, recording.to_dict())
        assert code == 2
        assert len(lines) == 1
        assert "['a', 'b']" in lines[0]
        assert "repro.replay.replay_recording" in lines[0]


class TestTruncatedRecording:
    """A recording cut short never replays clean."""

    def test_row_without_its_report_is_refused(self, tmp_path, capsys,
                                               recording_doc):
        rows = recording_doc["boards"]["board"]
        del rows[-1]["report"]
        code, lines = _replay(tmp_path, capsys, recording_doc)
        assert code == 2
        assert len(lines) == 1
        assert f"'board' row {len(rows) - 1}" in lines[0]

    def test_recording_cut_by_whole_rows_is_a_summary_divergence(
            self, tmp_path, capsys, recording_doc):
        del recording_doc["boards"]["board"][-1]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(recording_doc))
        assert main(["replay", str(path)]) == 1
        out = capsys.readouterr().out
        assert "end-of-run board_ticks" in out
        assert "bit-identical" not in out


class TestRefusedByTheBoard:
    """Inputs the rebuilt board would refuse get one line and exit 2."""

    @pytest.mark.parametrize("grant", [[1, -5], [2, 300]])
    def test_bad_grant(self, tmp_path, capsys, recording_doc, grant):
        recording_doc["boards"]["board"][0]["grant"] = grant
        code, lines = _replay(tmp_path, capsys, recording_doc)
        assert code == 2
        assert len(lines) == 1
        assert "row 0 grant" in lines[0] and "ticks >= 1" in lines[0]

    def test_interrupt_on_an_unbound_vector(self, tmp_path, capsys,
                                            recording_doc):
        row = _first_row_with(recording_doc, "interrupts")
        row["interrupts"][0][0] = 99
        code, lines = _replay(tmp_path, capsys, recording_doc)
        assert code == 2
        assert len(lines) == 1
        assert "no handler attached to vector 99" in lines[0]

    def test_string_as_a_data_read_reply(self, tmp_path, capsys,
                                         recording_doc):
        row = _first_row_with(recording_doc, "data")
        row["data"][0][2] = "ready"
        code, lines = _replay(tmp_path, capsys, recording_doc)
        assert code == 2
        assert len(lines) == 1
        assert "int or bytes" in lines[0]

    def test_board_summary_as_a_list(self, tmp_path, capsys,
                                     recording_doc):
        recording_doc["final"]["boards"]["board"] = [1, 2]
        code, lines = _replay(tmp_path, capsys, recording_doc)
        assert code == 2
        assert len(lines) == 1
        assert "final summary of 'board'" in lines[0]

    def test_schema_1_document(self, tmp_path, capsys, recording_doc):
        recording_doc["schema"] = "repro-recording/1"
        code, lines = _replay(tmp_path, capsys, recording_doc)
        assert code == 2
        assert len(lines) == 1
        assert "repro-recording/1" in lines[0]
        assert "repro-recording/2" in lines[0]

class TestCheckpointResume:
    def test_trace_not_a_list(self, tmp_path, capsys, checkpoint_doc):
        checkpoint_doc["trace"] = 5
        code, lines = _resume(tmp_path, capsys, checkpoint_doc)
        assert code == 2
        assert len(lines) == 1
        assert "checkpoint trace" in lines[0]

    def test_schema_1_document(self, tmp_path, capsys, checkpoint_doc):
        # Schema 1 kept the first board only, in a flat tree.
        checkpoint_doc["schema"] = "repro-checkpoint/1"
        code, lines = _resume(tmp_path, capsys, checkpoint_doc)
        assert code == 2
        assert len(lines) == 1
        assert "repro-checkpoint/1" in lines[0]
        assert "repro-checkpoint/3" in lines[0]

    def test_schema_2_document(self, tmp_path, capsys, checkpoint_doc):
        # Schema 2 carried four TCP reconnect counters in each board's
        # link subtree.
        checkpoint_doc["schema"] = "repro-checkpoint/2"
        link = next(iter(checkpoint_doc["state"]["boards"].values()))["link"]
        link.update(reconnects=0, reconnect_attempts=0, replays=0,
                    backoff_wait_s=0.0)
        code, lines = _resume(tmp_path, capsys, checkpoint_doc)
        assert code == 2
        assert len(lines) == 1
        assert "repro-checkpoint/2" in lines[0]
        assert "repro-checkpoint/3" in lines[0]

    @pytest.mark.parametrize("key,value", [
        ("seed", None), ("packets_per_producer", "4"), ("t_sync", 0),
        ("num_ports", 0), ("bogus_knob", 1)])
    def test_malformed_meta(self, tmp_path, capsys, checkpoint_doc, key,
                            value):
        # The state digest does not cover the meta, so the load passes
        # and the meta reader alone must refuse it.
        checkpoint_doc["meta"][key] = value
        code, lines = _resume(tmp_path, capsys, checkpoint_doc)
        assert code == 2
        assert len(lines) == 1
        assert key in lines[0]

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "checkpoint.json"
        path.write_text("[1,")
        code, lines = _exit_code_and_error(
            ["checkpoint", "--resume", str(path)], capsys)
        assert code == 2 and len(lines) == 1


class TestValidators:
    def test_every_recorded_stream_checks_its_rows(self, recording_doc):
        for key, value in (("grant", [1, "x"]), ("interrupts", [[1]]),
                           ("report", [1, 2, 3]), ("data", [["poke", 1, 2]])):
            doc = copy.deepcopy(recording_doc)
            doc["boards"]["board"][0][key] = value
            with pytest.raises(SnapshotError, match=f"row 0 {key}"):
                SessionRecording.from_dict(doc)

    def test_meta_must_be_an_object(self, recording_doc, checkpoint_doc):
        with pytest.raises(SnapshotError, match="'meta'"):
            SessionRecording.from_dict(dict(recording_doc, meta=[]))
        with pytest.raises(SnapshotError, match="'meta'"):
            Checkpoint.from_dict(dict(checkpoint_doc, meta="router"))

    def test_corrupt_byte_payload(self, recording_doc):
        recording_doc["boards"]["board"][0]["data"] = [
            ["read", 1, {"__bytes_zb64__": "!!"}]]
        with pytest.raises(SnapshotError, match="corrupt byte payload"):
            SessionRecording.from_dict(recording_doc)
