"""End-to-end record -> replay determinism tests.

The acceptance property: replaying a recorded session — inproc or
threaded, fault-free or faulted — reproduces the per-window trace and
the end-of-run board state bit-for-bit, with no sockets and no wall
clock on the replay side.
"""

import pytest

from repro.cosim import CosimConfig, ProtocolTrace
from repro.determinism import forbid_entropy
from repro.replay import (
    ReplayDivergence,
    SessionRecording,
    find_divergence,
    replay_recording,
)
from repro.router.testbench import (
    RouterWorkload,
    build_router_cosim,
    finalize_router_recording,
    replay_router_recording,
    router_run_from_meta,
)
from repro.transport.faults import FaultPlan


def record_run(mode="inproc", t_sync=300, fault_plan=None,
               **workload_kwargs):
    defaults = dict(packets_per_producer=5, interval_cycles=300,
                    corrupt_rate=0.2, seed=11)
    defaults.update(workload_kwargs)
    recording = SessionRecording()
    cosim = build_router_cosim(CosimConfig(t_sync=t_sync),
                               RouterWorkload(**defaults), mode=mode,
                               fault_plan=fault_plan, recorder=recording)
    trace = ProtocolTrace()
    cosim.session.attach_trace(trace)
    metrics = cosim.run()
    finalize_router_recording(recording, cosim, metrics)
    return recording, metrics, trace


def rows_of(trace):
    return [record.as_row() for record in trace.records]


def data_ops(recording):
    """``(window, op)`` for every DATA op of the router board."""
    return [(window, op)
            for window, row in enumerate(recording.boards["board"])
            for op in row["data"]]


class TestRecording:
    def test_recording_captures_all_streams(self):
        recording, metrics, _trace = record_run()
        rows = recording.boards["board"]
        assert list(recording.boards) == ["board"]
        assert len(rows) == metrics.windows
        assert [row["grant"][0] for row in rows] == \
            list(range(1, metrics.windows + 1))
        assert (sum(len(row["interrupts"]) for row in rows)
                == metrics.int_packets)
        assert data_ops(recording), "router run must do DATA traffic"
        assert recording.meta["scenario"] == "router"
        assert recording.meta["threaded"] is False

    def test_recording_survives_save_load(self, tmp_path):
        recording, _metrics, _trace = record_run()
        path = tmp_path / "run.json"
        recording.save(str(path))
        loaded = SessionRecording.load(str(path))
        assert loaded.boards == recording.boards
        assert loaded.final == recording.final
        assert loaded.meta == recording.meta

    def test_workload_round_trips_through_meta(self):
        recording, _metrics, _trace = record_run(seed=99,
                                                 corrupt_rate=0.3)
        _config, rebuilt, _iss = router_run_from_meta(recording.meta)
        assert rebuilt.seed == 99
        assert rebuilt.corrupt_rate == 0.3
        assert rebuilt.packets_per_producer == 5


class TestReplayIdentity:
    def test_inproc_replay_is_bit_identical(self):
        recording, _metrics, trace = record_run()
        result = replay_router_recording(recording)
        assert result.clean
        report = find_divergence(recording, result)
        assert report.clean
        assert ([r.as_row() for r in result.trace.records]
                == [r.as_row() for r in trace.records])

    def test_threaded_replay_is_bit_identical_without_entropy(self):
        recording, _metrics, _trace = record_run(mode="tcp")
        assert recording.meta["threaded"] is True
        # The replay side must never touch wall-clock time or global
        # randomness: the recording fully determines the run.
        with forbid_entropy():
            result = replay_router_recording(recording)
        assert result.clean
        assert find_divergence(recording, result).clean

    def test_tcp_and_inproc_recordings_match(self):
        # Every link runs the same windows: the two recordings differ
        # only in their meta (the TCP run's shutdown grant is no row).
        inproc, _m, _t = record_run()
        tcp, _m, _t = record_run(mode="tcp")
        a, b = inproc.to_dict(), tcp.to_dict()
        assert a["meta"] != b["meta"]
        for key in set(a) - {"meta"}:
            assert a[key] == b[key], key
        for recording in (inproc, tcp):
            with forbid_entropy():
                result = replay_router_recording(recording)
            assert result.clean
            assert find_divergence(recording, result).clean

    def test_interrupt_faulted_tcp_run_replays_identically(self):
        # Swallow an interrupt on the TCP link: the recording holds the
        # post-fault stream the board consumed, so replay reproduces
        # the run without re-injecting the fault or opening a socket.
        plan = FaultPlan(drop_interrupts={2})
        recording, _metrics, _trace = record_run(mode="tcp",
                                                 fault_plan=plan)
        assert plan.interrupts_dropped == 1
        with forbid_entropy():
            result = replay_router_recording(recording)
        assert result.clean
        assert find_divergence(recording, result).clean

    def test_replay_after_save_load(self, tmp_path):
        recording, _metrics, _trace = record_run()
        path = tmp_path / "run.json"
        recording.save(str(path))
        result = replay_router_recording(SessionRecording.load(str(path)))
        assert result.clean


class TestDivergenceDetection:
    def test_tampered_data_value_raises_in_strict_mode(self):
        recording, _metrics, _trace = record_run()
        writes = [op for _window, op in data_ops(recording)
                  if op[0] == "write" and isinstance(op[2], int)]
        writes[len(writes) // 2][2] += 1
        with pytest.raises(ReplayDivergence):
            replay_router_recording(recording, strict=True)

    def test_bisector_reports_first_divergent_window(self):
        recording, _metrics, _trace = record_run()
        writes = [(window, op) for window, op in data_ops(recording)
                  if op[0] == "write" and isinstance(op[2], int)]
        tampered_window, op = writes[len(writes) // 2]
        op[2] += 1
        result = replay_router_recording(recording, strict=False)
        assert not result.clean
        report = find_divergence(recording, result)
        assert not report.clean
        assert report.first_window is not None
        assert report.first_window <= tampered_window
        assert "divergent window" in report.describe()

    def test_tampered_final_state_is_caught(self):
        recording, _metrics, _trace = record_run()
        recording.final["boards"]["board"]["board_ticks"] += 1
        result = replay_router_recording(recording, strict=False)
        report = find_divergence(recording, result)
        assert not report.clean
        assert report.summary_mismatches
        assert report.first_window == result.windows_replayed

    def test_recorded_trace_is_a_projection(self):
        # The live trace counts the interrupts the board received and
        # the link's DATA messages; the projection of the board's rows
        # equals it, on either link.
        for mode in ("inproc", "tcp"):
            recording, _metrics, trace = record_run(mode=mode)
            assert rows_of(recording.trace("board")) == rows_of(trace)


class TestReplayApi:
    def test_replay_recording_needs_a_board(self):
        recording, _metrics, _trace = record_run()
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="no board 'b1'"):
            replay_recording(recording, lambda endpoint: None, "b1",
                             config=CosimConfig(t_sync=300))
