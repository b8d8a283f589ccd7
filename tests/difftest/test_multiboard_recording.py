"""The multiboard difftest builder records each board where it is built.

Recording is transparent (the outcome is unchanged), the in-process
and threaded flavours record the same rows, and every board replays
strictly from its own rows.
"""

import pytest

from repro.board import Board
from repro.devices import AcceleratorDriver
from repro.difftest import generate_spec
from repro.difftest.backends import (
    _ACCEL_BASE,
    _ACCEL_VECTOR,
    _run_multiboard,
    run_backend,
)
from repro.replay import SessionRecording, find_divergence, replay_recording


@pytest.fixture(scope="module")
def spec():
    return generate_spec(42, 3, scenarios=["multiboard"])


def _record(spec, backend):
    recording = SessionRecording()
    outcome = _run_multiboard(spec, backend, recorder=recording)
    return recording, outcome


@pytest.mark.parametrize("backend", ["multi-inproc", "multi-threaded"])
def test_recording_leaves_the_outcome_unchanged(spec, backend):
    _recording, outcome = _record(spec, backend)
    plain = run_backend(spec, backend)
    assert outcome.ok and plain.ok
    assert outcome.digest == plain.digest
    assert outcome.windows == plain.windows


def test_every_board_replays_strictly_from_its_rows(spec):
    recording, outcome = _record(spec, "multi-inproc")
    threaded, _outcome = _record(spec, "multi-threaded")
    assert threaded.boards == recording.boards
    assert sorted(recording.boards) == [f"b{i}"
                                        for i in range(spec.num_boards)]
    config = spec.cosim_config()
    results = {}

    def board_0(endpoint):
        board = Board(name="board_0")
        driver = AcceleratorDriver(board.kernel, endpoint, config.latency,
                                   vector=_ACCEL_VECTOR, base=_ACCEL_BASE)

        def app():
            results["csum"] = yield from driver.checksum(
                [spec.payload_bytes()], wait_irq=True)

        board.kernel.create_thread("fuzz_app", app, 10)
        return board

    for index in range(spec.num_boards):
        name = f"b{index}"
        factory = board_0 if index == 0 else (
            lambda endpoint, index=index: Board(name=f"board_{index}"))
        result = replay_recording(recording, factory, name, config=config)
        assert find_divergence(recording, result).clean
        assert result.windows_replayed == outcome.windows
    assert results["csum"] == outcome.extra["csum"]
