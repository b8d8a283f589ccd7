"""Two-board checkpoints resume bit-exactly, in-process and over TCP.

Both boards of the :mod:`tests.cosim.test_multiboard` rig run an app:
board A checksums buffers through the shared accelerator (DATA traffic
and interrupts), board B drives and samples its GPIO bank (DATA
traffic).  A checkpoint taken mid-run, round-tripped through its JSON
file and restored into a freshly built rig must continue to the same
trace rows and the same final session state as the uninterrupted run.
"""

import pytest

from repro.cosim import ProtocolTrace
from repro.replay import Checkpoint, Checkpointer, restore_session
from repro.replay.snapshot import SnapshotError, state_digest
from repro.router.checksum import checksum16
from repro.rtos import Sleep
from tests.cosim.test_multiboard import Rig

MAX_CYCLES = 600  # 24 windows of the rig's 25 ticks
EVERY = 3
RESUME_AT = 9
CHUNKS = (b"multi", b"board", b"resume")


def start_apps(rig) -> dict:
    """Create both boards' apps; returns the dict they fill in."""
    results = {"csums": [], "levels": []}

    def app_a():
        for chunk in CHUNKS:
            value = yield from rig.accel_driver.checksum([chunk],
                                                         wait_irq=True)
            results["csums"].append(value)
            yield Sleep(120)

    def app_b():
        yield from rig.gpio_driver.configure(direction_mask=0xFF)
        for level in range(1, 9):
            yield from rig.gpio_driver.write(level)
            results["levels"].append((yield from rig.gpio_driver.read()))
            yield Sleep(60)

    rig.board_a.kernel.create_thread("app_a", app_a, 10)
    rig.board_b.kernel.create_thread("app_b", app_b, 10)
    return results


def run(mode, checkpoint=None, checkpointer=None):
    """Run the two-board rig to MAX_CYCLES (resuming from *checkpoint*
    when given); returns its trace rows, final digest and app results."""
    rig = Rig(mode=mode)
    trace = ProtocolTrace()
    rig.session.attach_trace(trace)
    if checkpointer is not None:
        rig.session.attach_checkpointer(checkpointer)
    results = start_apps(rig)
    try:
        if checkpoint is not None:
            restore_session(rig.session, checkpoint)
        rig.session.run(max_cycles=MAX_CYCLES)
        digest = state_digest(rig.session.snapshot())
    finally:
        rig.close()
    return [record.as_row() for record in trace.records], digest, results


@pytest.mark.parametrize("mode", ["inproc", "tcp"])
def test_two_board_checkpoint_resumes_bit_exactly(mode, tmp_path):
    checkpointer = Checkpointer(every=EVERY, directory=str(tmp_path))
    rows, digest, results = run(mode, checkpointer=checkpointer)
    assert results["csums"] == [checksum16(chunk) for chunk in CHUNKS]
    assert results["levels"] == list(range(1, 9))
    windows = [c.window for c in checkpointer.checkpoints]
    assert windows == list(range(EVERY, len(rows) + 1, EVERY))

    path = checkpointer.paths[windows.index(RESUME_AT)]
    checkpoint = Checkpoint.load(path)
    assert set(checkpoint.state["boards"]) == {"a", "b"}
    assert checkpoint.trace_rows == rows[:RESUME_AT]

    resumed_rows, resumed_digest, resumed = run(mode, checkpoint=checkpoint)
    assert resumed_rows == rows
    assert resumed_digest == digest
    assert resumed == results


def test_restore_refuses_a_tree_of_other_boards():
    rig = Rig()
    try:
        rig.session.run(max_cycles=50)
        state = rig.session.snapshot()
        del state["boards"]["b"]
        with pytest.raises(SnapshotError, match="boards"):
            rig.session.restore(state)
    finally:
        rig.close()
