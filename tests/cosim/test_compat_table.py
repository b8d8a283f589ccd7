"""Session features, pair by pair.

Every pair of session features either runs, or is refused with a
:class:`ProtocolError` before window 0 — never mid-run, never silently.
Only speculation refuses anything: a fault injector, adaptive windows,
threads and several boards
(:func:`repro.cosim.optimistic.speculation_refusals`).  These tests
hold the sessions to that on one small rig that can carry every
feature: one or two boards sharing a checksum accelerator, in-process
or threaded.
"""

import itertools

import pytest

from repro.board import Board
from repro.cosim import (
    BoardSlot,
    CosimBoardRuntime,
    CosimConfig,
    CosimMaster,
    CosimSession,
    ProtocolTrace,
    TracingConfig,
    build_driver_sim,
)
from repro.cosim.adaptive import AdaptiveController, AdaptivePolicy
from repro.devices import AcceleratorDriver, ChecksumAccelerator
from repro.errors import ProtocolError
from repro.replay.checkpoint import Checkpointer
from repro.transport.faults import FaultPlan, FaultyBoardEndpoint
from repro.transport.inproc import InprocLink
from repro.transport.tcp import TcpLink

FEATURES = ("speculation", "adaptive", "fault", "threaded", "multiboard",
            "checkpointer", "tracing")
MAX_CYCLES = 400


class Rig:
    """Master, accelerator and one or two boards; board 0 checksums a
    buffer through the accelerator."""

    def __init__(self, features) -> None:
        self.features = set(features)
        threaded = "threaded" in self.features
        self.config = CosimConfig(
            t_sync=40, report_timeout_s=5.0,
            speculation_depth=4 if "speculation" in self.features else 0,
            tracing=TracingConfig(enabled="tracing" in self.features))
        sim, clock = build_driver_sim("compat_hw", config=self.config)
        accel = ChecksumAccelerator(sim, "accel", clock)
        accel.map_registers(sim, 0x10)
        boards = 2 if "multiboard" in self.features else 1
        links = [TcpLink() if threaded
                 else InprocLink() for _ in range(boards)]
        self.master = CosimMaster(sim, clock, links[0].master, self.config)
        self.master.bind_interrupt(2, accel.done_irq,
                                   endpoint=links[0].master)
        self.slots = []
        for index, link in enumerate(links):
            board_ep = link.board
            if index == 0 and "fault" in self.features:
                # A plan that never fires: the injector is present, its
                # schedule is never reached.
                board_ep = FaultyBoardEndpoint(
                    board_ep, FaultPlan(drop_interrupts={10_000}))
            board = Board(name=f"board_{index}")
            self.slots.append(BoardSlot(
                f"b{index}", link, CosimBoardRuntime(board, board_ep,
                                                     self.config)))
        kernel = self.slots[0].runtime.board.kernel
        driver = AcceleratorDriver(kernel, links[0].board,
                                   self.config.latency, vector=2, base=0x10)

        def app():
            yield from driver.checksum([b"compat"], wait_irq=True)

        kernel.create_thread("app", app, 10)
        self.session = None
        self.trace = None

    def assemble_and_run(self):
        """Build the session with every feature, then run it."""
        features = self.features
        try:
            self.session = CosimSession(self.master, self.slots,
                                        self.config)
            self.trace = ProtocolTrace()
            self.session.attach_trace(self.trace)
            if "adaptive" in features:
                self.session.attach_adaptive(
                    AdaptivePolicy(min_t_sync=10, initial_t_sync=40,
                                   max_t_sync=160))
            if "checkpointer" in features:
                self.session.attach_checkpointer(Checkpointer(every=2))
            return self.session.run(max_cycles=MAX_CYCLES)
        finally:
            # Threaded sessions keep their board threads until closed;
            # a refused session still holds its links' sockets.
            if self.session is None:
                for slot in self.slots:
                    slot.close()
            else:
                self.session.close()


#: Features that legitimately change the window schedule or board set.
SHAPING = {"adaptive", "threaded", "multiboard"}


def rows(rig):
    return [record.as_row() for record in rig.trace.records]


def plain_run():
    rig = Rig(set())
    rig.assemble_and_run()
    return rig


#: The pairs a session refuses: speculation beside each of these.
REFUSED = {frozenset(("speculation", feature))
           for feature in ("fault", "adaptive", "threaded", "multiboard")}


def refused(a, b) -> bool:
    return frozenset((a, b)) in REFUSED


@pytest.mark.parametrize("a,b", list(itertools.combinations(FEATURES, 2)))
def test_pair_runs_or_is_refused_before_window_zero(a, b):
    rig = Rig({a, b})
    if refused(a, b):
        with pytest.raises(ProtocolError, match="cannot combine"):
            rig.assemble_and_run()
        assert rig.master.clock.cycles == 0
        assert rig.session is None or rig.session.windows_completed == 0
        return
    metrics = rig.assemble_and_run()
    assert metrics.master_cycles == MAX_CYCLES
    assert metrics.windows == rig.session.windows_completed > 0
    assert rig.session.aligned()
    if not {a, b} & SHAPING:
        # Speculation, an idle fault injector, checkpoints and tracing
        # must not change a single window.
        assert rows(rig) == rows(plain_run())


@pytest.mark.parametrize("feature", FEATURES)
def test_every_feature_runs_alone(feature):
    rig = Rig({feature})
    metrics = rig.assemble_and_run()
    assert metrics.master_cycles == MAX_CYCLES
    assert rig.session.aligned()


def test_hand_wired_refused_pair_is_caught_by_run():
    # A harness that sets the controller directly, past
    # attach_adaptive, is stopped by run() before window 0 too.
    rig = Rig({"speculation"})
    rig.session = CosimSession(rig.master, rig.slots, rig.config)
    rig.session.controller = AdaptiveController(AdaptivePolicy())
    with pytest.raises(ProtocolError, match="adaptive window controller"):
        rig.session.run(max_cycles=MAX_CYCLES)
    assert rig.master.clock.cycles == 0
    assert rig.session.windows_completed == 0


class TestDegradations:
    def test_speculation_with_done_probe_runs_conservatively(self):
        rig = Rig({"speculation"})
        rig.session = CosimSession(rig.master, rig.slots, rig.config)
        metrics = rig.session.run(max_cycles=MAX_CYCLES,
                                  done=lambda: False)
        assert metrics.master_cycles == MAX_CYCLES
        assert metrics.windows_speculated == 0

