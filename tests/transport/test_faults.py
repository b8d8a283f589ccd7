"""Fault-injection tests: the protocol detects every sync-breaking
fault and degrades gracefully on lost interrupts."""

import pytest

from repro.board import Board
from repro.cosim import (
    BoardSlot,
    CosimBoardRuntime,
    CosimConfig,
    CosimMaster,
    CosimSession,
    build_driver_sim,
)
from repro.devices import AcceleratorDriver, ChecksumAccelerator
from repro.errors import ProtocolError
from repro.router.checksum import checksum16
from repro.transport import InprocLink
from repro.transport.faults import FaultPlan, FaultyBoardEndpoint

VECTOR = 2
BASE = 0x10


def make_session(plan: FaultPlan, t_sync=20):
    config = CosimConfig(t_sync=t_sync)
    link = InprocLink()
    sim, clock = build_driver_sim("fault_hw", config=config)
    accel = ChecksumAccelerator(sim, "accel", clock)
    accel.map_registers(sim, BASE)
    master = CosimMaster(sim, clock, link.master, config)
    master.bind_interrupt(VECTOR, accel.done_irq)

    board = Board()
    faulty = FaultyBoardEndpoint(link.board, plan)
    driver = AcceleratorDriver(board.kernel, faulty, config.latency,
                               vector=VECTOR, base=BASE)
    runtime = CosimBoardRuntime(board, faulty, config)
    session = CosimSession(master, [BoardSlot("board", link, runtime)],
                           config)
    return session, board, driver, accel


class TestFatalFaults:
    def test_dropped_grant_detected(self):
        session, *_ = make_session(FaultPlan(drop_grants={2}))
        with pytest.raises(ProtocolError):
            session.run(max_cycles=200)

    def test_duplicated_grant_detected(self):
        session, *_ = make_session(FaultPlan(duplicate_grants={1}))
        with pytest.raises(ProtocolError, match="out of order"):
            session.run(max_cycles=200)

    def test_dropped_report_detected(self):
        session, *_ = make_session(FaultPlan(drop_reports={1}))
        with pytest.raises(ProtocolError, match="no time report"):
            session.run(max_cycles=200)

    def test_corrupted_report_detected(self):
        session, *_ = make_session(FaultPlan(corrupt_reports={1}))
        with pytest.raises(ProtocolError, match="divergence"):
            session.run(max_cycles=200)


class TestGracefulDegradation:
    def test_fault_free_plan_is_transparent(self):
        plan = FaultPlan()
        session, board, driver, accel = make_session(plan)
        results = []

        def app():
            value = yield from driver.checksum([b"abc"], wait_irq=True)
            results.append(value)

        thread = board.kernel.create_thread("app", app, 10)
        session.run(max_cycles=2000, done=lambda: not thread.alive)
        assert results == [checksum16(b"abc")]
        assert plan.total_faults() == 0

    def test_dropped_interrupt_delays_but_recovers(self):
        """The first completion interrupt is lost; a second request's
        interrupt wakes the driver, and the semaphore count plus status
        registers let both checksums finish."""
        plan = FaultPlan(drop_interrupts={1})
        session, board, driver, accel = make_session(plan)
        results = []

        def app():
            from repro.rtos.syscalls import Sleep

            # First request: its IRQ will be dropped, so don't block on
            # it — poll instead.
            value1 = yield from driver.checksum([b"first"], wait_irq=False)
            # Cross a window boundary so the (merged, zero-time) IRQ
            # pulse clears and the second completion makes a new edge.
            yield Sleep(25)
            value2 = yield from driver.checksum([b"second"], wait_irq=True)
            results.append((value1, value2))

        thread = board.kernel.create_thread("app", app, 10)
        session.run(max_cycles=5000, done=lambda: not thread.alive)
        assert results == [(checksum16(b"first"), checksum16(b"second"))]
        assert plan.interrupts_dropped == 1
        # One IRQ was lost: only one ISR ran.
        assert board.kernel.interrupts._vectors[VECTOR].isr_count == 1

    def test_fault_statistics(self):
        plan = FaultPlan(drop_grants={1}, corrupt_reports={7})
        session, *_ = make_session(plan)
        with pytest.raises(ProtocolError):
            session.run(max_cycles=500)
        assert plan.grants_dropped == 1
        assert plan.total_faults() == 1


class TestFaultedRecordings:
    """Recording a faulted run must stay replayable.

    Found by the differential fuzzer (``repro fuzz``): the finalized
    recording used to embed the live trace rows, whose interrupt
    column then counted packets the master *sent* — but a replay can
    only redeliver the packets the board *received*, so any run with a
    ``drop_interrupts`` fault made a bit-clean replay look divergent.
    The live trace now counts received packets too.
    """

    def test_drop_interrupt_recording_replays_cleanly(self):
        from repro.cosim import ProtocolTrace
        from repro.replay import SessionRecording, find_divergence
        from repro.router.testbench import (
            RouterWorkload,
            build_router_cosim,
            finalize_router_recording,
            replay_router_recording,
        )

        plan = FaultPlan(drop_interrupts={2})
        recording = SessionRecording()
        cosim = build_router_cosim(
            CosimConfig(t_sync=300),
            RouterWorkload(packets_per_producer=5, interval_cycles=300,
                           corrupt_rate=0.2, seed=11),
            mode="inproc", fault_plan=plan, recorder=recording)
        trace = ProtocolTrace()
        cosim.session.attach_trace(trace)
        metrics = cosim.run()
        finalize_router_recording(recording, cosim, metrics)

        # The fault actually fired: the board saw one interrupt fewer
        # than the master sent.
        assert plan.interrupts_dropped == 1
        sent = cosim.master.interrupts_sent
        recorded = recording.trace("board")
        # The recorded trace counts the interrupts the board received,
        # not the ones the master sent, and so does the live one.
        assert recorded.total_interrupts() == sent - 1
        assert trace.records == recorded.records

        result = replay_router_recording(recording)
        assert result.clean
        report = find_divergence(recording, result)
        assert report.clean, report.describe()
