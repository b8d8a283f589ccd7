"""Tests for multi-board co-simulation (in-process and TCP)."""

import json

import pytest

from repro.board import Board
from repro.cosim import (
    BoardSlot,
    CosimBoardRuntime,
    CosimConfig,
    CosimMaster,
    CosimSession,
    ProtocolTrace,
    build_driver_sim,
)
from repro.devices import (
    AcceleratorDriver,
    ChecksumAccelerator,
    GpioBank,
    GpioDriver,
)
from repro.errors import ProtocolError
from repro.replay import (
    RecordingBoardEndpoint,
    SessionRecording,
    board_state_summary,
    find_divergence,
    replay_recording,
)
from repro.router.checksum import checksum16
from repro.transport import InprocLink, TcpLink

ACCEL_BASE, GPIO_BASE = 0x10, 0x30
ACCEL_VECTOR, GPIO_VECTOR = 2, 4


def build_board_a(endpoint, latency):
    """Board A and the accelerator driver that captures *endpoint*."""
    board = Board(name="board_a")
    return board, AcceleratorDriver(board.kernel, endpoint, latency,
                                    vector=ACCEL_VECTOR, base=ACCEL_BASE)


def build_board_b(endpoint, latency):
    """Board B and the GPIO driver that captures *endpoint*."""
    board = Board(name="board_b")
    return board, GpioDriver(board.kernel, endpoint, latency,
                             vector=GPIO_VECTOR, base=GPIO_BASE)


class Rig:
    """One shared hardware model, two boards: board A drives the
    accelerator, board B watches the GPIO bank.  ``mode`` selects the
    transport and session flavour: ``inproc`` (deterministic) or ``tcp``
    (threaded board runtimes).  A *recorder* records each board, as
    ``a`` and ``b``, where it is built."""

    def __init__(self, t_sync=25, mode="inproc", recorder=None,
                 **config_kwargs):
        self.mode = mode
        self.config = CosimConfig(t_sync=t_sync, **config_kwargs)
        self.sim, self.clock = build_driver_sim("multi_hw",
                                                config=self.config)
        self.accel = ChecksumAccelerator(self.sim, "accel", self.clock)
        self.gpio = GpioBank(self.sim, "gpio", self.clock, width=8)
        self.accel.map_registers(self.sim, ACCEL_BASE)
        self.gpio.map_registers(self.sim, GPIO_BASE)

        self.link_a = self._make_link()
        self.link_b = self._make_link()
        master_a, board_a_ep = self.link_a.master, self.link_a.board
        master_b, board_b_ep = self.link_b.master, self.link_b.board
        if recorder is not None:
            board_a_ep = RecordingBoardEndpoint(board_a_ep, recorder, "a")
            board_b_ep = RecordingBoardEndpoint(board_b_ep, recorder, "b")
        self.master = CosimMaster(self.sim, self.clock, master_a,
                                  self.config)
        self.master.bind_interrupt(ACCEL_VECTOR, self.accel.done_irq,
                                   endpoint=master_a)
        self.master.bind_interrupt(GPIO_VECTOR, self.gpio.irq,
                                   endpoint=master_b)

        latency = self.config.latency
        self.board_a, self.accel_driver = build_board_a(board_a_ep, latency)
        self.board_b, self.gpio_driver = build_board_b(board_b_ep, latency)
        self.slot_a = BoardSlot(
            "a", self.link_a,
            CosimBoardRuntime(self.board_a, board_a_ep, self.config))
        self.slot_b = BoardSlot(
            "b", self.link_b,
            CosimBoardRuntime(self.board_b, board_b_ep, self.config))
        try:
            self.session = CosimSession(
                self.master, [self.slot_a, self.slot_b], self.config)
        except ProtocolError:
            self.close()
            raise

    def _make_link(self):
        if self.mode == "inproc":
            return InprocLink()
        return TcpLink()

    def close(self):
        session = getattr(self, "session", None)
        if session is not None:
            session.close()  # stops any board threads, then the links
        self.link_a.close()
        self.link_b.close()


@pytest.fixture
def rig():
    return Rig()


class TestMultiBoard:
    def test_both_boards_advance_in_lockstep(self, rig):
        metrics = rig.session.run(max_cycles=100)
        assert rig.session.aligned()
        assert rig.board_a.kernel.sw_ticks == 100
        assert rig.board_b.kernel.sw_ticks == 100
        assert metrics.windows == 4

    def test_apps_on_different_boards_share_the_hardware(self, rig):
        results = _run_both_apps(rig)
        assert results["csum"] == checksum16(b"cross")
        assert results["edges"] == 0x04
        assert rig.session.aligned()

    def test_interrupts_route_to_owning_board_only(self, rig):
        def app_a():
            yield from rig.accel_driver.checksum([b"x"], wait_irq=True)

        thread_a = rig.board_a.kernel.create_thread("a", app_a, 10)
        rig.session.run(max_cycles=1000,
                        done=lambda: not thread_a.alive)
        accel_vec = rig.board_a.kernel.interrupts._vectors[ACCEL_VECTOR]
        gpio_vec = rig.board_b.kernel.interrupts._vectors[GPIO_VECTOR]
        assert accel_vec.isr_count == 1
        assert gpio_vec.isr_count == 0

    def test_metrics_aggregate_both_links(self, rig):
        def app_a():
            yield from rig.accel_driver.checksum([b"x"], wait_irq=False)

        thread_a = rig.board_a.kernel.create_thread("a", app_a, 10)
        metrics = rig.session.run(max_cycles=200,
                                  done=lambda: not thread_a.alive)
        # Clock traffic goes to both boards each window.
        assert metrics.messages_total > 2 * metrics.windows
        assert metrics.board_cycles > 0
        assert metrics.state_switches >= 2 * 2 * metrics.windows

    def test_empty_slot_list_rejected(self, rig):
        with pytest.raises(ProtocolError, match="needs boards"):
            CosimSession(rig.master, [], rig.config)

    def test_duplicate_names_rejected(self, rig):
        with pytest.raises(ProtocolError, match="duplicate"):
            CosimSession(rig.master, [rig.slot_a, rig.slot_a], rig.config)

    def test_needs_bound(self, rig):
        with pytest.raises(ProtocolError):
            rig.session.run()

    def test_tracing_records_spans_and_trace_rows(self):
        from repro.cosim import TracingConfig

        rig = Rig(tracing=TracingConfig(enabled=True))
        trace = ProtocolTrace()
        rig.session.attach_trace(trace)
        metrics = rig.session.run(max_cycles=100)
        assert metrics.spans_recorded > 0
        assert [r.as_row()[1:4] for r in trace.records] == [
            [25, 25, 25], [25, 50, 50], [25, 75, 75], [25, 100, 100]]
        windows = [s for s in rig.session.obs.spans
                   if s.cat == "session" and s.name == "window"]
        boards = [s for s in rig.session.obs.spans
                  if s.cat == "board" and s.name == "window"]
        assert len(windows) == 4
        assert len(boards) == 2 * 4

    def test_speculation_refused(self):
        rig = Rig(speculation_depth=4)
        try:
            with pytest.raises(ProtocolError, match="single board"):
                rig.session.run(max_cycles=100)
        finally:
            rig.close()
        assert rig.master.clock.cycles == 0
        assert rig.session.windows_completed == 0

    def test_max_windows_bound(self, rig):
        metrics = rig.session.run(max_windows=3)
        assert metrics.windows == 3
        assert rig.session.aligned()


def _run_checksum(rig, max_cycles=200):
    """Board A checksums a buffer via the shared accelerator."""
    results = {}

    def app_a():
        value = yield from rig.accel_driver.checksum([b"multi"],
                                                     wait_irq=True)
        results["csum"] = value

    rig.board_a.kernel.create_thread("a", app_a, 10)
    metrics = rig.session.run(max_cycles=max_cycles)
    return metrics, results


class TestMultiBoardThreaded:
    """Socket-backed multi-board sessions must keep the same tick
    accounting as the deterministic in-process session."""

    @pytest.mark.parametrize("mode", ["tcp"])
    def test_tick_accounting_matches_inproc(self, mode):
        ref = Rig()
        ref_metrics, ref_results = _run_checksum(ref)

        rig = Rig(mode=mode)
        try:
            metrics, results = _run_checksum(rig)
        finally:
            rig.close()

        # master cycles == board_i ticks for every board, both flavours.
        assert rig.session.aligned()
        assert ref.session.aligned()
        assert metrics.master_cycles == ref_metrics.master_cycles == 200
        assert rig.board_a.kernel.sw_ticks == ref.board_a.kernel.sw_ticks
        assert rig.board_b.kernel.sw_ticks == ref.board_b.kernel.sw_ticks
        assert metrics.windows == ref_metrics.windows
        assert metrics.board_ticks == ref_metrics.board_ticks
        assert results["csum"] == ref_results["csum"] == checksum16(b"multi")

    @pytest.mark.parametrize("mode", ["tcp"])
    def test_windows_follow_grant_schedule(self, mode):
        rig = Rig(t_sync=30, mode=mode)
        try:
            metrics = rig.session.run(max_cycles=100)
        finally:
            rig.close()
        assert rig.session.aligned()
        # ceil(100 / 30) windows, final one truncated to 10 ticks.
        assert metrics.windows == 4
        assert metrics.master_cycles == 100
        assert rig.board_a.kernel.sw_ticks == 100
        assert rig.board_b.kernel.sw_ticks == 100

    def test_short_timeout_fine_without_heartbeats(self):
        # The report timeout is the TCP link's one silence bound: a
        # short one builds, and a clean run never reaches it.
        rig = Rig(mode="tcp", report_timeout_s=0.5)
        try:
            metrics = rig.session.run(max_cycles=50)
        finally:
            rig.close()
        assert metrics.master_cycles == 50
        assert rig.session.aligned()

    def test_threaded_interrupts_route_to_owning_board_only(self):
        rig = Rig(mode="tcp")
        try:
            _, results = _run_checksum(rig, max_cycles=300)
        finally:
            rig.close()
        accel_vec = rig.board_a.kernel.interrupts._vectors[ACCEL_VECTOR]
        gpio_vec = rig.board_b.kernel.interrupts._vectors[GPIO_VECTOR]
        assert results["csum"] == checksum16(b"multi")
        assert accel_vec.isr_count == 1
        assert gpio_vec.isr_count == 0


def _start_accel_app(board, driver, results):
    def app():
        results["csum"] = yield from driver.checksum([b"cross"],
                                                     wait_irq=True)
    return board.kernel.create_thread("a", app, 10)


def _start_gpio_app(board, driver, results):
    def app():
        yield from driver.configure(direction_mask=0, irq_enable_mask=0xFF)
        results["edges"] = yield from driver.wait_edges()
    return board.kernel.create_thread("b", app, 10)


def _run_both_apps(rig):
    """Board A checksums through the accelerator while board B waits
    for a GPIO edge, fired between two runs; returns their results."""
    results = {}
    thread_a = _start_accel_app(rig.board_a, rig.accel_driver, results)
    thread_b = _start_gpio_app(rig.board_b, rig.gpio_driver, results)
    # Let both apps run a little, then fire the GPIO edge.
    rig.session.run(max_cycles=75)
    rig.gpio.drive_inputs(0x04)
    rig.sim.settle()
    rig.session.run(
        max_cycles=1000,
        done=lambda: not thread_a.alive and not thread_b.alive,
    )
    return results


def _record_two_boards(mode):
    """Both apps, recorded board by board; returns the saved-and-loaded
    recording, the live trace rows, the live board summaries and the
    apps' results."""
    recording = SessionRecording()
    rig = Rig(mode=mode, recorder=recording)
    trace = ProtocolTrace()
    rig.session.attach_trace(trace)
    try:
        results = _run_both_apps(rig)
    finally:
        rig.close()
    recording.finish(rig.session)
    summaries = {"a": board_state_summary(rig.board_a),
                 "b": board_state_summary(rig.board_b)}
    loaded = SessionRecording.from_dict(
        json.loads(json.dumps(recording.to_dict())))
    return loaded, _rows(trace), summaries, results


def _rows(trace):
    return [record.as_row() for record in trace.records]


class TestMultiBoardRecording:
    """Each board of a two-board session is recorded where it is built
    and replays strictly from its own rows."""

    @pytest.mark.parametrize("mode", ["inproc", "tcp"])
    def test_each_board_replays_to_the_live_rows_and_counters(self, mode):
        recording, live_rows, summaries, live = _record_two_boards(mode)
        assert live == {"csum": checksum16(b"cross"), "edges": 0x04}
        config = CosimConfig(t_sync=25)
        replayed = {}
        builders = {"a": (build_board_a, _start_accel_app),
                    "b": (build_board_b, _start_gpio_app)}
        projected = {}
        for name, (build, start) in builders.items():
            def factory(endpoint, build=build, start=start):
                board, driver = build(endpoint, config.latency)
                start(board, driver, replayed)
                return board

            result = replay_recording(recording, factory, name,
                                      config=config, strict=True)
            assert find_divergence(recording, result).clean
            assert result.board_summary == summaries[name]
            projected[name] = _rows(result.trace)
            assert projected[name] == _rows(recording.trace(name))
        assert replayed == live
        # The live trace has one row per window for both boards: the
        # boards' clocks, their summed interrupts and DATA traffic.
        merged = [a[:4] + [a[4] + b[4], a[5] + b[5]]
                  for a, b in zip(projected["a"], projected["b"])]
        assert merged == live_rows
        assert [row[:4] for row in projected["b"]] == \
            [row[:4] for row in projected["a"]]
        # Its interrupt column counts what the boards received since
        # the last window boundary, so the GPIO edge driven between two
        # runs lands in the next window's row, as it does in board B's.
        # Board A drains the accelerator's IRQ one window after the
        # master sent it, since it answers board A's own DATA write.
        assert [row[4] for row in live_rows] == [0, 1, 0, 1]
        assert [row[4] for row in projected["a"]] == [0, 1, 0, 0]
        assert [row[4] for row in projected["b"]] == [0, 0, 0, 1]

    def test_inproc_and_tcp_recordings_hold_the_same_rows(self):
        inproc = _record_two_boards("inproc")[0].to_dict()
        tcp = _record_two_boards("tcp")[0].to_dict()
        assert inproc == tcp
        assert sorted(inproc["boards"]) == ["a", "b"]

    def test_a_board_is_recorded_once(self):
        recording = SessionRecording()
        RecordingBoardEndpoint(InprocLink().board, recording, "a")
        with pytest.raises(ProtocolError, match="already recorded"):
            RecordingBoardEndpoint(InprocLink().board, recording, "a")
