"""Unit tests for CosimMaster and CosimBoardRuntime mechanics."""

import pytest

from repro.board import Board
from repro.cosim import (
    CosimBoardRuntime,
    CosimConfig,
    CosimMaster,
    build_driver_sim,
)
from repro.rtos import IDLE, Semaphore
from repro.simkernel import DriverIn, DriverOut, Module, Signal, driver_process
from repro.transport import InprocLink


class PulseDevice(Module):
    """Asserts its interrupt for one cycle when poked."""

    def __init__(self, sim, name, clock):
        super().__init__(sim, name)
        self.poke = DriverIn(self, "poke", init=0)
        self.value = DriverOut(self, "value", init=0)
        self.irq = Signal(sim, f"{name}.irq", init=False)
        driver_process(self, self._on_poke, self.poke)
        self.method(self._deassert, sensitive=[clock.signal], edge="pos",
                    dont_initialize=True)

    def _on_poke(self):
        self.value.write(self.poke.read() + 1)
        self.irq.write(True)

    def _deassert(self):
        if self.irq.read():
            self.irq.write(False)


@pytest.fixture
def rig():
    config = CosimConfig(t_sync=10)
    link = InprocLink()
    sim, clock = build_driver_sim("unit_hw", config=config)
    device = PulseDevice(sim, "dev", clock)
    sim.map_port(0, device.poke)
    sim.map_port(1, device.value)
    master = CosimMaster(sim, clock, link.master, config,
                         interrupt_signal=device.irq)
    link.data_server = master.serve_data
    board = Board()
    runtime = CosimBoardRuntime(board, link.board, config)
    return config, link, sim, clock, device, master, board, runtime


class TestMaster:
    def test_serve_data_read_write(self, rig):
        _, link, sim, clock, device, master, board, runtime = rig
        master.serve_data("write", 0, 41)
        assert master.serve_data("read", 1) == 42
        assert master.data_reads_served == 1
        assert master.data_writes_served == 1

    def test_bad_data_op_rejected(self, rig):
        _, _, _, _, _, master, _, _ = rig
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            master.serve_data("erase", 0, None)

    def test_interrupt_stamped_with_cycle(self, rig):
        _, link, sim, clock, device, master, board, runtime = rig
        master.run_cycles(3)
        master.serve_data("write", 0, 1)  # raises irq (committed in settle)
        master.run_cycles(1)
        irq = link.board.poll_interrupt()
        assert irq is not None
        assert irq.master_cycle in (3, 4)
        assert master.interrupts_sent == 1

    def test_window_grant_and_report(self, rig):
        config, link, sim, clock, device, master, board, runtime = rig
        master.run_window_inproc(10)
        assert clock.cycles == 10
        runtime.serve_window()
        report = link.master.recv_report()
        master.finish_window_inproc(report)
        assert master.protocol.exchanges == 1
        assert board.kernel.sw_ticks == 10


class TestBoardRuntime:
    def test_boots_frozen(self, rig):
        _, _, _, _, _, _, board, runtime = rig
        assert board.kernel.state == IDLE

    def test_window_thaws_and_refreezes(self, rig):
        _, link, sim, clock, device, master, board, runtime = rig
        master.run_window_inproc(10)
        runtime.serve_window()
        assert board.kernel.state == IDLE
        assert runtime.windows_served == 1
        assert board.kernel.state_switches == 3  # boot + thaw + freeze

    def test_no_grant_raises(self, rig):
        _, _, _, _, _, _, _, runtime = rig
        from repro.errors import ProtocolError
        with pytest.raises(ProtocolError, match="no clock grant"):
            runtime.serve_window()

    def test_interrupt_delivered_at_offset(self, rig):
        config, link, sim, clock, device, master, board, runtime = rig
        sem_log = []
        sem = Semaphore(board.kernel, "irq-sem")
        board.kernel.interrupts.attach(config.remote_vector,
                                       dsr=lambda v, c: sem.post())

        def waiter():
            yield sem.wait()
            sem_log.append(board.kernel.cycles)

        board.kernel.create_thread("w", waiter, priority=5)

        # Grant one window manually so we can poke mid-window.
        grant = master.protocol.make_grant(10)
        link.master.send_grant(grant)
        # run the window cycle by cycle, poking at cycle 3.
        for cycle in range(10):
            if cycle == 3:
                master.serve_data("write", 0, 1)
            master.run_cycles(1)
        runtime.serve_window()
        assert sem_log, "interrupt never reached the board thread"
        cycles_per_tick = board.kernel.config.cycles_per_sw_tick
        # The interrupt rose at master cycle 3 (== board tick 3, which
        # spans board cycles (2*cpt, 3*cpt]) plus the modeled latency.
        expected_min = 2 * cycles_per_tick + config.latency.interrupt_cycles
        expected_max = 3 * cycles_per_tick + config.latency.interrupt_cycles
        assert expected_min <= sem_log[0] <= expected_max
