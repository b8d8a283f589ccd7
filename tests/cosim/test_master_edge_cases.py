"""Edge-case tests for the master: timeouts, multi-vector plumbing,
reactive windows in isolation."""

import pytest

from repro.cosim import CosimConfig, CosimMaster, build_driver_sim
from repro.errors import ProtocolError
from repro.simkernel import DriverIn, Module, Signal, driver_process
from repro.transport import InprocLink, TcpLink


class Pulser(Module):
    """Pulses its irq when poked; deasserts on the next clock edge."""

    def __init__(self, sim, name, clock):
        super().__init__(sim, name)
        self.poke = DriverIn(self, "poke", init=0)
        self.irq = Signal(sim, f"{name}.irq", init=False)
        driver_process(self, lambda: self.irq.write(True), self.poke)
        self.method(self._clear, sensitive=[clock.signal], edge="pos",
                    dont_initialize=True)

    def _clear(self):
        if self.irq.read():
            self.irq.write(False)


class TestReportTimeout:
    def test_threaded_window_times_out_without_board(self):
        config = CosimConfig(t_sync=5, report_timeout_s=0.05)
        # Nothing serves the board end: no report ever comes back.
        link = TcpLink()
        sim, clock = build_driver_sim("timeout_hw", config=config)
        master = CosimMaster(sim, clock, link.master, config)
        try:
            with pytest.raises(ProtocolError, match="no time report"):
                master.run_window_threaded(5)
        finally:
            link.close()


class TestMultiVectorBinding:
    def test_duplicate_vector_rejected(self):
        config = CosimConfig(t_sync=5)
        link = InprocLink()
        sim, clock = build_driver_sim("dup_hw", config=config)
        device = Pulser(sim, "dev", clock)
        master = CosimMaster(sim, clock, link.master, config)
        master.bind_interrupt(3, device.irq)
        with pytest.raises(ProtocolError, match="already bound"):
            master.bind_interrupt(3, device.irq)

    def test_each_vector_forwards_its_edges(self):
        config = CosimConfig(t_sync=5)
        link = InprocLink()
        sim, clock = build_driver_sim("vec_hw", config=config)
        dev_a = Pulser(sim, "a", clock)
        dev_b = Pulser(sim, "b", clock)
        sim.map_port(0, dev_a.poke)
        sim.map_port(1, dev_b.poke)
        master = CosimMaster(sim, clock, link.master, config)
        master.bind_interrupt(1, dev_a.irq)
        master.bind_interrupt(2, dev_b.irq)
        sim.elaborate()
        sim.settle()
        sim.external_write(0, 1)
        sim.external_write(0, 1)  # the line is still high: no new edge
        sim.external_write(1, 1)
        vectors = []
        while (irq := link.board.poll_interrupt()) is not None:
            vectors.append(irq.vector)
        assert vectors == [1, 2]
        assert master.interrupts_sent == 2


class TestReactiveWindow:
    def make(self, t_sync=50):
        config = CosimConfig(t_sync=t_sync)
        link = InprocLink()
        sim, clock = build_driver_sim("reactive_hw", config=config)
        device = Pulser(sim, "dev", clock)
        sim.map_port(0, device.poke)
        master = CosimMaster(sim, clock, link.master, config,
                             interrupt_signal=device.irq)
        link.data_server = master.serve_data
        return link, clock, device, master

    def test_quiet_window_runs_to_max(self):
        link, clock, device, master = self.make()
        ticks = master.run_window_inproc(50, reactive=True)
        assert ticks == 50
        assert clock.cycles == 50
        grant = link.board.recv_grant()
        assert grant.ticks == 50

    def test_activity_terminates_window_early(self):
        link, clock, device, master = self.make()

        # Arm a poke that lands mid-window via a scheduled process.
        class Poker(Module):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.thread(self._run)

            def _run(self):
                yield 7 * clock.period
                device.poke.external_write(1)

        Poker(master.sim, "poker")
        ticks = master.run_window_inproc(50, reactive=True)
        assert ticks < 50
        grant = link.board.recv_grant()
        assert grant.ticks == ticks
        # The protocol still accounts exactly the simulated cycles.
        assert master.protocol.ticks_granted == clock.cycles

    def test_minimum_grant_is_one_tick(self):
        link, clock, device, master = self.make()
        # Interrupt already pending at window start (settle-time edge).
        master.serve_data("write", 0, 1)
        ticks = master.run_window_inproc(50, reactive=True)
        assert ticks >= 1
        assert master.protocol.ticks_granted == clock.cycles
