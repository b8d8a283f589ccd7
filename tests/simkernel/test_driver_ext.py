"""Tests for the paper's kernel extension (driver ports / processes)."""

import pytest

from repro.errors import ElaborationError, SimulationError
from repro.simkernel import (
    DriverIn,
    DriverOut,
    DriverSimulator,
    Module,
    Signal,
    driver_process,
)


class EchoDevice(Module):
    """result = 2 * cmd; pulses irq on each command."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.cmd = DriverIn(self, "cmd", init=0)
        self.result = DriverOut(self, "result", init=0)
        self.irq = Signal(sim, f"{name}.irq", init=False)
        driver_process(self, self._on_cmd, self.cmd)

    def _on_cmd(self):
        self.result.write(2 * self.cmd.read())
        self.irq.write(True)


@pytest.fixture
def device_sim():
    sim = DriverSimulator("dsim")
    dev = EchoDevice(sim, "dev")
    sim.map_port(0, dev.cmd)
    sim.map_port(1, dev.result)
    sim.elaborate()
    sim.settle()
    return sim, dev


class TestDriverPorts:
    def test_external_write_triggers_driver_process(self, device_sim):
        sim, dev = device_sim
        sim.external_write(0, 21)
        assert sim.external_read(1) == 42

    def test_same_value_write_still_triggers(self, device_sim):
        sim, dev = device_sim
        sim.external_write(0, 5)
        sim.external_write(0, 5)
        assert dev.cmd.write_count == 2
        # The driver process ran twice (irq re-asserted etc.).
        assert dev.processes[0].activations == 2

    def test_read_counts(self, device_sim):
        sim, dev = device_sim
        sim.external_read(1)
        sim.external_read(1)
        assert dev.result.read_count == 2

    def test_write_to_driver_out_rejected(self, device_sim):
        sim, _ = device_sim
        with pytest.raises(SimulationError, match="read-only"):
            sim.external_write(1, 0)

    def test_read_from_driver_in_rejected(self, device_sim):
        sim, _ = device_sim
        with pytest.raises(SimulationError, match="write-only"):
            sim.external_read(0)

    def test_unmapped_address(self, device_sim):
        sim, _ = device_sim
        with pytest.raises(SimulationError, match="no driver port"):
            sim.external_read(0x99)

    def test_duplicate_mapping_rejected(self, device_sim):
        sim, dev = device_sim
        with pytest.raises(ElaborationError):
            sim.map_port(0, dev.cmd)

    def test_mapped_addresses(self, device_sim):
        sim, _ = device_sim
        assert sim.mapped_addresses == [0, 1]

    def test_driver_process_requires_ports(self, device_sim):
        sim, dev = device_sim
        with pytest.raises(ElaborationError):
            driver_process(dev, lambda: None)


def rising_edges(signal):
    """A list that gains one entry per rising edge *signal* commits."""
    edges = []

    def on_commit(_signal, old, new):
        if new and not old:
            edges.append(new)

    signal.observe(on_commit)
    return edges


class TestInterruptPolling:
    """Interrupt edges are observed on the request signal itself (the
    master forwards them); the simulator keeps no interrupt state."""

    def test_edge_detection(self, device_sim):
        sim, dev = device_sim
        edges = rising_edges(dev.irq)
        sim.external_write(0, 1)  # asserts irq
        assert len(edges) == 1
        sim.external_write(0, 1)
        assert len(edges) == 1  # level still high, no edge

    def test_new_edge_after_deassert(self, device_sim):
        sim, dev = device_sim
        edges = rising_edges(dev.irq)
        sim.external_write(0, 1)
        dev.irq.write(False)
        sim.settle()
        assert len(edges) == 1
        sim.external_write(0, 2)
        assert len(edges) == 2

    def test_no_interrupt_signal_bound(self, device_sim):
        sim, _ = device_sim
        assert sim.snapshot()["driver"] == {"port_counts": {"0": [0, 0],
                                                           "1": [0, 0]}}
