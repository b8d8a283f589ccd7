"""Fixtures for the virtual-peripheral tests: a multi-device cosim rig."""

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
from repro.devices import (
    AcceleratorDriver,
    ChecksumAccelerator,
    GpioBank,
    GpioDriver,
    UartDevice,
    UartDriver,
)
from repro.transport import InprocLink

ACCEL_BASE = 0x10
UART_BASE = 0x20
GPIO_BASE = 0x30

ACCEL_VECTOR = 2
UART_VECTOR = 3
GPIO_VECTOR = 4


class DeviceRig:
    """One board with all three peripherals, inproc co-simulated."""

    def __init__(self, t_sync=20):
        self.config = CosimConfig(t_sync=t_sync)
        self.link = InprocLink()
        self.sim, self.clock = build_driver_sim("devices_hw",
                                                config=self.config)
        self.accel = ChecksumAccelerator(self.sim, "accel", self.clock)
        self.uart = UartDevice(self.sim, "uart", self.clock,
                               tx_fifo_depth=8, cycles_per_char=4)
        self.gpio = GpioBank(self.sim, "gpio", self.clock, width=16)
        self.accel.map_registers(self.sim, ACCEL_BASE)
        self.uart.map_registers(self.sim, UART_BASE)
        self.gpio.map_registers(self.sim, GPIO_BASE)

        self.master = CosimMaster(self.sim, self.clock, self.link.master,
                                  self.config)
        self.master.bind_interrupt(ACCEL_VECTOR, self.accel.done_irq)
        self.master.bind_interrupt(UART_VECTOR, self.uart.rx_irq)
        self.master.bind_interrupt(GPIO_VECTOR, self.gpio.irq)

        self.board = Board()
        latency = self.config.latency
        self.accel_driver = AcceleratorDriver(
            self.board.kernel, self.link.board, latency,
            vector=ACCEL_VECTOR, base=ACCEL_BASE)
        self.uart_driver = UartDriver(
            self.board.kernel, self.link.board, latency,
            vector=UART_VECTOR, base=UART_BASE)
        self.gpio_driver = GpioDriver(
            self.board.kernel, self.link.board, latency,
            vector=GPIO_VECTOR, base=GPIO_BASE)
        self.runtime = CosimBoardRuntime(self.board, self.link.board,
                                         self.config)
        self.session = CosimSession(
            self.master, [BoardSlot("board", self.link, self.runtime)],
            self.config)

    def spawn(self, entry, priority=10, name="app"):
        return self.board.kernel.create_thread(name, entry, priority)

    def run(self, max_cycles=4000, done=None):
        return self.session.run(max_cycles=max_cycles, done=done)


@pytest.fixture
def rig():
    return DeviceRig()
