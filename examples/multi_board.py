#!/usr/bin/env python3
"""Two boards, one hardware model (framework extension).

One simulator masters the time of two embedded boards: board A runs the
checksum-offload application against the accelerator; board B owns the
GPIO bank and reacts to a limit switch.  The virtual tick keeps all
three time bases aligned — every window, both boards receive the same
grant and both report back before the simulation proceeds.

Run:  python examples/multi_board.py
"""

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
)
from repro.router.checksum import checksum16
from repro.transport import InprocLink

ACCEL_BASE, GPIO_BASE = 0x10, 0x30
ACCEL_VECTOR, GPIO_VECTOR = 2, 4


def main():
    config = CosimConfig(t_sync=25)
    sim, clock = build_driver_sim("plant_hw", config=config)
    accel = ChecksumAccelerator(sim, "accel", clock)
    gpio = GpioBank(sim, "gpio", clock, width=8)
    accel.map_registers(sim, ACCEL_BASE)
    gpio.map_registers(sim, GPIO_BASE)

    link_a, link_b = InprocLink(), InprocLink()
    master = CosimMaster(sim, clock, link_a.master, config)
    master.bind_interrupt(ACCEL_VECTOR, accel.done_irq,
                          endpoint=link_a.master)
    master.bind_interrupt(GPIO_VECTOR, gpio.irq, endpoint=link_b.master)

    board_a, board_b = Board(name="compute"), Board(name="io")
    accel_driver = AcceleratorDriver(board_a.kernel, link_a.board,
                                     config.latency, vector=ACCEL_VECTOR,
                                     base=ACCEL_BASE)
    gpio_driver = GpioDriver(board_b.kernel, link_b.board, config.latency,
                             vector=GPIO_VECTOR, base=GPIO_BASE)

    log = []

    def compute_app():
        for blob in (b"job-one", b"job-two", b"job-three"):
            value = yield from accel_driver.checksum([blob], wait_irq=True)
            log.append(("compute", blob.decode(), hex(value)))
            assert value == checksum16(blob)

    def io_app():
        yield from gpio_driver.configure(direction_mask=0x0F,
                                         irq_enable_mask=0xF0)
        edges = yield from gpio_driver.wait_edges()
        log.append(("io", "limit switch", bin(edges)))
        yield from gpio_driver.write(0x01)  # energize the relay

    thread_a = board_a.kernel.create_thread("compute", compute_app, 10)
    thread_b = board_b.kernel.create_thread("io", io_app, 10)

    slots = [
        BoardSlot("compute", link_a,
                  CosimBoardRuntime(board_a, link_a.board, config)),
        BoardSlot("io", link_b,
                  CosimBoardRuntime(board_b, link_b.board, config)),
    ]
    session = CosimSession(master, slots, config)

    # Phase 1: let the compute board work; the switch is untouched.
    session.run(max_cycles=150)
    # Phase 2: the limit switch trips.
    gpio.drive_inputs(0x20)
    sim.settle()
    metrics = session.run(
        max_cycles=5000,
        done=lambda: not thread_a.alive and not thread_b.alive,
    )

    print("== two-board co-simulation log ==")
    for entry in log:
        print("  ", entry)
    print(f"\nmaster cycles {metrics.master_cycles}; "
          f"board ticks compute={board_a.kernel.sw_ticks} "
          f"io={board_b.kernel.sw_ticks}; aligned={session.aligned()}")
    print(f"relay output pins: {bin(gpio.pin_levels() & 0x0F)}")
    assert session.aligned()


if __name__ == "__main__":
    main()
