#!/usr/bin/env python3
"""Prototyping a new FPGA peripheral against existing board software.

This is the paper's motivating scenario: "designers may face requests
for extending systems" with "minimal knowledge of the current design".
Here the proposed extension is a CRC-accumulator accelerator to offload
the board's checksum work.  The hardware model is simulated; the board
software is unchanged RTOS code; the virtual-tick co-simulation answers
the architectural question — does offloading pay? — *before* any RTL is
committed to the FPGA.

Run:  python examples/custom_peripheral.py
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
from repro.router.checksum import checksum16
from repro.rtos.syscalls import CpuWork
from repro.simkernel import DriverIn, DriverOut, Module, Signal, driver_process
from repro.transport import InprocLink

REG_DATA = 0x0      # write payload chunks here
REG_FINISH = 0x1    # write anything to latch the checksum
REG_CSUM = 0x2      # read the result


class ChecksumAccelerator(Module):
    """Streaming 16-bit checksum engine (the device under design)."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.data_in = DriverIn(self, "data", init=b"")
        self.finish = DriverIn(self, "finish", init=0)
        self.csum_out = DriverOut(self, "csum", init=0)
        self.done_irq = Signal(sim, f"{name}.done_irq", init=False)
        self._buffer = bytearray()
        driver_process(self, self._on_data, self.data_in)
        driver_process(self, self._on_finish, self.finish)

    def _on_data(self):
        self._buffer.extend(self.data_in.read())

    def _on_finish(self):
        self.csum_out.write(checksum16(bytes(self._buffer)))
        self._buffer.clear()
        self.done_irq.write(True)   # pulse ends at the next clock edge


def run_variant(offload: bool, payloads, sw_cycles_per_byte=8):
    """Run the workload with or without the accelerator; returns cycles."""
    config = CosimConfig(t_sync=50)
    link = InprocLink()
    sim, clock = build_driver_sim("accel_hw", config=config)
    accel = ChecksumAccelerator(sim, "accel")
    sim.map_port(REG_DATA, accel.data_in)
    sim.map_port(REG_FINISH, accel.finish)
    sim.map_port(REG_CSUM, accel.csum_out)
    # Deassert the interrupt pulse at each clock edge.
    accel.method(lambda: accel.done_irq.write(False),
                 sensitive=[clock.signal], edge="pos", dont_initialize=True)
    master = CosimMaster(sim, clock, link.master, config,
                         interrupt_signal=accel.done_irq)

    board = Board()
    checksums = []

    def app():
        for payload in payloads:
            if offload:
                yield CpuWork(100)                    # driver setup
                link.board.data_write(REG_DATA, payload)
                link.board.data_write(REG_FINISH, 1)
                checksums.append(link.board.data_read(REG_CSUM))
                yield CpuWork(2 * len(payload))       # DMA-ish copy cost
            else:
                yield CpuWork(100 + sw_cycles_per_byte * len(payload))
                checksums.append(checksum16(payload))

    board.kernel.create_thread("app", app, priority=8)
    runtime = CosimBoardRuntime(board, link.board, config)
    session = CosimSession(master, [BoardSlot("board", link, runtime)],
                           config)

    thread = board.kernel.threads[0]
    session.run(max_cycles=100_000,
                done=lambda: not thread.alive)
    expected = [checksum16(p) for p in payloads]
    assert checksums == expected
    return thread.cycles_consumed, board.kernel.sw_ticks


def main():
    import random
    rng = random.Random(42)
    payloads = [bytes(rng.getrandbits(8) for _ in range(size))
                for size in (64, 256, 1024, 64, 256, 1024)]

    sw_cycles, sw_ticks = run_variant(offload=False, payloads=payloads)
    hw_cycles, hw_ticks = run_variant(offload=True, payloads=payloads)

    print("== CRC accelerator: offload or not? ==")
    print(f"software checksum : {sw_cycles:7d} app CPU cycles "
          f"({sw_ticks} ticks)")
    print(f"with accelerator  : {hw_cycles:7d} app CPU cycles "
          f"({hw_ticks} ticks)")
    speedup = sw_cycles / max(1, hw_cycles)
    print(f"app-cycle speedup : {speedup:.1f}x")
    print("decision: offload pays for this payload mix"
          if speedup > 1 else "decision: keep the software loop")


if __name__ == "__main__":
    main()
