#!/usr/bin/env python3
"""Quickstart: co-simulate a tiny hardware peripheral with board software.

The smallest complete use of the framework:

* hardware side — a multiply-accumulate peripheral described as a
  simkernel module with driver registers (the device under design);
* software side — an RTOS thread on the virtual board that feeds the
  peripheral through a device driver;
* the two sides synchronize with the paper's virtual-tick protocol over
  an in-process link.

Run:  python examples/quickstart.py
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
from repro.rtos.syscalls import CpuWork
from repro.simkernel import DriverIn, DriverOut, Module, driver_process
from repro.transport import InprocLink

REG_OPERAND = 0x0
REG_RESULT = 0x1


class MacPeripheral(Module):
    """result += 3 * operand, recomputed on every operand write."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.operand = DriverIn(self, "operand", init=0)
        self.result = DriverOut(self, "result", init=0)
        self._acc = 0
        driver_process(self, self._on_operand, self.operand)

    def _on_operand(self):
        self._acc += 3 * self.operand.read()
        self.result.write(self._acc)


def main():
    config = CosimConfig(t_sync=10)
    link = InprocLink()

    # Hardware: the peripheral lives in a DriverSimulator.
    sim, clock = build_driver_sim("quickstart_hw", config=config)
    mac = MacPeripheral(sim, "mac")
    sim.map_port(REG_OPERAND, mac.operand)
    sim.map_port(REG_RESULT, mac.result)
    master = CosimMaster(sim, clock, link.master, config)

    # Software: one RTOS thread doing driver I/O.
    board = Board()
    results = []

    def app_thread():
        for value in range(1, 11):
            yield CpuWork(200)                       # "compute" the value
            link.board.data_write(REG_OPERAND, value)
            results.append(link.board.data_read(REG_RESULT))

    board.kernel.create_thread("app", app_thread, priority=10)
    runtime = CosimBoardRuntime(board, link.board, config)

    # Run the timed co-simulation.
    session = CosimSession(master, [BoardSlot("board", link, runtime)],
                           config)
    metrics = session.run(max_cycles=100)

    expected = [3 * sum(range(1, k + 1)) for k in range(1, 11)]
    print("accumulator readings:", results)
    assert results == expected, (results, expected)
    print(f"hardware saw {mac.operand.write_count} writes; "
          f"board ran {metrics.board_ticks} ticks in "
          f"{metrics.windows} windows of T_sync={config.t_sync}")
    print("metrics:", metrics.summary())


if __name__ == "__main__":
    main()
