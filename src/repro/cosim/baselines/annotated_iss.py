"""Timing-annotation baseline (the class of [14, 15] in Section 2).

"Another class of solutions is based on the construction of a timing
model for software ... Timing synchronization between software and
hardware is then achieved using the accumulated delays for the software,
and the cycle information provided by a HDL simulator for the hardware."

Here the checksum application does not run on a board at all: it is a
module *inside* the hardware simulator whose response delay is the
cycle count measured by running the real checksum routine on the
bundled ISS (plus a fixed driver overhead).  This is fast and reasonably
accurate for pure computation — and structurally unable to capture RTOS
effects (scheduler state, timeslices, ISR/DSR latency, competing
threads), which is precisely the paper's argument for co-simulating
against the real software stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cosim.config import CosimConfig
from repro.iss.programs import run_checksum
from repro.iss.timing import TimingModel
from repro.router.app import ChecksumApp
from repro.router.router import Router
from repro.router.stats import WorkloadStats
from repro.router.testbench import (
    RouterWorkload,
    build_router_netlist,
    packets_drained,
)
from repro.simkernel.module import Module


class AnnotatedSoftwareModel(Module):
    """The checksum software as an annotated-delay module.

    Lives in the master simulation; reacts to the router's interrupt,
    waits the ISS-measured cycle count, then writes the verdict.
    """

    def __init__(self, sim, name: str, router: Router, clock,
                 cycles_per_tick: int,
                 driver_overhead_cycles: int = 300,
                 timing: Optional[TimingModel] = None) -> None:
        super().__init__(sim, name)
        self.router = router
        self.clock = clock
        self.cycles_per_tick = cycles_per_tick
        self.driver_overhead_cycles = driver_overhead_cycles
        self.timing = timing
        self.packets_checked = 0
        self.annotated_cycles_total = 0
        #: payload length -> ISS cycles (checksum cost depends only on
        #: length for this routine).
        self._cycle_cache: Dict[int, int] = {}
        self.thread(self._run, name="sw")

    def _annotation_for(self, raw: bytes) -> int:
        key = len(raw)
        if key not in self._cycle_cache:
            _, cycles = run_checksum(raw[:-2], self.timing)
            self._cycle_cache[key] = cycles
        return self._cycle_cache[key] + self.driver_overhead_cycles

    def _run(self):
        while True:
            if not (self.router.reg_status.read() & 1):
                yield self.router.irq.posedge
                continue
            raw = bytes(self.router.reg_packet.read())
            board_cycles = self._annotation_for(raw)
            self.annotated_cycles_total += board_cycles
            delay_ticks = max(1, math.ceil(board_cycles / self.cycles_per_tick))
            yield delay_ticks * self.clock.period
            self.packets_checked += 1
            verdict = ChecksumApp._verdict_for(raw)
            self.router.reg_verdict.external_write(verdict)
            # Two delta cycles: one for the verdict commit + driver
            # process, one for the chained status/packet registers to
            # commit, before re-reading the status register.
            yield 0
            yield 0


@dataclass
class AnnotatedRouterCosim:
    """Bundle returned by :func:`build_annotated_router`."""

    sim: object
    clock: object
    router: Router
    software: AnnotatedSoftwareModel
    producers: list
    consumers: list
    stats: WorkloadStats
    workload: RouterWorkload

    def drained(self) -> bool:
        return packets_drained(self.producers, self.stats)

    def run(self, max_cycles: Optional[int] = None) -> WorkloadStats:
        bound = max_cycles or (4 * self.workload.estimated_cycles())
        period = self.clock.period
        step = 64 * period
        while self.clock.cycles < bound and not self.drained():
            self.sim.run_until(self.sim.now + step)
        return self.stats


def build_annotated_router(
    workload: Optional[RouterWorkload] = None,
    config: Optional[CosimConfig] = None,
    cycles_per_tick: int = 1000,
    timing: Optional[TimingModel] = None,
) -> AnnotatedRouterCosim:
    """Assemble the router with annotated-ISS software timing."""
    workload = workload or RouterWorkload()
    config = config or CosimConfig()
    hw = build_router_netlist("annotated_hw", workload, config)
    software = AnnotatedSoftwareModel(hw.sim, "annotated_sw", hw.router,
                                      hw.clock, cycles_per_tick,
                                      timing=timing)
    return AnnotatedRouterCosim(hw.sim, hw.clock, hw.router, software,
                                hw.producers, hw.consumers, hw.stats,
                                workload)
