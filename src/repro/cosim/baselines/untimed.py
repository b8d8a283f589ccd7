"""Functional (untimed) co-simulation baseline.

"Historically, HW/SW co-simulation has been mostly focused on
functional simulation" (Section 2).  Here the checksum software is a
zero-delay reaction: whenever the router presents a packet, the verdict
is computed and written back instantly, with no board, no RTOS and no
synchronization traffic.  Functionally the router behaves identically
(everything forwards); all timing effects disappear — which is exactly
what makes the approach unsuitable for the paper's goal.

The measured wall time of :func:`run_untimed` is the natural
denominator for Figure 6's overhead ratio.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.cosim.config import CosimConfig
from repro.router.app import ChecksumApp
from repro.router.router import REG_PACKET, REG_STATUS, REG_VERDICT
from repro.router.stats import WorkloadStats
from repro.router.testbench import (
    RouterWorkload,
    build_router_netlist,
    packets_drained,
)


@dataclass
class UntimedResult:
    stats: WorkloadStats
    cycles: int
    wall_seconds: float
    packets_checked: int


class UntimedRouterCosim:
    """The router workload with instant, in-process software."""

    def __init__(self, workload: Optional[RouterWorkload] = None,
                 config: Optional[CosimConfig] = None) -> None:
        self.workload = workload or RouterWorkload()
        self.config = config or CosimConfig()
        hw = build_router_netlist("untimed_hw", self.workload, self.config)
        self.sim, self.clock, self.router = hw.sim, hw.clock, hw.router
        self.producers, self.consumers = hw.producers, hw.consumers
        self.stats = hw.stats
        self.packets_checked = 0

    def _drain_instantly(self) -> None:
        """Zero-delay software: answer every pending packet right now."""
        while True:
            status = self.sim.external_read(REG_STATUS)
            if not status & 1:
                return
            raw = self.sim.external_read(REG_PACKET)
            self.packets_checked += 1
            self.sim.external_write(REG_VERDICT,
                                    ChecksumApp._verdict_for(bytes(raw)))

    def run(self, max_cycles: Optional[int] = None) -> UntimedResult:
        bound = max_cycles or (4 * self.workload.estimated_cycles())
        period = self.clock.period
        irq = self.router.irq
        irq_was_high = bool(irq.read())
        start = time.perf_counter()
        while (self.clock.cycles < bound
               and not packets_drained(self.producers, self.stats)):
            self.sim.run_until(self.sim.now + period)
            irq_high = bool(irq.read())
            if ((irq_high and not irq_was_high)
                    or self.router.reg_status.read() & 1):
                self._drain_instantly()
            irq_was_high = irq_high
        wall = time.perf_counter() - start
        return UntimedResult(self.stats, self.clock.cycles, wall,
                             self.packets_checked)


def run_untimed(workload: Optional[RouterWorkload] = None,
                config: Optional[CosimConfig] = None) -> UntimedResult:
    """Convenience wrapper: build and run the functional baseline."""
    return UntimedRouterCosim(workload, config).run()
