"""Fitting the wall-cost model to measured runs.

The modeled overhead figures use
:class:`~repro.transport.latency.WallCostModel` constants calibrated to
the paper's 2005 testbed.  This module re-fits those constants to *this
machine*: run the session over the TCP link (the one link with a
measured wall clock) at several ``T_sync`` values, record
(sync exchanges, simulated cycles, messages) against measured wall
seconds, and solve the least-squares system

    wall ≈ a·syncs + b·cycles + c·messages

so the deterministic in-process sweeps can then predict local wall
time.  This mirrors how the paper's own timing model would be
calibrated against its physical setup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.cosim.config import CosimConfig
from repro.errors import ReproError
from repro.router.testbench import TCP, RouterWorkload, build_router_cosim
from repro.transport.latency import WallCostModel


@dataclass(frozen=True)
class CalibrationSample:
    """One measured run."""

    t_sync: int
    sync_exchanges: int
    master_cycles: int
    messages: int
    wall_seconds: float


@dataclass
class CalibrationResult:
    """Fitted per-sync / per-cycle / per-message costs."""

    per_sync_exchange: float
    per_master_cycle: float
    per_message: float
    samples: List[CalibrationSample]
    #: Coefficient of determination of the fit.
    r_squared: float

    def to_wall_cost_model(self, base: Optional[WallCostModel] = None
                           ) -> WallCostModel:
        """A WallCostModel with the fitted constants (others zeroed or
        inherited from *base*)."""
        base = base or WallCostModel()
        return replace(
            base,
            per_sync_exchange=max(0.0, self.per_sync_exchange),
            per_master_cycle=max(0.0, self.per_master_cycle),
            per_message=max(0.0, self.per_message),
            per_byte=0.0,
            per_board_tick=0.0,
            per_state_switch=0.0,
        )

    def predict(self, sync_exchanges: int, master_cycles: int,
                messages: int) -> float:
        # Clamped at zero: fits over near-instant runs are noise-bound
        # and can produce slightly negative coefficients.
        return max(0.0, self.per_sync_exchange * sync_exchanges
                   + self.per_master_cycle * master_cycles
                   + self.per_message * messages)


def fit_samples(samples: Sequence[CalibrationSample]) -> CalibrationResult:
    """Least-squares fit of the three cost constants."""
    if len(samples) < 3:
        raise ReproError("calibration needs at least three samples")
    design = np.array(
        [[s.sync_exchanges, s.master_cycles, s.messages] for s in samples],
        dtype=float,
    )
    target = np.array([s.wall_seconds for s in samples], dtype=float)
    coefficients, *_ = np.linalg.lstsq(design, target, rcond=None)
    predictions = design @ coefficients
    residual = float(np.sum((target - predictions) ** 2))
    total = float(np.sum((target - target.mean()) ** 2))
    r_squared = 1.0 if total == 0 else 1.0 - residual / total
    return CalibrationResult(
        per_sync_exchange=float(coefficients[0]),
        per_master_cycle=float(coefficients[1]),
        per_message=float(coefficients[2]),
        samples=list(samples),
        r_squared=r_squared,
    )


def measure_samples(
    t_sync_values: Sequence[int],
    workload: Optional[RouterWorkload] = None,
    config: Optional[CosimConfig] = None,
    repeats: int = 1,
) -> List[CalibrationSample]:
    """Run the session over TCP and collect calibration samples."""
    base = config or CosimConfig()
    workload = workload or RouterWorkload(packets_per_producer=5,
                                          interval_cycles=300,
                                          corrupt_rate=0.0)
    samples = []
    for t_sync in t_sync_values:
        for _ in range(repeats):
            cosim = build_router_cosim(replace(base, t_sync=t_sync),
                                       workload, mode=TCP)
            metrics = cosim.run()
            samples.append(CalibrationSample(
                t_sync=t_sync,
                sync_exchanges=metrics.sync_exchanges,
                master_cycles=metrics.master_cycles,
                messages=metrics.messages_total,
                wall_seconds=metrics.wall_seconds,
            ))
    return samples


def calibrate(
    t_sync_values: Sequence[int] = (10, 50, 200, 1000),
    workload: Optional[RouterWorkload] = None,
    repeats: int = 2,
) -> CalibrationResult:
    """Measure then fit, in one call."""
    samples = measure_samples(t_sync_values, workload, repeats=repeats)
    return fit_samples(samples)
