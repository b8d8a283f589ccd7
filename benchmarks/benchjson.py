"""Harness-side glue for the persisted ``repro-bench/1`` trajectory.

Each ``bench_<name>.py`` module gets one :class:`BenchRecorder` (via the
``bench`` fixture in ``conftest.py``); tests add measured series to it
and the session-finish hook writes ``BENCH_<name>.json`` when pytest
ran with ``--bench-json-dir``.  The schema, validation and comparison
logic live in :mod:`repro.bench` — this module only adapts them to the
pytest harness.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, List, Optional

from repro.bench import BenchReport, env_fingerprint


class BenchRecorder:
    """Collects one harness module's series and timing.

    ``measure``/``wrap`` are the single timing source for the JSON
    trajectory: they clock each invocation of the workload with
    ``perf_counter`` regardless of what pytest-benchmark does around
    it, so the numbers mean the same thing under ``--benchmark-only``,
    ``--benchmark-disable`` and ``repro bench``.
    """

    def __init__(self, name: str, profile: str) -> None:
        self.report = BenchReport(name=name, profile=profile,
                                  env=env_fingerprint())
        #: Seconds of the most recent ``measure``/``wrap`` invocation.
        self.last_seconds: float = 0.0
        #: Seconds of every call of the latest ``wrap`` callable, since
        #: the latest ``measure``.
        self.calls: List[float] = []

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _time(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.last_seconds = time.perf_counter() - start
        return result

    def measure(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run *fn* once, remembering its wall time as
        ``last_seconds``."""
        self.calls = []
        return self._time(fn, *args, **kwargs)

    def wrap(self, fn: Callable) -> Callable:
        """A callable that times every invocation into ``calls`` —
        hand this to pytest-benchmark so both clocks see the same
        runs."""
        calls = self.calls = []

        def timed(*args: Any, **kwargs: Any) -> Any:
            result = self._time(fn, *args, **kwargs)
            calls.append(self.last_seconds)
            return result

        return timed

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def config(self, **kwargs: Any) -> None:
        """Merge harness configuration into the report."""
        self.report.config.update(kwargs)

    def series(self, key: str, seconds: Optional[float] = None, *,
               work: Optional[float] = None, unit: str = "ops",
               tier1: bool = False, **extra: Any) -> None:
        """Record one measured series.  *seconds* defaults to the
        median of the wrapped callable's calls, or to the last
        ``measure`` when nothing was wrapped since."""
        if seconds is None:
            seconds = (statistics.median(self.calls) if self.calls
                       else self.last_seconds)
        self.report.add_series(key, seconds, work=work, unit=unit,
                               tier1=tier1, **extra)

    def write(self, directory: str) -> str:
        import os

        path = os.path.join(directory, self.report.filename)
        os.makedirs(directory, exist_ok=True)
        self.report.save(path)
        return path


def module_bench_name(module_name: str) -> str:
    """``bench_fig5_overhead`` -> ``fig5_overhead``."""
    short = module_name.rsplit(".", 1)[-1]
    if short.startswith("bench_"):
        short = short[len("bench_"):]
    return short
