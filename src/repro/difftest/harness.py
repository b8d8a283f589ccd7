"""The differential fuzz loop.

``fuzz()`` generates spec after spec, sweeps each through the
scenario's backends, runs the oracle tiers, and — on a failure —
shrinks the workload and emits reproduction artifacts:

* ``fail-<index>.workload.json`` — the shrunk :class:`FuzzSpec`, which
  ``repro fuzz --spec FILE`` re-executes directly;
* ``fail-<index>.recording.json`` — a ``repro-recording/2`` message
  stream of the shrunk failing run (when the reference backend produced
  one), replayable with ``repro replay``.

Nothing in here reads the wall clock or global randomness on the
generation path; a whole fuzz campaign is a pure function of
``(base_seed, runs, scenarios, backends)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.difftest.backends import (
    RunOutcome,
    check_backends,
    run_backend,
    scenario_backends,
)
from repro.difftest.oracles import Mismatch, run_oracles
from repro.difftest.shrink import shrink_spec
from repro.difftest.workload import FuzzSpec, generate_spec


@dataclass
class FuzzFailure:
    """One oracle failure, shrunk and made reproducible."""

    index: int
    spec: FuzzSpec
    mismatches: List[Mismatch]
    shrunk: FuzzSpec
    shrink_steps: List[str] = field(default_factory=list)
    workload_path: Optional[str] = None
    recording_path: Optional[str] = None
    repro_commands: List[str] = field(default_factory=list)
    #: Message-stream recording of the shrunk failing run (when the
    #: reference backend produced one) — the artifact source.
    recording: Optional[object] = field(default=None, repr=False,
                                        compare=False)

    def describe(self) -> str:
        lines = [f"FAIL {self.spec.describe()}"]
        for mismatch in self.mismatches[:6]:
            lines.append(f"  {mismatch}")
        if self.shrink_steps:
            lines.append(f"  shrunk via: {', '.join(self.shrink_steps)}")
        for command in self.repro_commands:
            lines.append(f"  reproduce: {command}")
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Summary of one fuzz campaign."""

    base_seed: int
    runs: int = 0
    scenario_counts: Dict[str, int] = field(default_factory=dict)
    backend_runs: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        per_scenario = ", ".join(
            f"{name}={count}"
            for name, count in sorted(self.scenario_counts.items()))
        lines = [
            f"fuzz: {self.runs} runs ({per_scenario}), "
            f"{self.backend_runs} backend executions, "
            f"{len(self.failures)} failing"
        ]
        for failure in self.failures:
            lines.append(failure.describe())
        if self.ok:
            lines.append("all oracles held")
        return "\n".join(lines)


def run_spec(spec: FuzzSpec,
             backends: Optional[Sequence[str]] = None
             ) -> Tuple[Dict[str, RunOutcome], List[Mismatch]]:
    """Sweep one spec through its backends and run every oracle.

    *backends* restricts the sweep; a name that no scenario runs raises
    :class:`~repro.errors.UnknownBackendError`.
    """
    if backends:
        check_backends(list(backends))
    names = scenario_backends(spec.scenario,
                              list(backends) if backends else None)
    outcomes: Dict[str, RunOutcome] = {}
    recording = None
    for name in names:
        outcome = run_backend(spec, name, recording=recording)
        outcomes[name] = outcome
        if outcome.recording is not None:
            recording = outcome.recording
    return outcomes, run_oracles(spec, outcomes)


def _mismatch_ids(mismatches: Sequence[Mismatch]) -> set:
    return {m.oracle for m in mismatches}


def fuzz(base_seed: int, runs: int,
         scenarios: Optional[Sequence[str]] = None,
         backends: Optional[Sequence[str]] = None,
         shrink: bool = True,
         out_dir: Optional[str] = None,
         max_failures: int = 5,
         start_index: int = 0,
         log=None) -> FuzzReport:
    """Run a fuzz campaign; stops early after *max_failures* failures.

    *log* is an optional ``print``-like callable for progress lines.
    """
    report = FuzzReport(base_seed=base_seed)
    for index in range(start_index, start_index + runs):
        spec = generate_spec(base_seed, index, scenarios=scenarios)
        report.runs += 1
        report.scenario_counts[spec.scenario] = \
            report.scenario_counts.get(spec.scenario, 0) + 1
        outcomes, mismatches = run_spec(spec, backends=backends)
        report.backend_runs += len(outcomes)
        if not mismatches:
            if log is not None:
                log(f"ok   {spec.describe()}")
            continue
        failure = _handle_failure(spec, outcomes, mismatches,
                                  shrink=shrink, backends=backends,
                                  out_dir=out_dir)
        report.failures.append(failure)
        if log is not None:
            log(failure.describe())
        if len(report.failures) >= max_failures:
            break
    return report


def analyze_failure(spec: FuzzSpec, outcomes: Dict[str, RunOutcome],
                    mismatches: List[Mismatch], shrink: bool = True,
                    backends: Optional[Sequence[str]] = None
                    ) -> FuzzFailure:
    """Shrink one failing case; no I/O.

    Pure function of its inputs (shrinking deterministically re-runs
    candidate specs), so a farm worker and the serial loop produce
    identical :class:`FuzzFailure` values for the same case — the
    property the ``--jobs N`` equivalence guarantee rests on.
    """
    target_ids = _mismatch_ids(mismatches)
    shrunk, steps = spec, []
    shrunk_outcomes = outcomes
    shrunk_mismatches = mismatches
    if shrink:
        def still_fails(candidate: FuzzSpec) -> bool:
            _, found = run_spec(candidate, backends=backends)
            return bool(target_ids & _mismatch_ids(found))

        shrunk, steps = shrink_spec(spec, still_fails)
        if shrunk is not spec:
            shrunk_outcomes, shrunk_mismatches = run_spec(
                shrunk, backends=backends)

    failure = FuzzFailure(index=spec.index, spec=spec,
                          mismatches=shrunk_mismatches or mismatches,
                          shrunk=shrunk, shrink_steps=steps)
    failure.recording = next(
        (o.recording for o in shrunk_outcomes.values()
         if o.recording is not None), None)
    return failure


def write_failure_artifacts(failure: FuzzFailure, out_dir: str) -> None:
    """Emit ``fail-<index>.workload.json`` (and the recording, when one
    exists) under *out_dir*; stamps paths and repro commands onto the
    failure."""
    os.makedirs(out_dir, exist_ok=True)
    workload_path = os.path.join(
        out_dir, f"fail-{failure.index}.workload.json")
    failure.shrunk.save(workload_path)
    failure.workload_path = workload_path
    failure.repro_commands.append(f"repro fuzz --spec {workload_path}")
    if failure.recording is not None:
        recording_path = os.path.join(
            out_dir, f"fail-{failure.index}.recording.json")
        failure.recording.save(recording_path)
        failure.recording_path = recording_path
        failure.repro_commands.append(f"repro replay {recording_path}")


def _handle_failure(spec: FuzzSpec, outcomes: Dict[str, RunOutcome],
                    mismatches: List[Mismatch], shrink: bool,
                    backends: Optional[Sequence[str]],
                    out_dir: Optional[str]) -> FuzzFailure:
    failure = analyze_failure(spec, outcomes, mismatches, shrink=shrink,
                              backends=backends)
    if out_dir is not None:
        write_failure_artifacts(failure, out_dir)
    return failure
