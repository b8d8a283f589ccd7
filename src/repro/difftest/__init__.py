"""Differential co-simulation fuzzing.

Seed-driven generation of random-but-valid workloads, executed through
multiple backends (in-process, rerun, record/replay, TCP, ISS
timing models, adaptive windows, multi-board), with equivalence oracles
between them and greedy shrinking of failing workloads down to a
replayable ``repro-recording/2`` artifact.

Entry points: :func:`repro.difftest.harness.fuzz` and the ``repro
fuzz`` CLI subcommand.
"""

from repro.difftest.backends import RunOutcome, run_backend, scenario_backends
from repro.difftest.harness import (
    FuzzFailure,
    FuzzReport,
    analyze_failure,
    fuzz,
    run_spec,
    write_failure_artifacts,
)
from repro.difftest.oracles import Mismatch, run_oracles
from repro.difftest.progbuilder import GeneratedProgram, build_program
from repro.difftest.shrink import shrink_spec
from repro.difftest.workload import SCENARIOS, FuzzSpec, generate_spec

__all__ = [
    "FuzzFailure",
    "FuzzReport",
    "FuzzSpec",
    "GeneratedProgram",
    "Mismatch",
    "RunOutcome",
    "SCENARIOS",
    "analyze_failure",
    "build_program",
    "fuzz",
    "generate_spec",
    "run_backend",
    "run_oracles",
    "run_spec",
    "scenario_backends",
    "shrink_spec",
    "write_failure_artifacts",
]
