"""``repro fuzz --jobs N``: a fuzz campaign fanned across the farm.

The contract is **exact equivalence with the serial loop**: for the
same ``(base_seed, runs, scenarios, backends)`` a parallel campaign
produces the identical :class:`~repro.difftest.FuzzReport` — same
convicted failure set, same shrunk workloads, same artifacts, byte for
byte.  Three properties make that hold:

1. Specs are generated in the parent from the same
   :func:`~repro.difftest.generate_spec` seeds and shipped whole, so a
   worker executes exactly the case the serial loop would have.
2. Workers run the shared
   :func:`~repro.difftest.harness.analyze_failure` path (sweep,
   oracles, shrink, re-run) with **no I/O**; results cross the process
   boundary as plain documents.
3. Aggregation happens in campaign-index order with the serial loop's
   own early-stop rule (stop after ``max_failures``), and artifacts
   are written by the same
   :func:`~repro.difftest.write_failure_artifacts` — ``repro-recording/2``
   serialization is wall-clock-free, so the files match bit for bit.

Jobs whose *worker* dies (crash, timeout — infrastructure, not
workload) surface as a synthetic ``farm-infra`` mismatch rather than
being silently dropped; a healthy campaign never produces one.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.difftest import (
    FuzzFailure,
    FuzzReport,
    Mismatch,
    fuzz,
    generate_spec,
    write_failure_artifacts,
)
from repro.farm.core import Farm
from repro.farm.job import FAILED, KIND_FUZZ_CASE, Job
from repro.farm.runner import failure_from_doc
from repro.farm.scheduler import TenantQuota

#: Tenant name the fuzz fan-out submits under.
FUZZ_TENANT = "fuzz"


def fuzz_parallel(base_seed: int, runs: int, jobs: int = 2,
                  scenarios: Optional[Sequence[str]] = None,
                  backends: Optional[Sequence[str]] = None,
                  shrink: bool = True,
                  out_dir: Optional[str] = None,
                  max_failures: int = 5,
                  start_index: int = 0,
                  log=None) -> FuzzReport:
    """Run the ``fuzz()`` campaign on *jobs* worker processes.

    Falls back to the serial loop for ``jobs <= 1`` (one code path to
    trust for the semantics; the farm only adds transport).
    """
    if jobs <= 1:
        return fuzz(base_seed, runs, scenarios=scenarios,
                    backends=backends, shrink=shrink, out_dir=out_dir,
                    max_failures=max_failures,
                    start_index=start_index, log=log)

    specs = [generate_spec(base_seed, index, scenarios=scenarios)
             for index in range(start_index, start_index + runs)]
    quota = TenantQuota(max_in_flight=max(1, jobs))
    farm = Farm(workers=jobs, default_quota=quota)
    submitted = []
    results = {}
    with farm:
        for spec in specs:
            job = Job(
                tenant=FUZZ_TENANT,
                kind=KIND_FUZZ_CASE,
                payload={
                    "spec": spec.to_dict(),
                    "backends": list(backends) if backends else None,
                    "shrink": shrink,
                },
                seed=base_seed,
                name=f"case-{spec.index}",
            )
            farm.submit(job)
            submitted.append((spec, job.job_id))
        farm.wait()
        for _spec, job_id in submitted:
            results[job_id] = farm.result(job_id) or {}

    report = FuzzReport(base_seed=base_seed)
    for spec, job_id in submitted:
        report.runs += 1
        report.scenario_counts[spec.scenario] = \
            report.scenario_counts.get(spec.scenario, 0) + 1
        result = results[job_id]
        report.backend_runs += result.get("backend_runs", 0)
        job = farm.job(job_id)
        failure = None
        if job is not None and job.state == FAILED:
            failure = FuzzFailure(
                index=spec.index, spec=spec,
                mismatches=[Mismatch("farm-infra", "farm",
                                     job.error or "worker failed")],
                shrunk=spec)
        elif result.get("failure"):
            failure = failure_from_doc(result["failure"])
        if failure is None:
            if log is not None:
                log(f"ok   {spec.describe()}")
            continue
        if out_dir is not None:
            write_failure_artifacts(failure, out_dir)
        report.failures.append(failure)
        if log is not None:
            log(failure.describe())
        if len(report.failures) >= max_failures:
            break
    return report
