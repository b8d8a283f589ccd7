"""Worker-side job execution.

:func:`execute_task` is the single entry point a pool worker runs per
task.  It never raises: workload failures, oracle findings and crashes
inside a backend all come back as a structured result dict (crashes of
the *worker process itself* are handled one layer up, by the pool's
sentinel watch).

Two job kinds:

* ``fuzz_case`` — one differential-fuzz case: a
  :class:`~repro.difftest.workload.FuzzSpec` swept through its
  backends under the oracle tiers, shrunk on failure, exactly as the
  serial ``repro fuzz`` loop would (the same
  :func:`repro.difftest.harness.analyze_failure` code path runs in
  both, which is what makes ``--jobs N`` campaigns reproduce serial
  results bit-for-bit).
* ``router`` — one user-style router co-simulation session (the
  :class:`~repro.router.testbench.RouterWorkload` keys, selectable
  transport, optional emulated network latency), the shape a hosted
  tenant submits; :func:`repro.farm.job.read_router_payload` validates
  it.

Results are plain JSON-able dicts so they cross the process boundary
and serialize into the :class:`~repro.farm.store.ResultStore`
unchanged.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional

#: Result-format version stamped on every worker result.
RESULT_SCHEMA = "repro-job-result/1"


def execute_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Run one task dict (``{"job": <repro-job/1>, "artifacts_dir"}``)."""
    started = time.perf_counter()
    job = task.get("job", {})
    kind = job.get("kind", "fuzz_case")
    artifacts_dir = task.get("artifacts_dir")
    try:
        if kind == "fuzz_case":
            result = _run_fuzz_case(job.get("payload", {}))
        elif kind == "router":
            result = _run_router(job.get("payload", {}), artifacts_dir)
        else:
            result = {"ok": False,
                      "error": f"unknown job kind {kind!r}"}
    except Exception as exc:  # noqa: BLE001 - any crash is a result
        result = {"ok": False,
                  "error": f"{type(exc).__name__}: {exc}"}
    result.setdefault("schema", RESULT_SCHEMA)
    result.setdefault("kind", kind)
    result["wall_s"] = time.perf_counter() - started
    result["worker_pid"] = os.getpid()
    return result


# ----------------------------------------------------------------------
# fuzz_case
# ----------------------------------------------------------------------
def _run_fuzz_case(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.difftest import analyze_failure, run_spec
    from repro.farm.job import read_fuzz_payload

    spec, backends, shrink = read_fuzz_payload(payload)
    outcomes, mismatches = run_spec(spec, backends=backends)
    result: Dict[str, Any] = {
        "ok": not mismatches,
        "scenario": spec.scenario,
        "index": spec.index,
        "describe": spec.describe(),
        "windows": sum(o.windows for o in outcomes.values()),
        "backend_runs": len(outcomes),
        "mismatches": [m.to_dict() for m in mismatches],
    }
    if mismatches:
        failure = analyze_failure(spec, outcomes, mismatches,
                                  shrink=shrink,
                                  backends=backends)
        result["failure"] = failure_to_doc(failure)
    return result


def failure_to_doc(failure) -> Dict[str, Any]:
    """Serialize a :class:`~repro.difftest.FuzzFailure` (sans paths)."""
    return {
        "index": failure.index,
        "spec": failure.spec.to_dict(),
        "shrunk": failure.shrunk.to_dict(),
        "shrink_steps": list(failure.shrink_steps),
        "mismatches": [m.to_dict() for m in failure.mismatches],
        "recording": (failure.recording.to_dict()
                      if failure.recording is not None else None),
    }


def failure_from_doc(doc: Dict[str, Any]):
    """Rebuild the :class:`~repro.difftest.FuzzFailure` a worker sent."""
    from repro.difftest import FuzzFailure, FuzzSpec, Mismatch
    from repro.replay import SessionRecording

    failure = FuzzFailure(
        index=doc["index"],
        spec=FuzzSpec.from_dict(dict(doc["spec"])),
        mismatches=[Mismatch.from_dict(m) for m in doc["mismatches"]],
        shrunk=FuzzSpec.from_dict(dict(doc["shrunk"])),
        shrink_steps=list(doc["shrink_steps"]),
    )
    if doc.get("recording") is not None:
        failure.recording = SessionRecording.from_dict(doc["recording"])
    return failure


# ----------------------------------------------------------------------
# router
# ----------------------------------------------------------------------
def _run_router(payload: Dict[str, Any],
                artifacts_dir: Optional[str]) -> Dict[str, Any]:
    from repro.cosim import CosimConfig, ProtocolTrace
    from repro.farm.job import read_router_payload
    from repro.router.testbench import build_router_cosim

    workload, run = read_router_payload(payload)
    config = CosimConfig(
        t_sync=run["t_sync"],
        emulated_network_delay_s=run["emulated_network_delay_s"])
    cosim = build_router_cosim(config, workload, mode=run["mode"])
    trace = None
    if run["trace"]:
        trace = ProtocolTrace()
        cosim.session.attach_trace(trace)
    metrics = cosim.run(max_cycles=run["max_cycles"] or None,
                        await_drain=run["await_drain"])
    artifacts = []
    if trace is not None and artifacts_dir:
        os.makedirs(artifacts_dir, exist_ok=True)
        trace_path = os.path.join(artifacts_dir, "trace.csv")
        trace.to_csv(trace_path)
        artifacts.append("trace.csv")
    stats = cosim.stats
    return {
        "ok": True,
        "windows": metrics.windows,
        "master_cycles": metrics.master_cycles,
        "board_ticks": metrics.board_ticks,
        "sync_exchanges": metrics.sync_exchanges,
        "stats": stats.snapshot(),
        "accuracy": stats.handled_fraction(),
        "artifacts": artifacts,
    }
