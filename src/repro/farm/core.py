"""The farm facade: scheduler + worker pool + result store, one lock.

:class:`Farm` glues the pure :class:`~repro.farm.scheduler.Scheduler`
to the crash-isolated :class:`~repro.farm.pool.WorkerPool` and the
persistent :class:`~repro.farm.store.ResultStore`, and exposes the
thread-safe API the HTTP server (and in-process clients like
``repro fuzz --jobs N``) call: submit, cancel, wait, status snapshots
and an ordered event feed for streaming endpoints.

Concurrency model — deliberately minimal:

* **One condition variable** (``self._cond``) guards all farm state:
  the scheduler, the job table, the event log and the lifecycle flags.
  With a single lock there is no acquisition order to get wrong.
* **One manager thread** runs the dispatch loop.  It is the *only*
  caller of the worker pool (the pool's single-consumer contract), so
  the pool itself holds no locks.  Slow pool operations — polling
  worker pipes, killing a cancelled worker — happen *outside* the farm
  lock; only the bookkeeping they imply happens under it.
* API threads (HTTP handlers, CLI) never touch the pool.  They mutate
  scheduler state under the lock and nudge the manager via notify.

Jobs finish ``done`` when their workload ran to completion (a fuzz
case that *convicts* a mismatch is still ``done`` — conviction is the
job's output, not an infrastructure failure), ``failed`` on worker
crash, per-job timeout or execution error, and ``cancelled`` when a
client or shutdown revoked them first.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FarmError
from repro.farm.job import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    Job,
    read_payload,
)
from repro.farm.pool import EVENT_DONE, WorkerPool
from repro.farm.scheduler import Scheduler, TenantQuota
from repro.farm.store import ResultStore
from repro.obs.recorder import NullRecorder

#: Event-log bound; older entries are dropped (the feed keeps absolute
#: sequence numbers, so a slow consumer observes the gap).
MAX_EVENTS = 10_000


class Farm:
    """A running co-simulation farm (manager thread + worker pool)."""

    def __init__(self, workers: int = 2,
                 results_dir: Optional[str] = None,
                 default_quota: Optional[TenantQuota] = None,
                 quotas: Optional[Dict[str, TenantQuota]] = None,
                 job_timeout_s: Optional[float] = None,
                 poll_interval_s: float = 0.05,
                 obs=None) -> None:
        self._cond = threading.Condition()
        self._scheduler = Scheduler(default_quota=default_quota,
                                    quotas=quotas)
        self._pool = WorkerPool(workers, job_timeout_s=job_timeout_s)
        self._store = ResultStore(results_dir) if results_dir else None
        self._poll_interval_s = poll_interval_s
        self._jobs: Dict[str, Job] = {}
        self._results: Dict[str, Dict[str, Any]] = {}
        self._events: List[Dict[str, Any]] = []
        self._event_seq = 0
        self._cancel_requests: List[str] = []
        self._started = False
        self._stop = False
        self._drain = True
        self._thread: Optional[threading.Thread] = None
        self.obs = obs if obs is not None else NullRecorder()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "Farm":
        """Start the worker pool and the manager thread."""
        with self._cond:
            if self._started:
                return self
            self._started = True
            self._stop = False
        self._pool.start()
        thread = threading.Thread(target=self._run,
                                  name="farm-manager", daemon=True)
        with self._cond:
            self._thread = thread
        thread.start()
        return self

    def __enter__(self) -> "Farm":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, drain: bool = True,
                 timeout_s: float = 30.0) -> None:
        """Stop the farm.

        With ``drain=True`` queued and running jobs finish first (up
        to *timeout_s*); with ``drain=False`` queued jobs are cancelled
        immediately and running jobs are killed.  Either way the
        manager thread is joined, every worker process is reaped, and
        the result store is flushed — no orphans, no torn index.
        """
        with self._cond:
            if not self._started:
                return
            self._stop = True
            self._drain = drain
            if not drain:
                for job in self._scheduler.queued_jobs():
                    self._scheduler.cancel_queued(job.job_id)
                    self._finish_locked(job, CANCELLED,
                                        error="cancelled by shutdown")
            self._cond.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout_s)
        self._pool.shutdown()
        with self._cond:
            # Anything still non-terminal lost its worker to the pool
            # shutdown above.
            for job in self._jobs.values():
                if not job.terminal:
                    self._scheduler.job_finished(job)
                    self._finish_locked(job, CANCELLED,
                                        error="farm shut down")
            self._started = False
            self._thread = None
            if self._store is not None:
                self._store.flush()
            self._cond.notify_all()

    def abort_drain(self) -> None:
        """Turn an in-progress draining shutdown into an immediate one:
        queued jobs are cancelled and the manager stops as soon as the
        pool reports in (running jobs die with the pool).  Idempotent;
        a no-op unless :meth:`shutdown` has begun."""
        with self._cond:
            if not self._stop:
                return
            self._drain = False
            for job in self._scheduler.queued_jobs():
                self._scheduler.cancel_queued(job.job_id)
                self._finish_locked(job, CANCELLED,
                                    error="cancelled by shutdown")
            self._cond.notify_all()

    # -- client API ----------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Admit *job*; raises :class:`repro.errors.QuotaExceeded` when
        the tenant's window budget is blown.  Resubmitting a job id
        that already exists returns the existing job (idempotent
        retry — job ids are deterministic).  A malformed payload raises
        :class:`FarmError` and queues nothing."""
        read_payload(job.kind, job.payload)
        with self._cond:
            if not self._started or self._stop:
                raise FarmError("farm is not accepting jobs")
            existing = self._jobs.get(job.job_id)
            if existing is not None:
                return existing
            self._scheduler.submit(job)
            job.state = PENDING
            self._jobs[job.job_id] = job
            self._emit_locked("submitted", job)
            self._cond.notify_all()
        if self.obs.enabled:
            self.obs.event("farm", "submit", job_id=job.job_id,
                           tenant=job.tenant, kind=job.kind)
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a job: queued jobs die immediately; running jobs get
        their worker killed by the manager thread.  Returns False for
        unknown or already-terminal jobs."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return False
            queued = self._scheduler.cancel_queued(job_id)
            if queued is not None:
                self._finish_locked(job, CANCELLED,
                                    error="cancelled by client")
                return True
            # Running (or about to run): the manager owns the pool, so
            # hand it the kill request.
            self._cancel_requests.append(job_id)
            self._cond.notify_all()
            return True

    def job(self, job_id: str) -> Optional[Job]:
        """The job record for *job_id* (``None`` when unknown)."""
        with self._cond:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job in submission order."""
        with self._cond:
            return sorted(self._jobs.values(),
                          key=lambda j: j.submit_seq)

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The full worker result document for a terminal job."""
        with self._cond:
            result = self._results.get(job_id)
        if result is not None:
            return result
        if self._store is not None:
            return self._store.result(job_id)
        return None

    def wait(self, job_id: Optional[str] = None,
             timeout_s: Optional[float] = None) -> bool:
        """Block until *job_id* is terminal (or, with no id, until the
        farm is idle).  Returns False on timeout."""
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        with self._cond:
            while True:
                if job_id is not None:
                    job = self._jobs.get(job_id)
                    if job is None:
                        raise FarmError(f"unknown job {job_id!r}")
                    if job.terminal:
                        return True
                elif self._idle_locked():
                    return True
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                # Condition.wait releases the farm lock while blocked.
                self._cond.wait(timeout=remaining)  # lint: disable=CONC002

    def events_since(self, cursor: int,
                     wait_s: Optional[float] = None
                     ) -> Tuple[int, List[Dict[str, Any]]]:
        """Events with sequence number > *cursor* (for streaming).

        With *wait_s* the call blocks up to that long for fresh events
        before returning an empty batch.  Returns ``(new_cursor,
        events)``; feeding ``new_cursor`` back in resumes exactly after
        the last delivered event.
        """
        deadline = (time.monotonic() + wait_s
                    if wait_s is not None else None)
        with self._cond:
            while True:
                fresh = [e for e in self._events if e["seq"] > cursor]
                if fresh or deadline is None:
                    new_cursor = fresh[-1]["seq"] if fresh else cursor
                    return new_cursor, fresh
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return cursor, []
                # Condition.wait releases the farm lock while blocked.
                self._cond.wait(timeout=remaining)  # lint: disable=CONC002

    def snapshot(self) -> Dict[str, Any]:
        """Status counters for ``/metrics`` and ``repro jobs``."""
        with self._cond:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "jobs": len(self._jobs),
                "states": states,
                "queue_depth": self._scheduler.depth,
                "queue_depth_peak": self._scheduler.depth_peak,
                "in_flight": self._scheduler.in_flight,
                "workers": self._pool.size,
                "workers_busy": self._pool.busy,
                "workers_busy_peak": self._pool.busy_peak,
                "tasks_dispatched": self._pool.tasks_dispatched,
                "tasks_completed": self._pool.tasks_completed,
                "crashes": self._pool.crashes,
                "timeouts": self._pool.timeouts,
                "worker_pids": self._pool.worker_pids(),
                "tenants": self._scheduler.tenant_snapshot(),
            }

    def metrics_summary(self) -> str:
        """One line of the farm counters from :meth:`snapshot`."""
        snap = self.snapshot()
        states = snap["states"]
        return (
            f"farm_jobs={snap['jobs']} "
            f"done={states.get(DONE, 0)} failed={states.get(FAILED, 0)} "
            f"queue_peak={snap['queue_depth_peak']} "
            f"busy_peak={snap['workers_busy_peak']} "
            f"crashes={snap['crashes']} timeouts={snap['timeouts']}"
        )

    @property
    def store(self) -> Optional[ResultStore]:
        """The result store (``None`` for in-memory farms)."""
        return self._store

    @property
    def workers(self) -> int:
        """The worker pool size."""
        return self._pool.size

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (for the no-orphan shutdown tests)."""
        return self._pool.worker_pids()

    # -- manager thread ------------------------------------------------
    def _run(self) -> None:
        """Dispatch loop: the only thread that touches the pool."""
        span = None
        if self.obs.enabled:
            span = self.obs.begin("farm", "manager")
        while True:
            with self._cond:
                kills = list(self._cancel_requests)
                del self._cancel_requests[:]
                self._dispatch_locked()
                if self._stop and (not self._drain
                                   or self._idle_locked()):
                    break
            for job_id in kills:
                if self._pool.cancel(job_id):
                    with self._cond:
                        job = self._jobs.get(job_id)
                        if job is not None and not job.terminal:
                            self._scheduler.job_finished(job)
                            self._finish_locked(
                                job, CANCELLED,
                                error="cancelled by client")
            events = self._pool.poll(self._poll_interval_s)
            if events:
                with self._cond:
                    for kind, key, payload in events:
                        self._complete_locked(kind, key, payload)
                    self._cond.notify_all()
        if span is not None:
            self.obs.end(span)

    def _idle_locked(self) -> bool:
        return self._scheduler.depth == 0 \
            and self._scheduler.in_flight == 0

    def _dispatch_locked(self) -> None:
        while self._pool.idle_workers > 0:
            job = self._scheduler.next_job()
            if job is None:
                return
            job.state = RUNNING
            artifacts_dir = None
            if self._store is not None:
                artifacts_dir = self._store.artifacts_dir(job.job_id)
            self._pool.dispatch(job.job_id, {
                "job": job.to_dict(),
                "artifacts_dir": artifacts_dir,
            })
            self._emit_locked("started", job)
            if self.obs.enabled:
                self.obs.event("farm", "dispatch", job_id=job.job_id,
                               tenant=job.tenant)

    def _complete_locked(self, kind: str, key: str,
                         payload: Dict[str, Any]) -> None:
        job = self._jobs.get(key)
        if job is None or job.terminal:
            return
        self._scheduler.job_finished(job)
        if kind == EVENT_DONE:
            self._results[key] = payload
            self._write_failure_artifacts(job, payload)
            error = payload.get("error", "")
            state = FAILED if error else DONE
            job.result = self._summarize_result(payload)
            self._finish_locked(job, state, error=error,
                                result_doc=payload)
        else:
            # crashed / timeout
            self._finish_locked(job, FAILED,
                                error=payload.get("error",
                                                  f"worker {kind}"))

    def _summarize_result(self, payload: Dict[str, Any]
                          ) -> Dict[str, Any]:
        summary = {key: payload[key]
                   for key in ("ok", "windows", "wall_s", "scenario",
                               "accuracy", "backend_runs")
                   if key in payload}
        if payload.get("mismatches"):
            summary["mismatch_count"] = len(payload["mismatches"])
        if payload.get("artifacts"):
            summary["artifacts"] = list(payload["artifacts"])
        return summary

    def _write_failure_artifacts(self, job: Job,
                                 payload: Dict[str, Any]) -> None:
        """Persist a convicted fuzz case's repro artifacts (the shrunk
        workload and its recording) next to the job's results."""
        if self._store is None or not payload.get("failure"):
            return
        from repro.difftest import write_failure_artifacts
        from repro.farm.runner import failure_from_doc

        try:
            failure = failure_from_doc(payload["failure"])
            write_failure_artifacts(
                failure, self._store.artifacts_dir(job.job_id))
        except Exception as exc:  # noqa: BLE001 - artifact best-effort
            payload.setdefault(
                "artifact_error", f"{type(exc).__name__}: {exc}")

    def _finish_locked(self, job: Job, state: str, error: str = "",
                       result_doc: Optional[Dict[str, Any]] = None
                       ) -> None:
        job.state = state
        if error:
            job.error = error
        if self._store is not None:
            if result_doc is not None and job.result is None:
                job.result = self._summarize_result(result_doc)
            self._store.record(job)
        self._emit_locked(state, job)
        self._cond.notify_all()
        if self.obs.enabled:
            self.obs.event("farm", f"job-{state}", job_id=job.job_id,
                           tenant=job.tenant)

    def _emit_locked(self, kind: str, job: Job) -> None:
        self._event_seq += 1
        self._events.append({
            "seq": self._event_seq,
            "event": kind,
            "job_id": job.job_id,
            "tenant": job.tenant,
            "name": job.name,
            "state": job.state,
            "error": job.error,
        })
        if len(self._events) > MAX_EVENTS:
            del self._events[:len(self._events) - MAX_EVENTS]
