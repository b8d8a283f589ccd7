"""The farm's unit of work: a versioned, serializable job.

A :class:`Job` is everything the co-simulation farm needs to execute
one workload on behalf of one tenant: the job *kind* (which execution
recipe the worker runs), a kind-specific *payload* (for ``fuzz_case``
jobs this embeds a :class:`repro.difftest.workload.FuzzSpec` document
— the same schema ``repro fuzz --spec`` consumes), the submitting
tenant, and a scheduling priority.

Job ids are **deterministic**: :func:`job_id_for` mixes the job's seed,
tenant, kind and name through :func:`repro.determinism.derive_token`,
so resubmitting the identical job yields the identical id (the server
treats that as an idempotent retry) and a client can predict the id of
a job before submitting it — which is how ``repro fuzz --jobs N``
correlates farm results back to campaign indices without any
server-side state.

The wire format is versioned (``repro-job/1``) and validated before
any field is trusted; see ``docs/FARM.md`` for the schema.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.determinism import derive_token
from repro.errors import FarmError, ReproError, WorkloadError

#: Wire-format version tag for serialized jobs.
JOB_SCHEMA = "repro-job/1"

#: Job kinds the worker runner understands.
KIND_FUZZ_CASE = "fuzz_case"
KIND_ROUTER = "router"
JOB_KINDS = (KIND_FUZZ_CASE, KIND_ROUTER)

# -- job states --------------------------------------------------------
PENDING = "pending"
RUNNING = "running"
DONE = "done"          # ran to completion (oracles may still have findings)
FAILED = "failed"      # infrastructure failure: crash, timeout, error
CANCELLED = "cancelled"

STATES = (PENDING, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


def job_id_for(seed: int, tenant: str, kind: str, name: str) -> str:
    """The deterministic id of the job ``(seed, tenant, kind, name)``."""
    return derive_token(seed, "farm-job", tenant, kind, name)


@dataclass
class Job:
    """One submitted unit of work (JSON-serializable, ``repro-job/1``)."""

    tenant: str
    kind: str = KIND_FUZZ_CASE
    #: Kind-specific execution recipe; for ``fuzz_case``: ``spec``
    #: (a FuzzSpec document) or ``base_seed`` and ``index`` (optional
    #: ``scenarios``), optional ``backends`` and ``shrink``.
    payload: Dict[str, Any] = field(default_factory=dict)
    #: Higher runs first within a tenant's queue.
    priority: int = 0
    #: Base seed mixed into the job id.
    seed: int = 0
    #: Client-chosen name; (tenant, kind, name, seed) identifies a job.
    name: str = ""
    job_id: str = ""
    # -- server-managed lifecycle fields -------------------------------
    state: str = PENDING
    #: Monotonic submission sequence number (FIFO tiebreak), assigned
    #: by the scheduler.
    submit_seq: int = -1
    #: Estimated synchronization windows this job will execute, used
    #: for the per-tenant window budget.
    windows_requested: int = 0
    #: Human-readable failure reason (FAILED / CANCELLED states).
    error: str = ""
    #: Result summary stamped by the farm on completion.
    result: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if not self.tenant or not isinstance(self.tenant, str):
            raise FarmError("job tenant must be a non-empty string")
        if self.kind not in JOB_KINDS:
            raise FarmError(
                f"unknown job kind {self.kind!r} (expected one of "
                f"{list(JOB_KINDS)})")
        if not isinstance(self.payload, dict):
            raise FarmError("job payload must be an object")
        if not self.name:
            self.name = self._default_name()
        if not self.job_id:
            self.job_id = job_id_for(self.seed, self.tenant, self.kind,
                                     self.name)
        if not self.windows_requested:
            self.windows_requested = self._estimate_windows()

    # ------------------------------------------------------------------
    def _default_name(self) -> str:
        spec = self.payload.get("spec")
        if isinstance(spec, dict) and "index" in spec:
            return f"case-{spec['index']}"
        return "job"

    def _estimate_windows(self) -> int:
        """Windows this job will execute, from its payload's co-sim
        shape — the quantity per-tenant window budgets are charged in."""
        source = self.payload.get("spec")
        if not isinstance(source, dict):
            source = self.payload
        t_sync = source.get("t_sync") or 100
        max_cycles = source.get("max_cycles") or 2000
        return max(1, -(-max_cycles // t_sync))

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        doc = dataclasses.asdict(self)
        doc["schema"] = JOB_SCHEMA
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Job":
        validate_job_dict(doc)
        # job_id is recomputed, never trusted: a forged or stale id
        # must not survive deserialization.
        fields = {f.name for f in dataclasses.fields(cls)} - {"job_id"}
        payload = {k: v for k, v in doc.items() if k in fields}
        job = cls(**payload)
        if doc.get("job_id") and doc["job_id"] != job.job_id:
            raise FarmError(
                f"job id {doc['job_id']!r} does not match the "
                f"deterministic id {job.job_id!r} for "
                f"(seed={job.seed}, tenant={job.tenant!r}, "
                f"kind={job.kind!r}, name={job.name!r})")
        return job

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True, indent=1)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "Job":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def describe(self) -> str:
        return (f"{self.job_id[:12]} tenant={self.tenant} "
                f"kind={self.kind} name={self.name} prio={self.priority} "
                f"state={self.state}")


#: Transports a hosted router job may request (no raw sockets from
#: unvetted payloads; TCP mode stays an operator-side decision).  The
#: board honours ``emulated_network_delay_s`` in-process too, so a
#: latency-bound job needs no sockets.
_ROUTER_MODES = ("inproc",)

#: The small-job workload a hosted router job starts from; the
#: payload's workload keys override it.
_ROUTER_WORKLOAD = {"packets_per_producer": 2, "interval_cycles": 200,
                    "payload_size": 16, "corrupt_rate": 0.0,
                    "buffer_capacity": 8, "seed": 1}

#: The router payload's run keys: default, type and bounds.
#: ``max_cycles`` 0 runs the job to drain.
_ROUTER_RUN = {"mode": ("inproc", str), "t_sync": (100, int, 1),
               "emulated_network_delay_s": (0.0, float, 0.0),
               "max_cycles": (0, int, 0), "await_drain": (True, bool),
               "trace": (False, bool)}


def read_router_payload(payload: Dict[str, Any]):
    """A ``router`` job payload, validated: ``(workload, run)``, the
    workload through the :class:`~repro.router.testbench.RouterWorkload`
    codec, the run keys of :data:`_ROUTER_RUN` with their defaults.  A
    malformed key raises :class:`~repro.errors.FarmError`."""
    from repro.router.testbench import RouterWorkload, read_keys

    try:
        workload, rest = RouterWorkload.split({**_ROUTER_WORKLOAD,
                                               **payload})
        run = read_keys(rest, _ROUTER_RUN, "keys")
        if run["mode"] not in _ROUTER_MODES:
            raise WorkloadError(f"mode must be one of "
                                f"{list(_ROUTER_MODES)}, got {run['mode']!r}")
    except WorkloadError as exc:
        raise FarmError(f"router payload: {exc}") from None
    return workload, run


#: The ``fuzz_case`` payload's keys: the case is an embedded ``spec``,
#: or the one ``base_seed`` and ``index`` derive over ``scenarios``.
_FUZZ_CASE_KEYS = ("spec", "base_seed", "index", "scenarios", "backends",
                   "shrink")


def read_fuzz_payload(payload: Dict[str, Any]):
    """A ``fuzz_case`` job payload, validated: ``(spec, backends,
    shrink)``.  The spec is read through the
    :class:`~repro.difftest.workload.FuzzSpec` codec or generated as the
    serial campaign would; ``backends`` is None (every backend) or a
    list of known names.  A malformed key raises
    :class:`~repro.errors.FarmError`."""
    from repro.difftest.backends import check_backends
    from repro.difftest.workload import FuzzSpec, generate_spec
    from repro.router.testbench import check_keys, check_value

    try:
        check_keys(payload, _FUZZ_CASE_KEYS, "keys")
        backends = _read_names(payload, "backends")
        if backends is not None:
            check_backends(backends)
        shrink = check_value("shrink", payload.get("shrink", True), bool)
        if payload.get("spec") is None:
            spec = generate_spec(
                check_value("base_seed", payload.get("base_seed"), int),
                check_value("index", payload.get("index"), int, 0),
                scenarios=_read_names(payload, "scenarios"))
            return spec, backends, shrink
    except ReproError as exc:
        raise FarmError(f"fuzz_case payload: {exc}") from None
    try:
        return FuzzSpec.from_dict(payload["spec"]), backends, shrink
    except WorkloadError as exc:
        raise FarmError(f"fuzz_case payload.spec: {exc}") from None


def _read_names(payload: Dict[str, Any], key: str):
    """``payload[key]``, a list of names, or None when it is absent."""
    names = payload.get(key)
    if names is not None and not (
            isinstance(names, list)
            and all(isinstance(name, str) for name in names)):
        raise WorkloadError(f"{key} must be a list of names, got {names!r}")
    return names


def read_payload(kind: str, payload: Dict[str, Any]) -> None:
    """Raise :class:`FarmError` unless *payload* is a valid payload of
    a *kind* job, read by the same reader its worker runs."""
    if kind == KIND_ROUTER:
        read_router_payload(payload)
    else:
        read_fuzz_payload(payload)


def validate_job_dict(doc: Any) -> None:
    """Raise :class:`FarmError` unless *doc* is a valid ``repro-job/1``
    document (schema-checked before any field is trusted)."""
    if not isinstance(doc, dict):
        raise FarmError("job must be a JSON object")
    schema = doc.get("schema", JOB_SCHEMA)
    if schema != JOB_SCHEMA:
        raise FarmError(f"job schema must be {JOB_SCHEMA!r}, "
                        f"got {schema!r}")
    tenant = doc.get("tenant")
    if not isinstance(tenant, str) or not tenant:
        raise FarmError("job.tenant must be a non-empty string")
    kind = doc.get("kind", KIND_FUZZ_CASE)
    if kind not in JOB_KINDS:
        raise FarmError(f"job.kind must be one of {list(JOB_KINDS)}, "
                        f"got {kind!r}")
    payload = doc.get("payload", {})
    if not isinstance(payload, dict):
        raise FarmError("job.payload must be an object")
    for int_field in ("priority", "seed", "windows_requested"):
        value = doc.get(int_field, 0)
        if not isinstance(value, int) or isinstance(value, bool):
            raise FarmError(f"job.{int_field} must be an integer")
    state = doc.get("state", PENDING)
    if state not in STATES:
        raise FarmError(f"job.state must be one of {list(STATES)}, "
                        f"got {state!r}")
    read_payload(kind, payload)
