"""Versioned checkpoints at window boundaries (``repro-checkpoint/3``).

Every ``CLOCK_PORT`` exchange is a full resynchronization point —
simulated time and board time agree exactly — so window boundaries are
the natural checkpoint barrier: no message is in flight, the OS is
frozen in IDLE, the master's window is fully settled.

File format (JSON, schema-checked on load)::

    {
      "schema": "repro-checkpoint/3",
      "window": 12,                  # windows completed at capture
      "master_cycles": 12000,        # == board SW ticks (alignment)
      "seq": 12,                     # protocol sequence number
      "digest": "sha256...",         # over the canonical state tree
      "meta": {...},                 # config fingerprint
      "trace": [[...], ...],         # WindowRecord rows up to `window`
      "state": {                     # full Snapshotable tree
        "master": {...},
        "boards": {"<board name>": {"runtime": {...}, "link": {...}}},
        "extra": {...}
      }
    }

Every key of the tree is required on restore; a document of any other
schema is refused with :class:`SnapshotError`.

Restore semantics: RTOS threads and simkernel processes are Python
generators, whose frames cannot be serialized.  A checkpoint is
therefore restored by *deterministic re-execution*: a freshly built,
identically configured session is run for exactly ``window`` windows,
its snapshot digest is compared against the checkpoint (raising
:class:`CheckpointDivergence` with a leaf-level diff on mismatch), the
plain-data state is re-applied, and the session then resumes live —
bit-exactly, as the acceptance tests prove window by window.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.replay.snapshot import (
    SnapshotError,
    check_int_rows,
    decode_tree,
    diff_trees,
    encode_tree,
    state_digest,
)

#: The checkpoint file schema identifier.
CHECKPOINT_SCHEMA = "repro-checkpoint/3"


class CheckpointDivergence(SnapshotError):
    """Re-executed state does not match the checkpointed state."""

    def __init__(self, message: str, window: int,
                 diffs: Optional[list] = None) -> None:
        super().__init__(message)
        self.window = window
        self.diffs = diffs or []


@dataclass
class Checkpoint:
    """One captured checkpoint (in memory or round-tripped via JSON)."""

    window: int
    master_cycles: int
    seq: int
    state: Dict[str, Any]
    digest: str = ""
    meta: Dict[str, Any] = field(default_factory=dict)
    trace_rows: List[list] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.digest:
            self.digest = state_digest(self.state)

    def to_dict(self) -> dict:
        return {
            "schema": CHECKPOINT_SCHEMA,
            "window": self.window,
            "master_cycles": self.master_cycles,
            "seq": self.seq,
            "digest": self.digest,
            "meta": self.meta,
            "trace": self.trace_rows,
            "state": encode_tree(self.state),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Checkpoint":
        validate_checkpoint_dict(payload)
        checkpoint = cls(
            window=payload["window"],
            master_cycles=payload["master_cycles"],
            seq=payload["seq"],
            state=decode_tree(payload["state"]),
            digest=payload["digest"],
            meta=payload.get("meta", {}),
            trace_rows=[list(row) for row in payload.get("trace", [])],
        )
        actual = state_digest(checkpoint.state)
        if actual != checkpoint.digest:
            raise SnapshotError(
                f"checkpoint digest mismatch: file says "
                f"{checkpoint.digest[:12]}..., state hashes to "
                f"{actual[:12]}... (corrupt or hand-edited?)"
            )
        return checkpoint

    def save(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True, indent=1)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        with open(path, "r", encoding="ascii") as handle:
            return cls.from_dict(json.load(handle))


def validate_checkpoint_dict(payload: dict) -> None:
    """Schema-check a checkpoint document before trusting any field."""
    if not isinstance(payload, dict):
        raise SnapshotError("checkpoint is not a JSON object")
    schema = payload.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise SnapshotError(
            f"unsupported checkpoint schema {schema!r} "
            f"(expected {CHECKPOINT_SCHEMA!r})"
        )
    for key, kind in (("window", int), ("master_cycles", int),
                      ("seq", int), ("digest", str), ("state", dict)):
        if not isinstance(payload.get(key), kind):
            raise SnapshotError(
                f"checkpoint field {key!r} missing or not {kind.__name__}"
            )
    if payload["window"] < 0:
        raise SnapshotError("checkpoint window cannot be negative")
    if not isinstance(payload.get("meta", {}), dict):
        raise SnapshotError("checkpoint field 'meta' is not an object")
    check_int_rows(payload.get("trace", []), "checkpoint trace")


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
def capture_checkpoint(session, meta: Optional[dict] = None) -> Checkpoint:
    """Snapshot *session* (a ``CosimSession``) at the current window
    boundary.  Must only be called between windows — the session hook
    (:class:`Checkpointer`) guarantees that."""
    trace_rows = []
    if session.trace is not None:
        trace_rows = [record.as_row() for record in session.trace.records]
    info = {"t_sync": session.config.t_sync}
    info.update(meta or {})
    return Checkpoint(
        window=session.windows_completed,
        master_cycles=session.master.clock.cycles,
        seq=session.master.protocol.seq,
        state=session.snapshot(),
        meta=info,
        trace_rows=trace_rows,
    )


class Checkpointer:
    """Periodic checkpoint capture, attached to a session.

    ``session.attach_checkpointer(Checkpointer(every=N, directory=d))``
    captures a checkpoint after every *N*-th completed window; with a
    *directory* each is also written as ``checkpoint-<window>.json``.
    """

    def __init__(self, every: int, directory: Optional[str] = None,
                 keep_in_memory: bool = True,
                 meta: Optional[dict] = None) -> None:
        if every <= 0:
            raise SnapshotError("checkpoint interval must be positive")
        self.every = every
        self.directory = directory
        self.keep_in_memory = keep_in_memory
        #: Extra metadata stamped into every captured checkpoint (e.g.
        #: the workload knobs needed to rebuild an identical session).
        self.meta = dict(meta or {})
        self.checkpoints: List[Checkpoint] = []
        self.paths: List[str] = []

    def on_window(self, session) -> None:
        """Session hook: called after every completed window."""
        if session.windows_completed % self.every != 0:
            return
        checkpoint = capture_checkpoint(session, meta=self.meta)
        session.checkpoints_taken += 1
        if self.keep_in_memory:
            self.checkpoints.append(checkpoint)
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
            path = os.path.join(self.directory,
                                f"checkpoint-{checkpoint.window:06d}.json")
            checkpoint.save(path)
            self.paths.append(path)

    @property
    def latest(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def restore_session(session, checkpoint: Checkpoint, strict: bool = True):
    """Bring a *freshly built* session to the checkpointed state.

    The session is deterministically re-executed for exactly
    ``checkpoint.window`` windows (see the module docstring for why),
    its state is verified leaf-by-leaf against the checkpoint, and the
    plain-data state is re-applied.  Returns the fast-forward metrics;
    afterwards ``session.run(...)`` continues the run bit-exactly.

    Any session restores, with any number of boards on any link: TCP
    windows run in the same order as in-process ones, so re-execution
    reproduces them bit for bit.
    """
    if session.windows_completed != 0:
        raise SnapshotError(
            "restore_session needs a fresh session (windows already run)"
        )
    metrics = session.run(max_windows=checkpoint.window)
    verify_against(session, checkpoint, strict=strict)
    session.restore(checkpoint.state)
    session.restores += 1
    session.windows_replayed += checkpoint.window
    obs = getattr(session, "obs", None)
    if obs is not None and obs.enabled:
        obs.event("session", "restore", sim=session.master.clock.cycles,
                  window=checkpoint.window)
    return metrics


def verify_against(session, checkpoint: Checkpoint,
                   strict: bool = True) -> list:
    """Compare *session*'s current state against *checkpoint*.

    Returns the leaf-level diff list (empty when bit-exact); with
    ``strict`` a non-empty diff raises :class:`CheckpointDivergence`.
    """
    state = session.snapshot()
    if state_digest(state) == checkpoint.digest:
        return []
    diffs = diff_trees(checkpoint.state, state)
    if strict:
        sample = "; ".join(
            f"{path}: {expected!r} -> {actual!r}"
            for path, expected, actual in diffs[:5]
        )
        raise CheckpointDivergence(
            f"state diverged from checkpoint at window "
            f"{checkpoint.window} ({len(diffs)} leaves differ: {sample})",
            window=checkpoint.window, diffs=diffs,
        )
    return diffs
