"""Deterministic checkpoint and record/replay subsystem.

Three capabilities built on the protocol's window-boundary
synchronization points:

* **Checkpointing** (:mod:`repro.replay.checkpoint`) — versioned,
  digest-verified session snapshots (``repro-checkpoint/3``) captured
  periodically by a session hook; restore is deterministic
  re-execution plus leaf-level verification.
* **Recording** (:mod:`repro.replay.recorder`) — one row per window
  and board of what crossed the board's CLOCK, INT and DATA ports,
  serialized as ``repro-recording/2``.
* **Replay & bisection** (:mod:`repro.replay.replayer`) — re-feed one
  board's rows to a freshly built board with no sockets and no wall
  clock, compare window-by-window, and report the first divergent
  window.

CLI entry points: ``repro record``, ``repro replay``,
``repro checkpoint``.
"""

from repro.replay.checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointDivergence,
    Checkpointer,
    capture_checkpoint,
    restore_session,
    validate_checkpoint_dict,
    verify_against,
)
from repro.replay.recorder import (
    OP_READ,
    OP_WRITE,
    RECORDING_SCHEMA,
    RecordingBoardEndpoint,
    SessionRecording,
    board_state_summary,
    project_trace,
    validate_recording_dict,
)
from repro.replay.replayer import (
    DivergenceReport,
    ReplayBoardEndpoint,
    ReplayDivergence,
    ReplayResult,
    find_divergence,
    replay_recording,
)
from repro.replay.snapshot import (
    BYTES_KEY,
    AttrSnapshot,
    SnapshotError,
    Snapshotable,
    canonical_json,
    decode_tree,
    diff_trees,
    encode_tree,
    is_snapshotable,
    missing_snapshotables,
    plain_copy,
    require_keys,
    state_digest,
)

__all__ = [
    "AttrSnapshot",
    "BYTES_KEY",
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointDivergence",
    "Checkpointer",
    "DivergenceReport",
    "OP_READ",
    "OP_WRITE",
    "RECORDING_SCHEMA",
    "RecordingBoardEndpoint",
    "ReplayBoardEndpoint",
    "ReplayDivergence",
    "ReplayResult",
    "SessionRecording",
    "SnapshotError",
    "Snapshotable",
    "board_state_summary",
    "canonical_json",
    "capture_checkpoint",
    "decode_tree",
    "diff_trees",
    "encode_tree",
    "find_divergence",
    "is_snapshotable",
    "missing_snapshotables",
    "plain_copy",
    "project_trace",
    "replay_recording",
    "require_keys",
    "restore_session",
    "state_digest",
    "validate_checkpoint_dict",
    "validate_recording_dict",
    "verify_against",
]
