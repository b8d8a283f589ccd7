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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "checkpoint": (
        "CHECKPOINT_SCHEMA", "Checkpoint", "CheckpointDivergence",
        "Checkpointer", "capture_checkpoint", "restore_session",
        "validate_checkpoint_dict", "verify_against",
    ),
    "recorder": (
        "OP_READ", "OP_WRITE", "RECORDING_SCHEMA", "RecordingBoardEndpoint",
        "SessionRecording", "board_state_summary", "project_trace",
        "validate_recording_dict",
    ),
    "replayer": (
        "DivergenceReport", "ReplayBoardEndpoint", "ReplayDivergence",
        "ReplayResult", "find_divergence", "replay_recording",
    ),
    "snapshot": (
        "BYTES_KEY", "AttrSnapshot", "SnapshotError", "Snapshotable",
        "canonical_json", "decode_tree", "diff_trees", "encode_tree",
        "is_snapshotable", "missing_snapshotables", "plain_copy",
        "require_keys", "state_digest",
    ),
})
