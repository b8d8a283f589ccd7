"""Transport-layer recording of a live co-simulation session.

:class:`RecordingBoardEndpoint` wraps the board side of any
``BoardEndpoint`` (in-process or TCP — faulty or not) and logs
the complete message stream the board actually observed:

* every ``ClockGrant`` (CLOCK port, master -> board),
* every delivered ``Interrupt`` together with the *poll-call index* at
  which the board received it (INT port, master -> board),
* every DATA operation with its request, reply value and the window in
  which the board issued it (DATA port, board -> master -> board),
* every ``TimeReport`` the board sent back (CLOCK port, board -> master).

Because the wrapper sits *outside* any fault injector, the recording
captures the post-fault stream — drops, duplicates and reconnect
replays appear exactly as the board saw them, so a replay reproduces
their effects without re-injecting anything.

The stream is exactly the board's input/output interface, so re-feeding
it to an identically built board (:mod:`repro.replay.replayer`) is a
closed deterministic system: no sockets, no timers, no wall clock.

Serialized as ``repro-recording/1`` (JSON; byte payloads zlib+base64).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.replay.snapshot import (
    SnapshotError,
    check_int_rows,
    decode_tree,
    encode_tree,
)
from repro.transport.channel import BoardEndpoint
from repro.transport.messages import ClockGrant, Interrupt, TimeReport

#: The recording file schema identifier.
RECORDING_SCHEMA = "repro-recording/1"

#: Data-operation kinds as stored in a recording.
OP_READ = "read"
OP_WRITE = "write"


class SessionRecording:
    """The full recorded message stream of one session, plus metadata.

    ``meta`` carries whatever the recorder's builder needs to
    reconstruct an identical board side (mode, config knobs, workload
    parameters); ``final`` carries the end-of-run ground truth
    (board/app counters, metrics, trace rows) that replay results are
    compared against bit-for-bit.
    """

    def __init__(self, meta: Optional[Dict[str, Any]] = None) -> None:
        self.meta: Dict[str, Any] = dict(meta or {})
        #: ``[seq, ticks]`` per grant, in arrival order.
        self.grants: List[List[int]] = []
        #: ``[poll_index, vector, master_cycle]`` per delivered interrupt.
        self.interrupts: List[List[int]] = []
        #: ``[window, kind, address, value]`` per DATA operation.
        self.data_ops: List[List[Any]] = []
        #: ``[seq, board_ticks]`` per report, in send order.
        self.reports: List[List[int]] = []
        #: Live ``WindowRecord`` rows (when a trace was attached).
        self.trace_rows: List[List[int]] = []
        #: End-of-run summary (board counters, metrics) for comparison.
        self.final: Dict[str, Any] = {}

    # -- statistics ----------------------------------------------------
    @property
    def num_windows(self) -> int:
        """Completed windows — one per report the board sent."""
        return len(self.reports)

    def window_ticks(self, window: int) -> int:
        """Ticks granted for *window* (0-based)."""
        return self.grants[window][1]

    def interrupts_in_window(self, window: int) -> int:
        """Recorded interrupts attributed to *window* by master cycle.

        Mirrors the live trace's accounting: an interrupt sent while
        the master simulated window *w* carries a ``master_cycle`` in
        ``(start_w, end_w]``.
        """
        start = sum(self.grants[i][1] for i in range(window))
        end = start + self.grants[window][1]
        return sum(1 for _poll, _vec, cycle in self.interrupts
                   if start < cycle <= end)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": RECORDING_SCHEMA,
            "meta": self.meta,
            "grants": self.grants,
            "interrupts": self.interrupts,
            "data_ops": encode_tree(self.data_ops),
            "reports": self.reports,
            "trace": self.trace_rows,
            "final": encode_tree(self.final),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SessionRecording":
        validate_recording_dict(payload)
        recording = cls(meta=payload.get("meta", {}))
        recording.grants = [list(g) for g in payload["grants"]]
        recording.interrupts = [list(i) for i in payload["interrupts"]]
        recording.data_ops = [list(op)
                              for op in decode_tree(payload["data_ops"])]
        recording.reports = [list(r) for r in payload["reports"]]
        recording.trace_rows = [list(row)
                                for row in payload.get("trace", [])]
        recording.final = decode_tree(payload.get("final", {}))
        return recording

    def save(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True, indent=1)

    @classmethod
    def load(cls, path: str) -> "SessionRecording":
        with open(path, "r", encoding="ascii") as handle:
            return cls.from_dict(json.load(handle))


def validate_recording_dict(payload: dict) -> None:
    """Schema-check a recording document before trusting any field."""
    if not isinstance(payload, dict):
        raise SnapshotError("recording is not a JSON object")
    schema = payload.get("schema")
    if schema != RECORDING_SCHEMA:
        raise SnapshotError(
            f"unsupported recording schema {schema!r} "
            f"(expected {RECORDING_SCHEMA!r})"
        )
    for key in ("grants", "interrupts", "data_ops", "reports"):
        if not isinstance(payload.get(key), list):
            raise SnapshotError(
                f"recording field {key!r} missing or not a list"
            )
    for key in ("meta", "final"):
        if not isinstance(payload.get(key, {}), dict):
            raise SnapshotError(f"recording field {key!r} is not an object")
    check_int_rows(payload["grants"], "recording grants", width=2)
    check_int_rows(payload["interrupts"], "recording interrupts", width=3)
    check_int_rows(payload["reports"], "recording reports", width=2)
    check_int_rows(payload.get("trace", []), "recording trace")
    for index, op in enumerate(payload["data_ops"]):
        if not (isinstance(op, list) and len(op) == 4
                and isinstance(op[0], int) and op[1] in (OP_READ, OP_WRITE)
                and isinstance(op[2], int)):
            raise SnapshotError(
                f"recording data_ops row {index} is not "
                f"[window, 'read'|'write', address, value]: {str(op)[:60]}")


class RecordingBoardEndpoint(BoardEndpoint):
    """Record everything that crosses the board's transport interface.

    Wrap the *outermost* board endpoint (i.e. outside
    ``FaultyBoardEndpoint``) so the log is the stream the board really
    consumed.  Fully transparent: all calls pass through to ``inner``.
    """

    def __init__(self, inner: BoardEndpoint,
                 recording: Optional[SessionRecording] = None) -> None:
        self.inner = inner
        self.recording = recording if recording is not None \
            else SessionRecording()
        self.poll_calls = 0

    # -- CLOCK ---------------------------------------------------------
    def recv_grant(self, timeout: Optional[float] = None) -> \
            Optional[ClockGrant]:
        grant = self.inner.recv_grant(timeout=timeout)
        if grant is not None:
            self.recording.grants.append([grant.seq, grant.ticks])
        return grant

    def send_report(self, report: TimeReport) -> None:
        self.recording.reports.append([report.seq, report.board_ticks])
        self.inner.send_report(report)

    # -- INT -----------------------------------------------------------
    def poll_interrupt(self) -> Optional[Interrupt]:
        self.poll_calls += 1
        interrupt = self.inner.poll_interrupt()
        if interrupt is not None:
            self.recording.interrupts.append(
                [self.poll_calls, interrupt.vector, interrupt.master_cycle]
            )
        return interrupt

    # -- DATA ----------------------------------------------------------
    def data_read(self, address: int):
        value = self.inner.data_read(address)
        self.recording.data_ops.append(
            [len(self.recording.reports), OP_READ, address, value]
        )
        return value

    def data_write(self, address: int, value) -> None:
        self.recording.data_ops.append(
            [len(self.recording.reports), OP_WRITE, address, value]
        )
        self.inner.data_write(address, value)

    def close(self) -> None:
        self.inner.close()
