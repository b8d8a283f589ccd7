"""Transport-layer recording of a live co-simulation session.

The board sees the simulated hardware only through its three ports, so
what crossed them is the board's whole input.  A
:class:`RecordingBoardEndpoint` wraps one board's outermost endpoint —
in-process or TCP, faulty or not — where the board is built, and logs
one row per window:

* ``grant`` — the window's ``ClockGrant`` ``[seq, ticks]`` (CLOCK),
* ``interrupts`` — the ``[vector, master_cycle]`` packets the board
  drained at the window's start (INT),
* ``data`` — the window's ``[kind, address, value]`` DATA operations,
  a read's value being the master's reply (DATA),
* ``report`` — the ``TimeReport`` ``[seq, board_ticks]`` it sent back.

Because the wrapper sits *outside* any fault injector, the rows hold
the post-fault stream — drops and delays appear exactly as
the board saw them, so a replay reproduces their effects without
re-injecting anything.  Re-feeding one board's rows to an identically
built board (:mod:`repro.replay.replayer`) is a closed deterministic
system: no sockets, no timers, no wall clock.

Serialized as ``repro-recording/2``: ``{"schema", "meta", "boards":
{name: [row, ...]}, "final"}`` (JSON; byte payloads zlib+base64).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.cosim.protocol import is_shutdown
from repro.cosim.trace import ProtocolTrace
from repro.errors import ProtocolError
from repro.replay.snapshot import (
    SnapshotError,
    check_int_rows,
    decode_tree,
    encode_tree,
)
from repro.transport.channel import BoardEndpoint
from repro.transport.messages import ClockGrant, Interrupt, TimeReport

#: The recording file schema identifier.
RECORDING_SCHEMA = "repro-recording/2"

#: Data-operation kinds as stored in a recording.
OP_READ = "read"
OP_WRITE = "write"

#: The keys of one window row.
ROW_KEYS = ("grant", "interrupts", "data", "report")


def new_row(grant: ClockGrant) -> Dict[str, Any]:
    """An open window row for *grant*; its report closes it."""
    return {"grant": [grant.seq, grant.ticks], "interrupts": [],
            "data": [], "report": None}


def project_trace(rows: List[Dict[str, Any]]) -> ProtocolTrace:
    """The :class:`ProtocolTrace` of one board's rows.

    The master clock starts at 0 and advances by each grant.  A DATA
    read counts two messages (request + reply) and a write one, as
    :class:`~repro.transport.channel.LinkStats` counts them.  The
    interrupt column counts the packets the board *received*, as the
    live trace does, so a ``drop_interrupts`` fault leaves the two
    equal.
    """
    trace = ProtocolTrace()
    master_cycles = 0
    for row in rows:
        ticks = row["grant"][1]
        master_cycles += ticks
        trace.record(ticks=ticks, master_cycles=master_cycles,
                     board_ticks=row["report"][1],
                     interrupts=len(row["interrupts"]),
                     data_messages=sum(2 if op[0] == OP_READ else 1
                                       for op in row["data"]))
    return trace


def board_state_summary(board) -> Dict[str, Any]:
    """Deterministic board counters compared between record and replay."""
    kernel = board.kernel
    return {
        "board_ticks": kernel.sw_ticks,
        "board_cycles": kernel.cycles,
        "state_switches": kernel.state_switches,
        "context_switches": kernel.context_switches,
        "idle_cycles": kernel.idle_cycles,
        "kernel_cycles": kernel.kernel_cycles,
        "memory_reads": board.memory.reads,
        "memory_writes": board.memory.writes,
        "bus_accesses": board.bus.accesses,
    }


class SessionRecording:
    """The recorded rows of every board of one session, plus metadata.

    ``meta`` carries whatever the recorder's builder needs to
    reconstruct an identical board side (mode, config knobs, workload
    parameters); ``final`` carries the end-of-run ground truth
    (``final["boards"]``: each board's :func:`board_state_summary`)
    that replay results are compared against bit-for-bit.
    """

    def __init__(self, meta: Optional[Dict[str, Any]] = None) -> None:
        self.meta: Dict[str, Any] = dict(meta or {})
        #: Board name -> one row per completed window.
        self.boards: Dict[str, List[Dict[str, Any]]] = {}
        #: End-of-run summary (board counters, metrics) for comparison.
        self.final: Dict[str, Any] = {}

    def trace(self, board: str) -> ProtocolTrace:
        """The recorded trace of *board*: a projection of its rows."""
        return project_trace(self.boards[board])

    def finish(self, session) -> None:
        """Stamp each board's end-of-run counters, after the run."""
        self.final["boards"] = {
            slot.name: board_state_summary(slot.runtime.board)
            for slot in session.slots}

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": RECORDING_SCHEMA,
            "meta": self.meta,
            "boards": encode_tree(self.boards),
            "final": encode_tree(self.final),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SessionRecording":
        boards = validate_recording_dict(payload)
        recording = cls(meta=payload["meta"])
        recording.boards = boards
        recording.final = decode_tree(payload["final"])
        return recording

    def save(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True, indent=1)

    @classmethod
    def load(cls, path: str) -> "SessionRecording":
        with open(path, "r", encoding="ascii") as handle:
            return cls.from_dict(json.load(handle))


def validate_recording_dict(payload: dict) -> Dict[str, List[dict]]:
    """Schema-check a recording document before trusting any field, and
    return its decoded boards.  Row shapes, grant order and DATA value
    types are refused here, as a :class:`SnapshotError`, so that a
    replayed board never sees them."""
    if not isinstance(payload, dict):
        raise SnapshotError("recording is not a JSON object")
    schema = payload.get("schema")
    if schema != RECORDING_SCHEMA:
        raise SnapshotError(
            f"unsupported recording schema {schema!r} "
            f"(expected {RECORDING_SCHEMA!r})"
        )
    for key in ("meta", "boards", "final"):
        if not isinstance(payload.get(key), dict):
            raise SnapshotError(
                f"recording field {key!r} missing or not an object")
    boards = decode_tree(payload["boards"])
    if not boards:
        raise SnapshotError("recording holds no board")
    for name, rows in boards.items():
        if not isinstance(rows, list):
            raise SnapshotError(f"recording board {name!r} is not a list")
        for index, row in enumerate(rows):
            _check_row(row, f"recording board {name!r} row {index}", index)
    summaries = payload["final"].get("boards")
    if not (isinstance(summaries, dict) and set(summaries) == set(boards)):
        raise SnapshotError(
            f"recording final 'boards' must map each of {sorted(boards)} "
            f"to its summary")
    for name, summary in summaries.items():
        if not (isinstance(summary, dict)
                and all(isinstance(value, int)
                        for value in summary.values())):
            raise SnapshotError(
                f"recording final summary of {name!r} is not an object "
                f"of integers: {repr(summary)[:60]}")
    return boards


def _check_row(row: Any, what: str, index: int) -> None:
    """One window row: its four keys, a grant of >= 1 ticks whose seq
    is ``index + 1``, and DATA values that are ints or bytes."""
    if not (isinstance(row, dict) and sorted(row) == sorted(ROW_KEYS)):
        raise SnapshotError(f"{what} does not hold exactly {list(ROW_KEYS)}")
    for key in ("grant", "report"):
        pair = row[key]
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(cell, int) for cell in pair)):
            raise SnapshotError(
                f"{what} {key} is not 2 integers: {repr(pair)[:60]}")
    seq, ticks = row["grant"]
    if seq != index + 1 or ticks < 1:
        raise SnapshotError(
            f"{what} grant {row['grant']} is not [{index + 1}, ticks >= 1]")
    check_int_rows(row["interrupts"], f"{what} interrupts", width=2)
    if not isinstance(row["data"], list):
        raise SnapshotError(f"{what} data is not a list")
    for op in row["data"]:
        if not (isinstance(op, list) and len(op) == 3
                and op[0] in (OP_READ, OP_WRITE)
                and isinstance(op[1], int)
                and isinstance(op[2], (int, bytes))):
            raise SnapshotError(
                f"{what} data op is not ['read'|'write', address, "
                f"int or bytes]: {repr(op)[:60]}")


class RecordingBoardEndpoint(BoardEndpoint):
    """Record everything that crosses one board's transport interface,
    as that board's rows of *recording*.

    Wrap the board's *outermost* endpoint (i.e. outside
    ``FaultyBoardEndpoint``) where the board is built, before its
    drivers capture it, so the log is the stream the board really
    consumed.  Fully transparent: all calls pass through to ``inner``.
    """

    def __init__(self, inner: BoardEndpoint, recording: SessionRecording,
                 name: str) -> None:
        if name in recording.boards:
            raise ProtocolError(f"board {name!r} is already recorded")
        self.inner = inner
        self.rows = recording.boards[name] = []
        self._row: Optional[Dict[str, Any]] = None

    # -- CLOCK ---------------------------------------------------------
    def recv_grant(self, timeout: Optional[float] = None) -> \
            Optional[ClockGrant]:
        grant = self.inner.recv_grant(timeout=timeout)
        if grant is not None and not is_shutdown(grant):
            self._row = new_row(grant)
        return grant

    def send_report(self, report: TimeReport) -> None:
        self._row["report"] = [report.seq, report.board_ticks]
        self.rows.append(self._row)
        self.inner.send_report(report)

    # -- INT -----------------------------------------------------------
    def poll_interrupt(self) -> Optional[Interrupt]:
        interrupt = self.inner.poll_interrupt()
        if interrupt is not None:
            self._row["interrupts"].append(
                [interrupt.vector, interrupt.master_cycle])
        return interrupt

    # -- DATA ----------------------------------------------------------
    def data_read(self, address: int):
        value = self.inner.data_read(address)
        self._row["data"].append([OP_READ, address, value])
        return value

    def data_write(self, address: int, value) -> None:
        self._row["data"].append([OP_WRITE, address, value])
        self.inner.data_write(address, value)

    def close(self) -> None:
        self.inner.close()
