"""Deterministic replay of one board's recorded rows.

:class:`ReplayBoardEndpoint` is a :class:`BoardEndpoint` whose "remote
master" is one board's rows of a
:class:`~repro.replay.recorder.SessionRecording`: each row's grant is
served in order, its interrupts are re-delivered when the board drains
the INT port at the window's start, and its DATA reads return the
recorded replies (after verifying the board issued the same operation
at the same address).  Feeding it to an identically built board
re-executes the run with **no sockets, no threads started here, and no
wall clock** — the board side is a closed deterministic system once
its transport inputs are fixed.

The replayed board's own rows are kept in the recording's format, so
the recorded and the replayed trace are the same projection
(:func:`~repro.replay.recorder.project_trace`).  Divergence detection
is layered:

* hard divergences — a DATA op or a ``TimeReport`` that differs from
  the row — abort immediately in strict mode, or are collected with
  their window index otherwise;
* the replayed trace is compared row-by-row against the recorded one;
* end-of-run board counters are compared against the recorded summary.

:func:`find_divergence` merges all three into the first mismatching
window — the bisection primitive behind ``repro replay --bisect``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.cosim.board_runtime import CosimBoardRuntime
from repro.cosim.trace import ProtocolTrace
from repro.errors import ReproError
from repro.obs.recorder import install_recorder, make_recorder
from repro.replay.recorder import (
    OP_READ,
    OP_WRITE,
    SessionRecording,
    board_state_summary,
    new_row,
    project_trace,
)
from repro.transport.channel import BoardEndpoint
from repro.transport.messages import ClockGrant, Interrupt, TimeReport


class ReplayDivergence(ReproError):
    """Replayed execution departed from the recording."""

    def __init__(self, message: str, window: int, kind: str,
                 expected: Any = None, actual: Any = None) -> None:
        super().__init__(message)
        self.window = window
        self.kind = kind
        self.expected = expected
        self.actual = actual


class ReplayBoardEndpoint(BoardEndpoint):
    """Serve one board's recorded rows to its runtime as if it were the
    master.  The one cursor is the window: the number of rows the
    replayed board has completed."""

    def __init__(self, rows: List[Dict[str, Any]],
                 strict: bool = True) -> None:
        self.rows = rows
        self.strict = strict
        #: The rows the replayed board produced, in the recorded format.
        self.replayed: List[Dict[str, Any]] = []
        #: Soft + hard mismatches: {window, kind, expected, actual}.
        self.divergences: List[Dict[str, Any]] = []
        self._row: Dict[str, Any] = {}
        self._out: Dict[str, Any] = {}

    # -- divergence plumbing -------------------------------------------
    @property
    def window(self) -> int:
        """Current window index = reports completed so far."""
        return len(self.replayed)

    def _diverge(self, kind: str, expected: Any, actual: Any) -> None:
        self.divergences.append({"window": self.window, "kind": kind,
                                 "expected": expected, "actual": actual})
        if self.strict:
            raise ReplayDivergence(
                f"replay diverged in window {self.window} ({kind}): "
                f"recorded {expected!r}, replayed {actual!r}",
                window=self.window, kind=kind,
                expected=expected, actual=actual,
            )

    # -- CLOCK ---------------------------------------------------------
    def recv_grant(self, timeout: Optional[float] = None) -> \
            Optional[ClockGrant]:
        if self.window >= len(self.rows):
            return None
        self._row = self.rows[self.window]
        seq, ticks = self._row["grant"]
        grant = ClockGrant(seq=seq, ticks=ticks)
        self._out = new_row(grant)
        return grant

    def send_report(self, report: TimeReport) -> None:
        self._out["report"] = [report.seq, report.board_ticks]
        if self._out["report"] != self._row["report"]:
            self._diverge("report", self._row["report"], self._out["report"])
        recorded, issued = len(self._row["data"]), len(self._out["data"])
        if issued < recorded:
            self._diverge("data_overrun", recorded, issued)
        self.replayed.append(self._out)

    # -- INT -----------------------------------------------------------
    def poll_interrupt(self) -> Optional[Interrupt]:
        delivered = self._out["interrupts"]
        if len(delivered) == len(self._row["interrupts"]):
            return None
        vector, master_cycle = self._row["interrupts"][len(delivered)]
        delivered.append([vector, master_cycle])
        return Interrupt(vector=vector, master_cycle=master_cycle)

    # -- DATA ----------------------------------------------------------
    def _next_data_op(self, kind: str, address: int) -> Optional[list]:
        """The recorded op the board's next one must match; ``None``
        once the row has none left."""
        index = len(self._out["data"])
        if index >= len(self._row["data"]):
            self._diverge("data_underrun", None, [kind, address])
            return None
        op = self._row["data"][index]
        if op[:2] != [kind, address]:
            self._diverge("data_op", op[:2], [kind, address])
        return op

    def data_read(self, address: int):
        op = self._next_data_op(OP_READ, address)
        value = 0 if op is None else op[2]
        self._out["data"].append([OP_READ, address, value])
        return value

    def data_write(self, address: int, value) -> None:
        op = self._next_data_op(OP_WRITE, address)
        if op is not None and op[2] != value:
            self._diverge("data_value", op[2], value)
        self._out["data"].append([OP_WRITE, address, value])

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# The replay driver
# ----------------------------------------------------------------------
@dataclass
class ReplayResult:
    """Outcome of replaying one board."""

    #: The replayed board's name in the recording.
    board: str
    #: The rows the replayed board produced.
    rows: List[Dict[str, Any]]
    divergences: List[Dict[str, Any]]
    board_summary: Dict[str, Any]
    #: The replay's span recorder (NULL_RECORDER unless the config
    #: enabled tracing); compare via ``repro.obs.deterministic_view``.
    obs: Any = None

    @property
    def clean(self) -> bool:
        return not self.divergences

    @property
    def trace(self) -> ProtocolTrace:
        return project_trace(self.rows)

    @property
    def windows_replayed(self) -> int:
        return len(self.rows)

    @property
    def interrupts_delivered(self) -> int:
        return sum(len(row["interrupts"]) for row in self.rows)

    @property
    def data_ops_replayed(self) -> int:
        return sum(len(row["data"]) for row in self.rows)


def replay_recording(recording: SessionRecording,
                     board_factory: Callable[[BoardEndpoint], Any],
                     board: str, config=None, strict: bool = True,
                     obs_targets=()) -> ReplayResult:
    """Re-execute the recording's board *board* and compare as we go.

    *board_factory* receives the :class:`ReplayBoardEndpoint` and
    returns a freshly built board with the same construction parameters
    as the recorded one (``recording.meta`` carries them for the CLI's
    router scenario); its drivers must capture that endpoint, as the
    live board's captured its recorder.  Every row replays through
    :meth:`~repro.cosim.board_runtime.CosimBoardRuntime.serve_window`,
    whichever link it was recorded on.

    When ``config.tracing`` enables tracing, a fresh recorder is
    installed on the board runtime (and on every object in
    *obs_targets* — e.g. an ISS-backed verifier the factory built) and
    returned on :attr:`ReplayResult.obs`.
    """
    if board not in recording.boards:
        raise ReproError(f"the recording holds no board {board!r} "
                         f"(it holds {sorted(recording.boards)})")
    endpoint = ReplayBoardEndpoint(recording.boards[board], strict=strict)
    built = board_factory(endpoint)
    runtime = CosimBoardRuntime(built, endpoint, config)
    # Mirror the live session: the recorder goes in after runtime
    # construction so the boot-time freeze is untraced in both runs.
    obs = make_recorder(getattr(config, "tracing", None))
    install_recorder(obs, runtime=runtime)
    for target in obs_targets:
        target.obs = obs
    for _row in endpoint.rows:
        runtime.serve_window()
    return ReplayResult(board=board, rows=endpoint.replayed,
                        divergences=endpoint.divergences,
                        board_summary=board_state_summary(built), obs=obs)


# ----------------------------------------------------------------------
# Divergence bisection
# ----------------------------------------------------------------------
@dataclass
class DivergenceReport:
    """First point where a replay departed from its recording."""

    first_window: Optional[int]
    stream_divergences: List[Dict[str, Any]]
    trace_mismatches: List[Dict[str, Any]]
    summary_mismatches: List[Dict[str, Any]]

    @property
    def clean(self) -> bool:
        return (not self.stream_divergences
                and not self.trace_mismatches
                and not self.summary_mismatches)

    def describe(self) -> str:
        if self.clean:
            return "replay is bit-identical to the recording"
        lines = [f"first divergent window: {self.first_window}"]
        for entry in (self.stream_divergences[:5]
                      + self.trace_mismatches[:5]):
            lines.append(
                f"  window {entry['window']} [{entry['kind']}]: "
                f"recorded {entry['expected']!r} != "
                f"replayed {entry['actual']!r}"
            )
        for entry in self.summary_mismatches:
            lines.append(
                f"  end-of-run {entry['kind']}: recorded "
                f"{entry['expected']!r} != replayed {entry['actual']!r}"
            )
        return "\n".join(lines)


def find_divergence(recording: SessionRecording,
                    result: ReplayResult) -> DivergenceReport:
    """Merge stream-, trace- and summary-level comparison into the
    first mismatching window (the bisection answer)."""
    trace_mismatches: List[Dict[str, Any]] = []
    expected_rows = [record.as_row()
                     for record in recording.trace(result.board).records]
    actual_rows = [record.as_row() for record in result.trace.records]
    for index in range(max(len(expected_rows), len(actual_rows))):
        expected = expected_rows[index] if index < len(expected_rows) \
            else None
        actual = actual_rows[index] if index < len(actual_rows) else None
        if expected != actual:
            trace_mismatches.append({
                "window": index, "kind": "trace_row",
                "expected": expected, "actual": actual,
            })

    summary_mismatches: List[Dict[str, Any]] = []
    recorded_summary = recording.final["boards"][result.board]
    for key in sorted(set(recorded_summary) | set(result.board_summary)):
        expected = recorded_summary.get(key)
        actual = result.board_summary.get(key)
        if actual != expected:
            summary_mismatches.append({
                "window": result.windows_replayed, "kind": key,
                "expected": expected, "actual": actual,
            })

    windows = [entry["window"] for entry in result.divergences]
    windows += [entry["window"] for entry in trace_mismatches]
    first = min(windows) if windows else (
        result.windows_replayed if summary_mismatches else None
    )
    return DivergenceReport(
        first_window=first,
        stream_divergences=list(result.divergences),
        trace_mismatches=trace_mismatches,
        summary_mismatches=summary_mismatches,
    )
