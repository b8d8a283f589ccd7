"""Deterministic replay of a recorded co-simulation message stream.

:class:`ReplayBoardEndpoint` is a :class:`BoardEndpoint` whose "remote
master" is a :class:`~repro.replay.recorder.SessionRecording`: grants
are served in recorded order, interrupts are re-delivered at the poll
call at which the live board received them, and DATA reads return the
recorded reply values (after verifying the board issued the same
operation at the same address).  Feeding it to an identically built
board re-executes the run with **no sockets, no threads started here,
and no wall clock** — the board side is a closed deterministic system
once its transport inputs are fixed.

Divergence detection is layered:

* hard divergences — a DATA op or a ``TimeReport`` that differs from
  the recording — abort immediately in strict mode, or are collected
  with their window index otherwise;
* the reconstructed per-window trace is compared row-by-row against
  the live rows embedded in the recording;
* end-of-run board counters are compared against the recorded summary.

:func:`find_divergence` merges all three into the first mismatching
window — the bisection primitive behind ``repro replay --bisect``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cosim.board_runtime import CosimBoardRuntime
from repro.cosim.trace import ProtocolTrace
from repro.errors import ReproError
from repro.obs.recorder import install_recorder, make_recorder
from repro.replay.recorder import OP_READ, OP_WRITE, SessionRecording
from repro.transport.channel import BoardEndpoint
from repro.transport.messages import ClockGrant, Interrupt, TimeReport

#: Board-side counters captured at end of run and compared on replay.
SUMMARY_FIELDS = (
    "board_ticks", "board_cycles", "state_switches", "context_switches",
    "idle_cycles", "kernel_cycles", "windows_served",
    "interrupts_received",
)


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
    """Serve a recording to a board runtime as if it were the master."""

    def __init__(self, recording: SessionRecording,
                 strict: bool = True) -> None:
        self.recording = recording
        self.strict = strict
        self._grants = [ClockGrant(seq=seq, ticks=ticks)
                        for seq, ticks in recording.grants]
        self._grant_index = 0
        self._interrupt_index = 0
        self._data_index = 0
        self.poll_calls = 0
        #: Reports the replayed board produced, in order.
        self.reports: List[TimeReport] = []
        #: Interrupts actually re-delivered: [poll, vector, master_cycle].
        self.delivered_interrupts: List[List[int]] = []
        #: DATA ops the replayed board issued: [window, kind, addr, value].
        self.consumed_data_ops: List[List[Any]] = []
        #: Soft + hard mismatches: {window, kind, expected, actual}.
        self.divergences: List[Dict[str, Any]] = []

    # -- divergence plumbing -------------------------------------------
    @property
    def window(self) -> int:
        """Current window index = reports completed so far."""
        return len(self.reports)

    def _diverge(self, kind: str, expected: Any, actual: Any,
                 hard: bool = True) -> None:
        entry = {"window": self.window, "kind": kind,
                 "expected": expected, "actual": actual}
        self.divergences.append(entry)
        if hard and self.strict:
            raise ReplayDivergence(
                f"replay diverged in window {self.window} ({kind}): "
                f"recorded {expected!r}, replayed {actual!r}",
                window=self.window, kind=kind,
                expected=expected, actual=actual,
            )

    # -- CLOCK ---------------------------------------------------------
    def recv_grant(self, timeout: Optional[float] = None) -> \
            Optional[ClockGrant]:
        if self._grant_index >= len(self._grants):
            return None
        grant = self._grants[self._grant_index]
        self._grant_index += 1
        return grant

    def send_report(self, report: TimeReport) -> None:
        index = len(self.reports)
        self.reports.append(report)
        if index < len(self.recording.reports):
            seq, board_ticks = self.recording.reports[index]
            if (report.seq, report.board_ticks) != (seq, board_ticks):
                self.divergences.append({
                    "window": index, "kind": "report",
                    "expected": [seq, board_ticks],
                    "actual": [report.seq, report.board_ticks],
                })
                if self.strict:
                    raise ReplayDivergence(
                        f"window {index} report diverged: recorded "
                        f"(seq={seq}, ticks={board_ticks}), replayed "
                        f"(seq={report.seq}, "
                        f"ticks={report.board_ticks})",
                        window=index, kind="report",
                        expected=[seq, board_ticks],
                        actual=[report.seq, report.board_ticks],
                    )

    # -- INT -----------------------------------------------------------
    def poll_interrupt(self) -> Optional[Interrupt]:
        self.poll_calls += 1
        if self._interrupt_index >= len(self.recording.interrupts):
            return None
        poll, vector, master_cycle = \
            self.recording.interrupts[self._interrupt_index]
        if poll > self.poll_calls:
            return None
        self._interrupt_index += 1
        if poll != self.poll_calls:
            # Delivered, but at a different poll call than live: the
            # board still sees it (soft signal only).
            self._diverge("interrupt_poll", poll, self.poll_calls,
                          hard=False)
        self.delivered_interrupts.append(
            [self.poll_calls, vector, master_cycle]
        )
        return Interrupt(vector=vector, master_cycle=master_cycle)

    # -- DATA ----------------------------------------------------------
    def _next_data_op(self, kind: str, address: int) -> List[Any]:
        if self._data_index >= len(self.recording.data_ops):
            self._diverge("data_underrun", None, [kind, address])
            return [self.window, kind, address, 0]
        op = self.recording.data_ops[self._data_index]
        self._data_index += 1
        if (op[1], op[2]) != (kind, address):
            self._diverge("data_op", [op[1], op[2]], [kind, address])
        return op

    def data_read(self, address: int):
        op = self._next_data_op(OP_READ, address)
        value = op[3]
        self.consumed_data_ops.append(
            [self.window, OP_READ, address, value]
        )
        return value

    def data_write(self, address: int, value) -> None:
        op = self._next_data_op(OP_WRITE, address)
        if op[3] != value:
            self._diverge("data_value", op[3], value)
        self.consumed_data_ops.append(
            [self.window, OP_WRITE, address, value]
        )

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Trace reconstruction
# ----------------------------------------------------------------------
def reconstruct_trace(window_ticks: List[int],
                      reports: List[List[int]],
                      interrupts: List[List[int]],
                      data_ops: List[List[Any]]) -> ProtocolTrace:
    """Rebuild a per-window :class:`ProtocolTrace` from stream data.

    Interrupts are attributed by ``master_cycle`` falling inside the
    window's cycle range — the same accounting as the live trace, which
    counts interrupts *sent* while the master simulated that window.
    DATA frames weight a read as two messages (request + reply) and a
    write as one, matching :class:`LinkStats`.
    """
    trace = ProtocolTrace()
    boundaries = [0]
    for ticks in window_ticks:
        boundaries.append(boundaries[-1] + ticks)
    for index in range(len(reports)):
        ticks = window_ticks[index]
        start, end = boundaries[index], boundaries[index + 1]
        ints = sum(1 for _poll, _vec, cycle in interrupts
                   if start < cycle <= end)
        data = sum(2 if kind == OP_READ else 1
                   for win, kind, _addr, _val in data_ops
                   if win == index)
        trace.record(ticks=ticks, master_cycles=end,
                     board_ticks=reports[index][1],
                     interrupts=ints, data_messages=data)
    return trace


def recorded_trace(recording: SessionRecording) -> ProtocolTrace:
    """The recording's own per-window trace.

    Prefers the live rows embedded at record time; falls back to
    reconstruction from the message stream for older recordings.
    """
    if recording.trace_rows:
        trace = ProtocolTrace()
        for row in recording.trace_rows:
            _index, ticks, master_cycles, board_ticks, ints, data = row
            trace.record(ticks=ticks, master_cycles=master_cycles,
                         board_ticks=board_ticks, interrupts=ints,
                         data_messages=data)
        return trace
    window_ticks = [t for _seq, t in recording.grants if t != 0]
    return reconstruct_trace(window_ticks, recording.reports,
                             recording.interrupts, recording.data_ops)


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


# ----------------------------------------------------------------------
# The replay driver
# ----------------------------------------------------------------------
@dataclass
class ReplayResult:
    """Outcome of one replay run."""

    windows_replayed: int
    trace: ProtocolTrace
    divergences: List[Dict[str, Any]]
    board_summary: Dict[str, Any]
    reports: List[TimeReport] = field(default_factory=list)
    interrupts_delivered: int = 0
    data_ops_replayed: int = 0
    #: The replay's span recorder (NULL_RECORDER unless the config
    #: enabled tracing); compare via ``repro.obs.deterministic_view``.
    obs: Any = None

    @property
    def clean(self) -> bool:
        return not self.divergences


def replay_recording(recording: SessionRecording, board=None, config=None,
                     strict: bool = True,
                     runtime: Optional[CosimBoardRuntime] = None,
                     board_factory=None,
                     obs_targets=None) -> ReplayResult:
    """Re-execute a board against *recording* and compare as we go.

    The board must be freshly built with the same construction
    parameters as the recorded run (``recording.meta`` carries them for
    the CLI's router scenario).  Because device drivers capture their
    endpoint at construction time, pass *board_factory* — a callable
    receiving the :class:`ReplayBoardEndpoint` and returning the board
    — instead of a pre-built *board* whenever the board does driver
    I/O.  Every recording replays through
    :meth:`~repro.cosim.board_runtime.CosimBoardRuntime.serve_window`,
    one call per granted window, whichever link it was made on (a
    threaded run's trailing shutdown grant is never taken).

    When ``config.tracing`` enables tracing, a fresh recorder is
    installed on the board runtime (and on every object in
    *obs_targets* — e.g. an ISS-backed verifier the factory built) and
    returned on :attr:`ReplayResult.obs`.
    """
    endpoint = ReplayBoardEndpoint(recording, strict=strict)
    if board_factory is not None:
        board = board_factory(endpoint)
    if board is None:
        raise ReproError("replay_recording needs a board or board_factory")
    if runtime is None:
        runtime = CosimBoardRuntime(board, endpoint, config)
    # Mirror the live session: the recorder goes in after runtime
    # construction so the boot-time freeze is untraced in both runs.
    obs = make_recorder(getattr(config, "tracing", None))
    install_recorder(obs, runtime=runtime)
    for target in obs_targets or ():
        target.obs = obs
    window_ticks = [t for _seq, t in recording.grants if t != 0]
    for _ in window_ticks:
        runtime.serve_window()

    trace = reconstruct_trace(
        window_ticks,
        [[r.seq, r.board_ticks] for r in endpoint.reports],
        endpoint.delivered_interrupts,
        endpoint.consumed_data_ops,
    )
    divergences = list(endpoint.divergences)
    if endpoint._data_index < len(recording.data_ops):
        divergences.append({
            "window": endpoint.window, "kind": "data_overrun",
            "expected": len(recording.data_ops),
            "actual": endpoint._data_index,
        })
    summary = board_state_summary(board)
    return ReplayResult(
        windows_replayed=len(endpoint.reports),
        trace=trace,
        divergences=divergences,
        board_summary=summary,
        reports=endpoint.reports,
        interrupts_delivered=len(endpoint.delivered_interrupts),
        data_ops_replayed=len(endpoint.consumed_data_ops),
        obs=obs,
    )


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
    expected_trace = recorded_trace(recording)
    expected_rows = [record.as_row()
                     for record in expected_trace.records]
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
    recorded_summary = recording.final.get("board", {})
    for key, expected in sorted(recorded_summary.items()):
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
