"""Virtual-tick protocol bookkeeping and invariants.

The protocol (Section 4) is simple by design; what makes it *timed* is
the pair of invariants this module enforces on every exchange:

1. **Alignment** — "when a time packet is exchanged between the two
   actors, they are fully synchronized": the board's reported SW tick
   count must equal the total ticks granted, which must equal the
   master's elapsed clock cycles.
2. **Monotonic sequence** — grants and reports carry a sequence number;
   a reordered or duplicated exchange is a protocol error (rollback is
   explicitly impossible with a real board, Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ProtocolError
from repro.transport.messages import ClockGrant, TimeReport

# ----------------------------------------------------------------------
# Declarative window state machines
# ----------------------------------------------------------------------
# These tables are the single source of truth for the per-window
# handshake.  Two consumers keep each other honest:
#
# * the runtime loops (:class:`repro.cosim.master.CosimMaster`,
#   :class:`repro.cosim.board_runtime.CosimBoardRuntime`, the
#   multi-board sessions) consult them through :class:`WindowFsm` on
#   every phase change — an illegal transition raises
#   :class:`~repro.errors.ProtocolError` at the exact step that broke
#   the protocol;
# * the protocol model checker
#   (:mod:`repro.staticcheck.protocol_rules`) composes the same tables
#   over bounded message channels and exhaustively explores every
#   DATA/IRQ interleaving for deadlock, lost wake-ups and liveness.
#
# Self-loop events (DATA servicing, IRQ delivery) are listed for the
# model checker but not stepped by the hot runtime paths — only phase
# *changes* pay the table lookup.

#: Master window phases: (state, event) -> successor state.
#:
#: The ``spec_*`` / ``catching_up`` / ``validating`` rows are the
#: optimistic extension (:mod:`repro.cosim.optimistic`): the master may
#: issue up to ``speculation_depth`` grants in a row without simulating
#: (the board runs ahead), then catches its own simulation up window by
#: window, validating each stashed report — committing it, or rolling
#: the board back and replaying the divergent window conservatively.
#: Speculation is a master-side scheduling policy: the board walks the
#: unchanged :data:`BOARD_WINDOW_TABLE` for speculative, replayed and
#: conservative windows alike.
MASTER_WINDOW_TABLE: Dict[Tuple[str, str], str] = {
    # Between windows the master simulates the next one, forwarding its
    # interrupt edges, then grants exactly the cycles it simulated.
    ("idle", "send_irq"): "idle",
    ("idle", "send_grant"): "awaiting_report",
    ("awaiting_report", "serve_data"): "awaiting_report",
    ("awaiting_report", "recv_report"): "idle",
    ("idle", "send_shutdown"): "closed",
    # -- optimistic synchronization (speculate past T_sync) ------------
    ("idle", "spec_grant"): "speculating",
    ("speculating", "spec_grant"): "speculating",
    ("speculating", "recv_spec_report"): "speculating",
    ("speculating", "serve_data"): "speculating",
    ("speculating", "begin_catchup"): "catching_up",
    ("catching_up", "send_irq"): "catching_up",
    ("catching_up", "serve_data"): "catching_up",
    ("catching_up", "recv_spec_report"): "catching_up",
    ("catching_up", "catchup_simulated"): "validating",
    ("validating", "recv_spec_report"): "validating",
    ("validating", "serve_data"): "validating",
    ("validating", "commit_window"): "catching_up",
    ("validating", "rollback"): "catching_up",
    ("catching_up", "round_done"): "idle",
}
MASTER_INITIAL = "idle"
#: States in which a master may legally end a session.
MASTER_ACCEPTING = ("idle", "closed")

#: Board window phases: (state, event) -> successor state.  The board
#: freezes between windows and takes a window's IRQs while frozen: the
#: master raised all of them before it granted the window, and the
#: board endpoint hands a grant over only once they have arrived.
BOARD_WINDOW_TABLE: Dict[Tuple[str, str], str] = {
    ("frozen", "recv_grant"): "running",
    ("frozen", "recv_irq"): "frozen",
    ("frozen", "recv_shutdown"): "closed",
    ("running", "send_data_request"): "awaiting_data",
    ("awaiting_data", "recv_data_reply"): "running",
    ("running", "window_done"): "reporting",
    ("reporting", "send_report"): "frozen",
}
BOARD_INITIAL = "frozen"
#: States in which a board may legally end a session.
BOARD_ACCEPTING = ("frozen", "closed")


class WindowFsm:
    """Runtime view of a declarative window state machine.

    The session layers drive their loops as before; every phase change
    is *validated* against the table, so a reordered handshake (a grant
    issued before the previous report arrived, a report sent while the
    board never ran its window) fails loudly at the exact illegal step
    instead of corrupting tick accounting downstream.
    """

    __slots__ = ("name", "table", "initial", "state")

    def __init__(self, name: str, table: Dict[Tuple[str, str], str],
                 initial: str) -> None:
        self.name = name
        self.table = table
        self.initial = initial
        self.state = initial

    def step(self, event: str) -> str:
        """Advance on *event*; raises ProtocolError when illegal."""
        next_state = self.table.get((self.state, event))
        if next_state is None:
            allowed = sorted(e for (s, e) in self.table if s == self.state)
            raise ProtocolError(
                f"{self.name} window protocol violation: event {event!r} "
                f"is illegal in state {self.state!r} (allowed: {allowed})"
            )
        self.state = next_state
        return next_state

    def reset(self) -> None:
        """Back to the initial state (session restore happens at window
        boundaries, where both machines sit in their initial state)."""
        self.state = self.initial


@dataclass
class MasterProtocol:
    """Master-side sequence/alignment tracking."""

    seq: int = 0
    ticks_granted: int = 0
    exchanges: int = 0
    history: List[int] = field(default_factory=list)

    def make_grant(self, ticks: int) -> ClockGrant:
        if ticks <= 0:
            raise ProtocolError(f"cannot grant {ticks} ticks")
        self.seq += 1
        self.ticks_granted += ticks
        self.history.append(ticks)
        return ClockGrant(seq=self.seq, ticks=ticks)

    def check_report(self, report: TimeReport, master_cycles: int) -> None:
        if report.seq != self.seq:
            raise ProtocolError(
                f"time report out of order: seq {report.seq}, "
                f"expected {self.seq}"
            )
        if report.board_ticks != self.ticks_granted:
            raise ProtocolError(
                f"board/master divergence: board at tick "
                f"{report.board_ticks}, granted {self.ticks_granted}"
            )
        if master_cycles != self.ticks_granted:
            raise ProtocolError(
                f"master clock divergence: {master_cycles} cycles vs "
                f"{self.ticks_granted} ticks granted"
            )
        self.exchanges += 1

    def snapshot(self) -> dict:
        """Sequence/alignment counters (checkpoint support)."""
        return {
            "seq": self.seq,
            "ticks_granted": self.ticks_granted,
            "exchanges": self.exchanges,
            "history": list(self.history),
        }

    def restore(self, state: dict) -> None:
        for key in ("seq", "ticks_granted", "exchanges", "history"):
            if key not in state:
                raise ProtocolError(f"master protocol snapshot missing {key!r}")
        self.seq = state["seq"]
        self.ticks_granted = state["ticks_granted"]
        self.exchanges = state["exchanges"]
        self.history = list(state["history"])


@dataclass
class BoardProtocol:
    """Board-side sequence tracking."""

    last_seq: int = 0
    ticks_run: int = 0

    def accept_grant(self, grant: ClockGrant) -> int:
        if grant.seq != self.last_seq + 1:
            raise ProtocolError(
                f"clock grant out of order: seq {grant.seq}, "
                f"expected {self.last_seq + 1}"
            )
        if grant.ticks <= 0:
            raise ProtocolError(f"grant of {grant.ticks} ticks")
        self.last_seq = grant.seq
        self.ticks_run += grant.ticks
        return grant.ticks

    def make_report(self, board_sw_ticks: int) -> TimeReport:
        if board_sw_ticks != self.ticks_run:
            raise ProtocolError(
                f"board ran {board_sw_ticks} ticks but was granted "
                f"{self.ticks_run}"
            )
        return TimeReport(seq=self.last_seq, board_ticks=board_sw_ticks)

    def snapshot(self) -> dict:
        """Sequence counters (checkpoint support)."""
        return {"last_seq": self.last_seq, "ticks_run": self.ticks_run}

    def restore(self, state: dict) -> None:
        for key in ("last_seq", "ticks_run"):
            if key not in state:
                raise ProtocolError(f"board protocol snapshot missing {key!r}")
        self.last_seq = state["last_seq"]
        self.ticks_run = state["ticks_run"]


#: Sentinel tick count used by threaded sessions to stop the board loop.
SHUTDOWN_TICKS = 0


def make_shutdown(seq: int) -> ClockGrant:
    """A poison-pill grant that stops the board runtime's serve loop."""
    return ClockGrant(seq=seq, ticks=SHUTDOWN_TICKS)


def is_shutdown(grant: ClockGrant) -> bool:
    """True if *grant* is the shutdown sentinel."""
    return grant.ticks == SHUTDOWN_TICKS
