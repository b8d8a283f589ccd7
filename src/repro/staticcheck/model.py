"""Bounded explicit-state exploration of the window protocol.

The declarative transition tables in :mod:`repro.cosim.protocol` say
which phase changes are *legal*; this module answers the stronger
question of whether the composed system — one master, *N* boards, FIFO
message channels between them — can ever get stuck.  The explorer
enumerates every reachable global state of a bounded configuration
(windows, IRQs and DATA round-trips per window are capped, sequence
numbers are bounded by the window budget) and classifies what it finds:

* **deadlock** — a non-final state with no enabled transition and no
  message in flight: both sides are waiting on each other;
* **lost wake-up** — a non-final state with no enabled transition but a
  message still sitting in a channel that its receiver can no longer
  consume (e.g. a report sent before the grant was registered);
* **non-progress** — a state from which no interleaving reaches the
  fully-shut-down final configuration (livelock);
* **sequence violations** — a grant or report whose sequence number is
  stale or gapped reaches the window FSM, or a board takes a grant
  before the IRQs sent ahead of it (only possible when the TCP link's
  interrupt fence is modelled as disabled).

The master simulates each window before it grants it, so a window's
IRQs are all sent before its grant.  INT and CLOCK are separate
channels, so each grant carries a *fence* — the IRQs sent to that board
so far — and the board takes the grant only once it has received that
many (the TCP link's interrupt fence).  With the fence disabled, a
grant that overtakes its IRQs is a sequence violation: the board would
start the window without them.  The INT port is otherwise
fire-and-forget, so leftover IRQ messages never count as lost wake-ups.

Every channel is one connection for the whole run: the TCP link never
redials or redelivers, so no message is ever duplicated.

Everything is parameterised — tables, board count, bounds — so
the mutation self-tests can inject a defective table and prove the
explorer convicts it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.cosim.protocol import (
    BOARD_INITIAL,
    BOARD_WINDOW_TABLE,
    MASTER_INITIAL,
    MASTER_WINDOW_TABLE,
)

Table = Dict[Tuple[str, str], str]

#: Events the explorer knows how to execute, per role.  A table entry
#: whose event is not listed here is a table inconsistency (PROTO005).
MASTER_EVENTS = frozenset({
    "send_grant", "send_irq", "serve_data", "recv_report", "send_shutdown",
    # Optimistic synchronization (repro.cosim.optimistic).
    "spec_grant", "recv_spec_report", "begin_catchup",
    "catchup_simulated", "commit_window", "rollback", "round_done",
})
BOARD_EVENTS = frozenset({
    "recv_grant", "recv_irq", "recv_shutdown", "send_data_request",
    "recv_data_reply", "window_done", "send_report",
})

#: Message tags on the per-board clock / report channels.
_GRANT = "G"
_SHUTDOWN = "SD"
_REPORT = "R"


@dataclass(frozen=True)
class ModelConfig:
    """One bounded configuration to explore exhaustively."""

    name: str
    boards: int = 1
    windows: int = 2
    irqs_per_window: int = 1
    data_per_window: int = 1
    #: Maximum windows the master may grant ahead of its own simulation
    #: (0 disables the optimistic ``spec_grant``/catch-up machinery).
    speculation_depth: int = 0
    channel_depth: int = 3
    max_states: int = 200_000


@dataclass(frozen=True)
class Violation:
    """One counterexample found by the explorer."""

    kind: str           # deadlock | lost-wakeup | non-progress | sequence
    message: str
    trace: Tuple[str, ...]

    def render_trace(self, limit: int = 12) -> str:
        steps = self.trace
        prefix = ""
        if len(steps) > limit:
            prefix = f"... {len(steps) - limit} earlier step(s) ... "
            steps = steps[-limit:]
        return prefix + " -> ".join(steps) if steps else "<initial state>"


@dataclass
class ExplorationResult:
    """What the explorer saw for one :class:`ModelConfig`."""

    config: ModelConfig
    states: int = 0
    complete: bool = True
    final_states: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.complete and not self.violations


# ----------------------------------------------------------------------
# Static table sanity
# ----------------------------------------------------------------------
def table_inconsistencies(table: Table, initial: str,
                          accepting: Tuple[str, ...],
                          known_events: FrozenSet[str],
                          role: str) -> List[str]:
    """Purely structural defects: unknown events, unreachable states,
    non-accepting states with no way out."""
    problems = []
    states = {initial} | {s for (s, _e) in table} | set(table.values())
    for (state, event) in sorted(table):
        if event not in known_events:
            problems.append(
                f"{role} table: event {event!r} in state {state!r} has "
                f"no execution semantics"
            )
    # Reachability over the table digraph.
    reached = {initial}
    frontier = [initial]
    while frontier:
        state = frontier.pop()
        for (src, _event), dst in table.items():
            if src == state and dst not in reached:
                reached.add(dst)
                frontier.append(dst)
    for state in sorted(states - reached):
        problems.append(f"{role} table: state {state!r} is unreachable "
                        f"from {initial!r}")
    outgoing = {s for (s, _e) in table}
    for state in sorted(states):
        if state not in outgoing and state not in accepting:
            problems.append(
                f"{role} table: non-accepting state {state!r} has no "
                f"outgoing transition"
            )
    return problems


# ----------------------------------------------------------------------
# Global state
# ----------------------------------------------------------------------
# master: (phase, granted, irqs_left, spec, stashed)
#         granted counts grants sent; spec counts grants issued ahead of
#         the master's own simulation (0 outside speculative rounds);
#         stashed counts speculative reports consumed but not yet
#         validated.  Committed windows = granted - spec.
#         irqs_left is the IRQ budget of the window being simulated.
# board:  (phase, last_seq, data_left, irqs_read) -- one tuple per board
# chan:   (clock, report, irq, dreq, drep)        -- one tuple per board
#         clock holds (tag, seq, fence) and report (tag, seq) tuples;
#         irq/dreq/drep are ints
_State = Tuple


def _initial_state(cfg: ModelConfig, m_init: str, b_init: str) -> _State:
    master = (m_init, 0, cfg.irqs_per_window, 0, 0)
    boards = tuple((b_init, 0, 0, 0) for _ in range(cfg.boards))
    chans = tuple(((), (), 0, 0, 0) for _ in range(cfg.boards))
    return (master, boards, chans)


class _Explorer:
    def __init__(self, cfg: ModelConfig, master_table: Table,
                 board_table: Table, m_init: str, b_init: str) -> None:
        self.cfg = cfg
        self.mt = master_table
        self.bt = board_table
        self.m_init = m_init
        self.b_init = b_init
        # Fully-shut-down phases; fall back to the conventional names if
        # a mutated table dropped the shutdown transitions entirely.
        self.m_final = master_table.get(("idle", "send_shutdown"), "closed")
        self.b_final = board_table.get(("frozen", "recv_shutdown"), "closed")

    # ------------------------------------------------------------------
    def _is_final(self, state: _State) -> bool:
        (m_phase, granted, _irqs, spec, stashed), boards, chans = state
        if m_phase != self.m_final or granted != self.cfg.windows:
            return False
        if spec != 0 or stashed != 0:
            return False
        if any(board[0] != self.b_final for board in boards):
            return False
        # IRQs are fire-and-forget; every other channel must be drained.
        return all(not clock and not rep and dreq == 0 and drep == 0
                   for (clock, rep, _irq, dreq, drep) in chans)

    def _armed(self, granted: int) -> int:
        """The IRQ budget of the next window, once *granted* windows
        have been granted."""
        return self.cfg.irqs_per_window if granted < self.cfg.windows else 0

    @staticmethod
    def _fence_met(irqs_read: int, fence: int) -> bool:
        """The interrupt fence: a board takes a grant only once the IRQs
        sent before it have arrived (the mutation self-tests disable
        it to prove the explorer convicts its absence)."""
        return irqs_read >= fence

    @staticmethod
    def _grants(chans, boards, tag: str, seq: int) -> tuple:
        """*chans* with a clock message appended for every board, each
        fenced behind the IRQs sent to that board so far."""
        return tuple(
            (clock + ((tag, seq, board[3] + irq),), rep, irq, dreq, drep)
            for board, (clock, rep, irq, dreq, drep) in zip(boards, chans)
        )

    # ------------------------------------------------------------------
    def successors(self, state: _State):
        """Yield (label, next_state, violation_message_or_None)."""
        cfg = self.cfg
        (m_phase, granted, irqs_left, spec, stashed), boards, chans = state

        # ---- master ---------------------------------------------------
        succ = self.mt.get((m_phase, "send_grant"))
        if succ is not None and granted < cfg.windows \
                and all(len(c[0]) < cfg.channel_depth for c in chans):
            seq = granted + 1
            # The window was simulated before its grant: its IRQ budget
            # is spent.
            yield (f"master.send_grant(seq={seq})",
                   ((succ, granted + 1, 0, spec, stashed), boards,
                    self._grants(chans, boards, _GRANT, seq)), None)

        succ = self.mt.get((m_phase, "send_shutdown"))
        if succ is not None and granted == cfg.windows \
                and all(len(c[0]) < cfg.channel_depth for c in chans):
            yield ("master.send_shutdown",
                   ((succ, granted, irqs_left, spec, stashed), boards,
                    self._grants(chans, boards, _SHUTDOWN, granted + 1)), None)

        succ = self.mt.get((m_phase, "send_irq"))
        if succ is not None and irqs_left > 0:
            for b in range(cfg.boards):
                clock, rep, irq, dreq, drep = chans[b]
                if irq >= cfg.channel_depth:
                    continue
                new_chans = _replace(chans, b,
                                     (clock, rep, irq + 1, dreq, drep))
                yield (f"master.send_irq(board={b})",
                       ((succ, granted, irqs_left - 1, spec, stashed),
                        boards, new_chans), None)

        succ = self.mt.get((m_phase, "serve_data"))
        if succ is not None:
            for b in range(cfg.boards):
                clock, rep, irq, dreq, drep = chans[b]
                if dreq == 0 or drep >= cfg.channel_depth:
                    continue
                new_chans = _replace(chans, b,
                                     (clock, rep, irq, dreq - 1, drep + 1))
                yield (f"master.serve_data(board={b})",
                       ((succ, granted, irqs_left, spec, stashed), boards,
                        new_chans), None)

        succ = self.mt.get((m_phase, "recv_report"))
        if succ is not None and all(c[1] for c in chans):
            violation = None
            new_chans = []
            for b, (clock, rep, irq, dreq, drep) in enumerate(chans):
                tag, seq = rep[0]
                if seq != granted and violation is None:
                    violation = (
                        f"board {b} reported seq {seq} while the master "
                        f"expected {granted} (stale/gapped report "
                        f"reached the FSM)"
                    )
                new_chans.append((clock, rep[1:], irq, dreq, drep))
            yield ("master.recv_report",
                   ((succ, granted, self._armed(granted), spec, stashed),
                    boards, tuple(new_chans)), violation)

        # ---- master: optimistic speculation ---------------------------
        # Counters mirror repro.cosim.optimistic: `spec` windows granted
        # ahead of the simulation, `stashed` reports consumed but not
        # yet validated; committed = granted - spec.
        succ = self.mt.get((m_phase, "spec_grant"))
        if succ is not None and granted < cfg.windows \
                and spec < cfg.speculation_depth \
                and all(len(c[0]) < cfg.channel_depth for c in chans):
            seq = granted + 1
            yield (f"master.spec_grant(seq={seq})",
                   ((succ, granted + 1, irqs_left, spec + 1, stashed),
                    boards, self._grants(chans, boards, _GRANT, seq)), None)

        succ = self.mt.get((m_phase, "recv_spec_report"))
        if succ is not None and all(c[1] for c in chans):
            expected = granted - spec + stashed + 1
            violation = None
            new_chans = []
            for b, (clock, rep, irq, dreq, drep) in enumerate(chans):
                tag, seq = rep[0]
                if seq != expected and violation is None:
                    violation = (
                        f"board {b} reported seq {seq} during "
                        f"speculation while the master expected "
                        f"{expected} (stale/gapped report reached the "
                        f"FSM)"
                    )
                new_chans.append((clock, rep[1:], irq, dreq, drep))
            yield ("master.recv_spec_report",
                   ((succ, granted, irqs_left, spec, stashed + 1), boards,
                    tuple(new_chans)), violation)

        succ = self.mt.get((m_phase, "begin_catchup"))
        if succ is not None and spec > 0:
            # Entering the catch-up pass arms the per-window IRQ budget:
            # the master only discovers interrupts while simulating.
            yield ("master.begin_catchup",
                   ((succ, granted, cfg.irqs_per_window, spec, stashed),
                    boards, chans), None)

        succ = self.mt.get((m_phase, "catchup_simulated"))
        if succ is not None and spec > 0:
            yield ("master.catchup_simulated",
                   ((succ, granted, irqs_left, spec, stashed), boards,
                    chans), None)

        for event in ("commit_window", "rollback"):
            succ = self.mt.get((m_phase, event))
            if succ is not None and spec > 0 and stashed > 0:
                # A rollback replays the window in the same in-process
                # call sequence a commit validates, so master-locally
                # both retire one speculated window and re-arm the IRQ
                # budget for the next catch-up window.
                yield (f"master.{event}",
                       ((succ, granted, cfg.irqs_per_window, spec - 1,
                         stashed - 1), boards, chans), None)

        succ = self.mt.get((m_phase, "round_done"))
        if succ is not None and spec == 0 and stashed == 0:
            yield ("master.round_done",
                   ((succ, granted, self._armed(granted), spec, stashed),
                    boards, chans), None)

        # ---- boards ---------------------------------------------------
        for b in range(cfg.boards):
            b_phase, last_seq, data_left, irqs_read = boards[b]
            clock, rep, irq, dreq, drep = chans[b]

            if clock:
                tag, seq, fence = clock[0]
                if tag == _GRANT:
                    succ = self.bt.get((b_phase, "recv_grant"))
                    if not self._fence_met(irqs_read, fence):
                        succ = None
                    if succ is not None:
                        violation = None
                        if irqs_read < fence:
                            violation = (
                                f"board {b}: grant seq {seq} taken "
                                f"with {irqs_read} of the {fence} "
                                f"IRQs sent before it"
                            )
                        elif seq != last_seq + 1:
                            violation = (
                                f"board {b}: grant seq {seq} does not "
                                f"follow last_seq={last_seq}"
                            )
                        new_boards = _replace(
                            boards, b,
                            (succ, max(last_seq, seq),
                             cfg.data_per_window, irqs_read))
                        new_chans = _replace(
                            chans, b, (clock[1:], rep, irq, dreq, drep))
                        yield (f"board{b}.recv_grant(seq={seq})",
                               ((m_phase, granted, irqs_left, spec, stashed),
                                new_boards, new_chans), violation)
                elif tag == _SHUTDOWN:
                    succ = self.bt.get((b_phase, "recv_shutdown"))
                    if succ is not None:
                        new_boards = _replace(
                            boards, b,
                            (succ, last_seq, data_left, irqs_read))
                        new_chans = _replace(
                            chans, b, (clock[1:], rep, irq, dreq, drep))
                        yield (f"board{b}.recv_shutdown",
                               ((m_phase, granted, irqs_left, spec, stashed), new_boards,
                                new_chans), None)

            succ = self.bt.get((b_phase, "recv_irq"))
            if succ is not None and irq > 0:
                new_boards = _replace(
                    boards, b, (succ, last_seq, data_left, irqs_read + 1))
                new_chans = _replace(chans, b,
                                     (clock, rep, irq - 1, dreq, drep))
                yield (f"board{b}.recv_irq",
                       ((m_phase, granted, irqs_left, spec, stashed), new_boards,
                        new_chans), None)

            succ = self.bt.get((b_phase, "send_data_request"))
            if succ is not None and data_left > 0 \
                    and dreq < cfg.channel_depth:
                new_boards = _replace(
                    boards, b, (succ, last_seq, data_left - 1, irqs_read))
                new_chans = _replace(chans, b,
                                     (clock, rep, irq, dreq + 1, drep))
                yield (f"board{b}.send_data_request",
                       ((m_phase, granted, irqs_left, spec, stashed), new_boards,
                        new_chans), None)

            succ = self.bt.get((b_phase, "recv_data_reply"))
            if succ is not None and drep > 0:
                new_boards = _replace(
                    boards, b, (succ, last_seq, data_left, irqs_read))
                new_chans = _replace(chans, b,
                                     (clock, rep, irq, dreq, drep - 1))
                yield (f"board{b}.recv_data_reply",
                       ((m_phase, granted, irqs_left, spec, stashed), new_boards,
                        new_chans), None)

            succ = self.bt.get((b_phase, "window_done"))
            if succ is not None:
                new_boards = _replace(
                    boards, b, (succ, last_seq, data_left, irqs_read))
                yield (f"board{b}.window_done",
                       ((m_phase, granted, irqs_left, spec, stashed), new_boards,
                        chans), None)

            succ = self.bt.get((b_phase, "send_report"))
            if succ is not None and len(rep) < cfg.channel_depth:
                new_boards = _replace(
                    boards, b, (succ, last_seq, data_left, irqs_read))
                new_chans = _replace(
                    chans, b,
                    (clock, rep + ((_REPORT, last_seq),), irq, dreq, drep))
                yield (f"board{b}.send_report(seq={last_seq})",
                       ((m_phase, granted, irqs_left, spec, stashed), new_boards,
                        new_chans), None)

    # ------------------------------------------------------------------
    def explore(self) -> ExplorationResult:
        cfg = self.cfg
        result = ExplorationResult(config=cfg)
        init = _initial_state(cfg, self.m_init, self.b_init)
        parents: Dict[_State, Optional[Tuple[_State, str]]] = {init: None}
        edges: Dict[_State, List[_State]] = {}
        queue = deque([init])
        sequence_seen = set()
        while queue:
            if len(parents) > cfg.max_states:
                result.complete = False
                break
            state = queue.popleft()
            succs = []
            for label, nxt, violation in self.successors(state):
                succs.append(nxt)
                if violation is not None and violation not in sequence_seen:
                    sequence_seen.add(violation)
                    result.violations.append(Violation(
                        "sequence", violation,
                        self._trace(parents, state) + (label,)))
                if nxt not in parents:
                    parents[nxt] = (state, label)
                    queue.append(nxt)
            edges[state] = succs
        result.states = len(parents)
        if not result.complete:
            return result

        finals = {s for s in parents if self._is_final(s)}
        result.final_states = len(finals)

        # Terminal analysis: deadlock vs lost wake-up.
        for state in parents:
            if edges.get(state):
                continue
            if state in finals:
                continue
            trace = self._trace(parents, state)
            stuck = self._stuck_messages(state)
            if stuck:
                result.violations.append(Violation(
                    "lost-wakeup",
                    f"undeliverable message(s) {stuck} in a stuck "
                    f"state {self._describe(state)}", trace))
            else:
                result.violations.append(Violation(
                    "deadlock",
                    f"no transition enabled in non-final state "
                    f"{self._describe(state)}", trace))

        # Liveness: every state must be able to reach a final state.
        if finals:
            co_reach = set(finals)
            reverse: Dict[_State, List[_State]] = {}
            for src, dsts in edges.items():
                for dst in dsts:
                    reverse.setdefault(dst, []).append(src)
            frontier = list(finals)
            while frontier:
                state = frontier.pop()
                for pred in reverse.get(state, ()):
                    if pred not in co_reach:
                        co_reach.add(pred)
                        frontier.append(pred)
            for state in parents:
                if state not in co_reach and edges.get(state):
                    result.violations.append(Violation(
                        "non-progress",
                        f"state {self._describe(state)} can never reach "
                        f"the shut-down configuration",
                        self._trace(parents, state)))
                    break  # one exemplar is enough
        elif not result.violations:
            result.violations.append(Violation(
                "non-progress",
                "no interleaving reaches the shut-down configuration",
                ()))
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _stuck_messages(state: _State) -> List[str]:
        (_m, _g, _i, _sp, _st), _boards, chans = state
        stuck = []
        for b, (clock, rep, _irq, dreq, drep) in enumerate(chans):
            for tag, seq, _fence in clock:
                stuck.append(f"board{b}<-{tag}({seq})")
            for tag, seq in rep:
                stuck.append(f"master<-{tag}({seq})")
            if dreq:
                stuck.append(f"master<-DATA_REQ x{dreq}")
            if drep:
                stuck.append(f"board{b}<-DATA_REP x{drep}")
        return stuck

    @staticmethod
    def _describe(state: _State) -> str:
        (m_phase, granted, _irqs, spec, _stashed), boards, _chans = state
        phases = ",".join(board[0] for board in boards)
        ahead = f", spec={spec}" if spec else ""
        return (f"(master={m_phase}, boards=[{phases}], "
                f"windows={granted}{ahead})")

    @staticmethod
    def _trace(parents, state) -> Tuple[str, ...]:
        labels = []
        while True:
            entry = parents.get(state)
            if entry is None:
                break
            state, label = entry
            labels.append(label)
        return tuple(reversed(labels))


def _replace(items: tuple, index: int, value) -> tuple:
    return items[:index] + (value,) + items[index + 1:]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def explore(config: ModelConfig,
            master_table: Optional[Table] = None,
            board_table: Optional[Table] = None,
            master_initial: str = MASTER_INITIAL,
            board_initial: str = BOARD_INITIAL) -> ExplorationResult:
    """Exhaustively explore one bounded configuration.

    Tables default to the shipped ones in :mod:`repro.cosim.protocol`;
    the mutation self-tests pass defective copies instead.
    """
    explorer = _Explorer(
        config,
        dict(master_table if master_table is not None
             else MASTER_WINDOW_TABLE),
        dict(board_table if board_table is not None
             else BOARD_WINDOW_TABLE),
        master_initial, board_initial,
    )
    return explorer.explore()
