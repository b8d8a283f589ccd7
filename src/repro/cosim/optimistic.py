"""Optimistic synchronization: speculate past ``T_sync``, roll back on
conflict (ROADMAP item 3, Time-Warp style).

The paper's protocol is strictly conservative — board and simulator
lock-step at every ``T_sync``, so idle-heavy workloads pay the full
synchronization cost for windows in which no interrupt ever lands.
:class:`Speculator`, the speculating window execution of the one
session loop, decouples the two sides the way CHESSY does:

* **Speculate** — the board runs up to ``config.speculation_depth``
  windows ahead of the simulator, assuming no interrupt will land in
  them.  A lightweight in-memory checkpoint (plain-data state tree, no
  disk) of the *board side* is taken at each speculative window
  boundary.  Only windows the board would execute as *pure idle time*
  are eligible (see :meth:`Speculator._board_quiescent`): board
  threads are Python generators whose frames advance irreversibly, so
  a window in which any thread would run cannot be discarded by a
  plain-data restore.  Idle windows advance nothing but counters —
  frame-exactly rewindable — and they are precisely the windows where
  conservative lock-step wastes its synchronization cost.
* **Catch up** — the master then simulates the same windows, using the
  simkernel's analytic clock leap
  (:meth:`~repro.simkernel.kernel.Simulator.run_until_leaping`) so
  quiet stretches cost arithmetic instead of per-edge event churn (a
  plugin master, which has no clock leap, steps plainly).
* **Validate** — per window, the speculatively-assumed schedule (no
  interrupts, no DATA) is diffed against what the simulation actually
  produced.  A clean window **commits**: the stashed time report is
  checked with the stock alignment invariants and the boundary is
  reported to the trace/checkpointer exactly as a conservative window
  would be.  A dirty window is a **conflict**: the board is rolled back
  to the last pre-conflict checkpoint and the window is replayed
  conservatively against the now-correct master, after which the
  session resumes speculating.

Conflict definition (either condition):

1. the master simulation emitted at least one interrupt inside the
   window — the board speculated it as idle, so the wake it would have
   caused is missing and its timing is wrong;
2. the board issued DATA traffic inside the *speculative* window — it
   read or wrote master state that was up to ``depth`` windows stale
   (writes additionally pollute the live model, which is why the
   master side is restored from its round-start snapshot before the
   catch-up pass).  With the quiescence probe in front, no thread runs
   during speculation and this is a defensive backstop rather than an
   expected path.

Equivalence: at every committed boundary the session state is
bit-identical to the conservative window — same trace rows, same
snapshot digests, same tick accounting — which the difftest
``optimistic`` backend proves against ``inproc`` on every fuzz case.

The session speculates when ``config.speculation_depth > 0`` and no
``done()`` probe is passed to ``run``: probing live state between
windows is meaningless while the board runs ahead, so a probe runs
every window conservatively.  A fault injector, adaptive windows,
threads and several boards are refused before window 0
(:func:`speculation_refusals`); every other feature combines.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, List, Optional

from repro.cosim.metrics import CosimMetrics
from repro.errors import ProtocolError
from repro.transport.faults import find_fault_injector
from repro.transport.messages import ClockGrant

if TYPE_CHECKING:  # pragma: no cover
    from repro.cosim.session import CosimSession


def speculation_refusals(session: "CosimSession") -> List[str]:
    """Why *session* cannot speculate: one message per feature it holds
    that speculation does not combine with, in a fixed order (none when
    ``speculation_depth`` is 0).  ``run`` raises the first before
    window 0; lint rule COSIM005 reports them all."""
    depth = session.config.speculation_depth
    if depth <= 0:
        return []
    held = []
    for slot in session.slots:
        injector = find_fault_injector(slot.runtime.endpoint)
        if injector is not None:
            held.append((
                f"a fault injector ({type(injector).__name__})",
                "cannot speculate across a fault-injected link: the fault "
                "plan's drop/corruption schedule lives outside the session "
                "snapshot, so a rollback would not rewind it"))
            break
    if session.controller is not None:
        held.append((
            "an adaptive window controller",
            "adaptive synchronization sizes windows reactively and "
            "cannot be combined with speculation"))
    if session.threaded:
        held.append((
            "a threaded session",
            "optimistic synchronization is only supported in-process"))
    if len(session.slots) > 1:
        held.append((
            f"{len(session.slots)} boards",
            "speculation checkpoints and rolls back a single board"))
    return [f"cannot combine speculation_depth={depth} with {what}: "
            f"{reason}" for what, reason in held]


class Speculator:
    """Window execution "speculate": one call runs one round of up to
    ``config.speculation_depth`` windows for *session*."""

    def __init__(self, session: "CosimSession") -> None:
        self.session = session
        self.master = session.master
        self.runtime = session.runtime
        self.obs = session.obs

    # ------------------------------------------------------------------
    # Quiescence probe
    # ------------------------------------------------------------------
    def _board_quiescent(self, horizon_ticks: int) -> bool:
        """Would the board run the next *horizon_ticks* as pure idle?

        A window is speculation-eligible only when, under the
        no-interrupt assumption, the board would advance nothing but
        time and idle counters: no runnable thread, no pending or
        scheduled interrupt work, no undelivered INT packet on the
        link, and no alarm (sleeps, sync timeouts, application alarms
        all route through the alarm queue) due inside the window.  Such
        windows are frame-safe to discard — blocked generator frames
        stay frozen — so a plain-data rollback is exact.  Anything
        livelier runs conservatively instead.
        """
        endpoint = self.runtime.endpoint
        pending = getattr(endpoint, "pending_interrupts", None)
        if pending is None or pending():
            # No probe, no speculation.  A wrapped endpoint that does
            # not forward pending_interrupts() (e.g. a recording
            # wrapper) degrades the session to conservative windows —
            # which is also what keeps recorded grant streams
            # replayable: no speculative or re-sent grants are logged.
            return False
        kernel = self.runtime.board.kernel
        if kernel.current is not None:
            return False
        if kernel.scheduler.has_runnable():
            return False
        if kernel._external_irqs or kernel.interrupts.has_work(kernel.cycles):
            return False
        if kernel.interrupts.next_scheduled_cycle() is not None:
            return False
        alarm_tick = kernel._alarm_queue.next_tick()
        if (alarm_tick is not None
                and alarm_tick <= kernel.sw_ticks + horizon_ticks):
            return False
        return True

    # ------------------------------------------------------------------
    # One speculative round
    # ------------------------------------------------------------------
    def _plan_round(self, metrics: CosimMetrics,
                    max_cycles: Optional[int],
                    max_windows: Optional[int]) -> list:
        """Window sizes for the next round, clamped to every budget.

        The master clock has not moved yet, so the per-window clamp
        against ``max_cycles`` is computed on projected cycles — the
        resulting grant sizes are exactly the ones the conservative
        loop would issue one at a time.
        """
        config = self.session.config
        budget = config.speculation_depth
        if max_windows is not None:
            budget = min(budget,
                         max_windows - self.session.windows_completed)
        budget = min(budget, config.max_windows - metrics.windows)
        plan = []
        projected = self.master.clock.cycles
        for _ in range(budget):
            if max_cycles is not None and projected >= max_cycles:
                break
            ticks = config.t_sync
            if max_cycles is not None:
                ticks = min(ticks, max_cycles - projected)
            plan.append(ticks)
            projected += ticks
        return plan

    def __call__(self, metrics: CosimMetrics, max_cycles: Optional[int],
                 max_windows: Optional[int]) -> None:
        """One speculative round (or one conservative window)."""
        session = self.session
        master = self.master
        runtime = self.runtime
        stats = session.link_stats
        plan = self._plan_round(metrics, max_cycles, max_windows)
        if not plan or not self._board_quiescent(plan[0]):
            # The board has live work — a busy window is not frame-safe
            # to discard, so it runs the exact conservative path.  Even
            # a depth-1 plan is worth speculating: the catch-up pass
            # rides the simkernel's clock leap, which the conservative
            # window body cannot use.
            session._simulate_window(metrics, max_cycles)
            return

        # -- speculate -------------------------------------------------
        # The master's books (protocol seq / ticks_granted) stay at the
        # committed boundary throughout speculation: grants are crafted
        # with future sequence numbers here and entered into
        # MasterProtocol only when their window is actually simulated,
        # so the stock check_report() validates every commit.
        seq0 = master.protocol.seq
        master_pre = copy.deepcopy({
            "master": master.snapshot(),
            "extra": self._extra_snapshot("master"),
        })
        checkpoints = []
        stash = []
        poisoned_from = None
        for k, ticks in enumerate(plan, start=1):
            if k > 1 and not self._board_quiescent(ticks):
                # The board went live mid-round (an alarm due in this
                # window, say) — truncate; windows past k-1 wait for
                # the next round.
                break
            # Board-side checkpoint at the pre-window boundary; C_k+1,
            # taken after window k completed, doubles as the committed
            # boundary-k state for the checkpointer.
            checkpoints.append(copy.deepcopy({
                "board_runtime": runtime.snapshot(),
                "link": stats.snapshot(),
                "extra": self._extra_snapshot("board"),
            }))
            master.fsm.step("spec_grant")
            grant = ClockGrant(seq=seq0 + k, ticks=ticks)
            if self.obs.enabled:
                self.obs.event("transport", "grant.send",
                               sim=master.clock.cycles, seq=grant.seq,
                               ticks=ticks, speculative=1)
            data_before = stats.data_messages
            token = None
            if self.obs.enabled:
                token = self.obs.begin("spec", "window",
                                       sim=master.clock.cycles,
                                       index=(session.windows_completed
                                              + k - 1),
                                       ticks=ticks, depth=k)
            try:
                master.endpoint.send_grant(grant)
                runtime.serve_window()
                report = master.endpoint.recv_report()
            finally:
                if token is not None:
                    self.obs.end(token, sim=master.clock.cycles)
            if report is None:
                raise ProtocolError("board produced no time report")
            master.fsm.step("recv_spec_report")
            data_delta = stats.data_messages - data_before
            stash.append((grant, report, ticks))
            session.windows_speculated += 1
            if data_delta:
                # The board touched master state up to k windows stale;
                # stop speculating — window k replays after catch-up.
                poisoned_from = k
                break
        spec_end_link = stats.snapshot()

        if poisoned_from is not None:
            # Un-pollute the master half: speculative DATA traffic was
            # served against the live model (reads bumped counters,
            # writes mutated state and may even have tripped the IRQ
            # line).  The FSM phase tracks the handshake, not model
            # state, and survives the restore.
            phase = master.fsm.state
            master.restore(master_pre["master"])
            master.fsm.state = phase
            self._extra_restore(master_pre["extra"])
            # Drop IRQ packets raised by speculative writes: they carry
            # pre-catch-up cycle stamps; the catch-up pass regenerates
            # the real schedule.
            while runtime.endpoint.poll_interrupt() is not None:
                pass

        # -- catch up and validate ------------------------------------
        master.fsm.step("begin_catchup")
        for k, (grant, report, ticks) in enumerate(stash, start=1):
            ints_before = master.interrupts_sent
            made = master.protocol.make_grant(ticks)
            if made.seq != grant.seq:  # pragma: no cover - internal
                raise ProtocolError(
                    f"speculative grant seq drifted: sent {grant.seq}, "
                    f"booked {made.seq}"
                )
            self._catchup_simulate(ticks)
            master.fsm.step("catchup_simulated")
            actual_ints = master.interrupts_sent - ints_before
            if actual_ints == 0 and k != poisoned_from:
                master.fsm.step("commit_window")
                # Alignment invariants exactly as finish_window_inproc:
                # the books and the clock are both at boundary k.
                master.protocol.check_report(report, master.clock.cycles)
                boundary = checkpoints[k] if k < len(stash) else None
                self._commit_boundary(metrics, ticks, boundary)
            else:
                self._rollback_replay(metrics, k, len(stash), grant,
                                      ticks, checkpoints[k - 1],
                                      spec_end_link)
                break
        master.fsm.step("round_done")

    # ------------------------------------------------------------------
    # Catch-up, commit, rollback
    # ------------------------------------------------------------------
    def _catchup_simulate(self, ticks: int) -> int:
        """Master's half of one speculated window, with the clock leap."""
        return self.master.simulate(ticks, leap=True)

    def _commit_boundary(self, metrics: CosimMetrics, ticks: int,
                         boundary: Optional[dict]) -> None:
        """Report a committed window to the trace and checkpointer.

        The live board has already run ahead, so for every committed
        window but the round's last the boundary-k board state comes
        from checkpoint C_{k+1}; the master half is live and exact.
        Committed windows carry no interrupts and no DATA by
        definition, and board ticks equal granted ticks by the
        alignment invariant just checked.
        """
        session = self.session
        master = self.master
        session._committed_board = boundary
        try:
            session._after_window(metrics, ticks, session._data_messages(),
                                  board_ticks=master.protocol.ticks_granted)
        finally:
            session._committed_board = None

    def _rollback_replay(self, metrics: CosimMetrics, k: int,
                         spec_count: int, grant: ClockGrant, ticks: int,
                         checkpoint: dict, spec_end_link: dict) -> None:
        """Conflict at speculated window *k*: roll the board back to the
        pre-window checkpoint and replay the window conservatively
        against the caught-up master, discarding windows k..end of the
        round."""
        session = self.session
        master = self.master
        runtime = self.runtime
        stats = session.link_stats
        depth = spec_count - (k - 1)
        session.rollbacks += 1
        session.rollback_depth_max = max(session.rollback_depth_max, depth)
        token = None
        if self.obs.enabled:
            token = self.obs.begin("spec", "rollback",
                                   sim=master.clock.cycles,
                                   window=session.windows_completed,
                                   depth=depth)
        try:
            master.fsm.step("rollback")
            runtime.restore(copy.deepcopy(checkpoint["board_runtime"]))
            self._extra_restore(copy.deepcopy(checkpoint["extra"]))
            # Rewind the link counters arithmetically: subtract what the
            # discarded speculative windows accounted (their grants,
            # reports and DATA), keeping what the catch-up pass added
            # since — the very INT packets that exposed this conflict.
            base = checkpoint["link"]
            for name in type(stats).FIELDS:
                delta = spec_end_link[name] - base[name]
                setattr(stats, name, getattr(stats, name) - delta)
            # Conservative replay: the master already simulated the
            # window (that is how the conflict surfaced); re-deliver the
            # grant and let the board consume the real schedule.
            data_before = stats.data_messages
            if self.obs.enabled:
                self.obs.event("transport", "grant.send",
                               sim=master.clock.cycles, seq=grant.seq,
                               ticks=ticks, replay=1)
            master.endpoint.send_grant(grant)
            runtime.serve_window()
            report = master.endpoint.recv_report()
            if report is None:
                raise ProtocolError("board produced no time report")
            if self.obs.enabled:
                self.obs.event("transport", "report.recv",
                               sim=master.clock.cycles, seq=report.seq,
                               board_ticks=report.board_ticks)
            master.protocol.check_report(report, master.clock.cycles)
            master.fsm.step("recv_spec_report")
            session._after_window(metrics, ticks, data_before)
        finally:
            if token is not None:
                self.obs.end(token, sim=master.clock.cycles)

    # ------------------------------------------------------------------
    # Side-tagged extra snapshotables
    # ------------------------------------------------------------------
    def _extra_snapshot(self, side: str) -> dict:
        session = self.session
        return {name: obj.snapshot()
                for name, obj in sorted(session.snapshotables.items())
                if session.snapshotable_sides.get(name, "master") == side}

    def _extra_restore(self, tree: dict) -> None:
        for name, state in tree.items():
            self.session.snapshotables[name].restore(state)
