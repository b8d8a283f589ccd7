"""The discrete-event simulation kernel.

Implements the SystemC scheduling algorithm:

1. **Evaluate** — run every runnable process.  Writes to signals are
   recorded, not applied.  Immediate event notifications make waiting
   processes runnable within the same evaluate phase.
2. **Update** — commit pending signal writes; value changes schedule
   delta notifications.
3. **Delta notification** — fire delta-notified events; if any process
   became runnable, repeat from 1 (a new *delta cycle*) without
   advancing time.
4. **Time advance** — pop the earliest timed notifications, advance
   ``now`` and repeat from 1.  A free-running clock edge with nothing
   else due at its timestamp is applied by the run loop itself, with
   the outcome of steps 1-3 for the clock's toggle process; so are the
   edges after it, one by one in a local loop, until an edge wakes
   something or the next one would meet another notification.

The kernel is deliberately free of global state: any number of
:class:`Simulator` instances can coexist (the co-simulation test-suite
relies on this).
"""

from __future__ import annotations

import heapq
import math
import re
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import DeltaOverflowError, SimulationError
from repro.obs.recorder import NULL_RECORDER
from repro.simkernel.events import _DELTA, _TIMED, Event
from repro.simkernel.processes import Process
from repro.simkernel.signals import Signal

#: Auto-generated object names embed ``id()``; checkpoints rewrite them
#: to registration-order indices so snapshots compare across processes.
_DEFAULT_NAME = re.compile(r"\b(signal|event)_[0-9a-f]{6,}\b")


class Simulator:
    """A self-contained discrete-event simulation context."""

    #: Span recorder; replaced per-session when tracing is enabled.
    obs = NULL_RECORDER

    def __init__(self, name: str = "sim", max_deltas: int = 10_000) -> None:
        if max_deltas < 1:
            raise ValueError(f"max_deltas must be >= 1, got {max_deltas}")
        self.name = name
        self.max_deltas = max_deltas
        self._now = 0
        # Scheduler-transient flags (run loop + elaboration latch);
        # never live across a window boundary snapshot.
        self._running = False  # lint: disable=SNAP001
        self._stop_requested = False  # lint: disable=SNAP001
        self._elaborated = False  # lint: disable=SNAP001

        self.modules: List[Any] = []
        self.signals: List[Signal] = []
        self.events: List[Event] = []
        self.processes: List[Process] = []

        self._runnable: Deque[Tuple[Process, Optional[Event]]] = deque()
        self._update_queue: List[Signal] = []
        self._delta_events: List[Event] = []
        self._timed_queue: List[Tuple[int, int, Event]] = []
        self._seq = 0

        #: Statistics
        self.delta_count = 0
        self.process_runs = 0

    # ------------------------------------------------------------------
    # Registration (called from Event/Signal/Module/Process constructors)
    # ------------------------------------------------------------------
    def _register_event(self, event: Event) -> None:
        self.events.append(event)

    def _register_signal(self, signal: Signal) -> None:
        self.signals.append(signal)

    def _register_module(self, module: Any) -> None:
        self.modules.append(module)

    def _register_process(self, process: Process) -> None:
        self.processes.append(process)
        if self._elaborated:
            # Process created after elaboration (dynamic spawn).
            self._make_runnable(process, None)

    # ------------------------------------------------------------------
    # Public properties
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def pending_activity(self) -> bool:
        """True if any runnable process, update, or notification remains."""
        return self.time_of_next_activity() is not None

    def time_of_next_activity(self) -> Optional[int]:
        """Timestamp of the next timed event, or ``now`` if deltas pend."""
        if self._runnable or self._update_queue or self._delta_events:
            return self._now
        entry = self._peek_timed()
        return entry[0] if entry is not None else None

    # ------------------------------------------------------------------
    # Scheduling services used by events and signals
    # ------------------------------------------------------------------
    def _request_update(self, signal: Signal) -> None:
        self._update_queue.append(signal)

    def _schedule_delta_notification(self, event: Event) -> None:
        self._delta_events.append(event)

    def _cancel_delta_notification(self, event: Event) -> None:
        # Lazy cancellation: the firing loop re-checks the pending kind.
        pass

    def _schedule_timed_notification(self, event: Event, when: int) -> None:
        if when < self._now:
            raise SimulationError(
                f"timed notification in the past ({when} < {self._now})"
            )
        self._seq += 1
        heapq.heappush(self._timed_queue, (when, self._seq, event))

    def _cancel_timed_notification(self, event: Event) -> None:
        # Lazy cancellation: stale heap entries are skipped when popped.
        pass

    def _trigger_event(self, event: Event) -> None:
        """Fire *event* right now, making its waiters runnable."""
        if event.dynamic_waiters:
            waiters = event.static_sensitive + event.dynamic_waiters
            event.dynamic_waiters = []
        else:
            # Static sensitivity only changes from process code (see
            # Process.set_static_sensitivity), never while this loop
            # runs, so the list can be walked in place.
            waiters = event.static_sensitive
        for proc in waiters:
            if proc._triggered(event):
                self._make_runnable(proc, event)

    def _make_runnable(self, proc: Process, trigger: Optional[Event]) -> None:
        if proc.terminated or proc._queued:
            return
        proc._queued = True
        self._runnable.append((proc, trigger))

    # ------------------------------------------------------------------
    # Elaboration
    # ------------------------------------------------------------------
    def elaborate(self) -> None:
        """Resolve bindings and seed the initial evaluate phase."""
        if self._elaborated:
            return
        for module in self.modules:
            for port in module.ports:
                port.signal()  # resolves or raises ElaborationError
            module._resolve_deferred_sensitivity()
        for module in self.modules:
            module.end_of_elaboration()
        for proc in self.processes:
            if proc.kind == "thread" or not proc.dont_initialize:
                self._make_runnable(proc, None)
        self._elaborated = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def settle(self) -> int:
        """Run delta cycles at the current time until quiescent.

        Returns the number of delta cycles executed.  This is the
        zero-time settlement used by ``driver_simulate`` to react to
        externally injected port writes without advancing the clock.
        """
        if not self._elaborated:
            self.elaborate()
        return self._settle(0)

    def _settle(self, deltas: int) -> int:
        """:meth:`settle`, with *deltas* already run at this time (an
        inline clock edge counts as one) toward the overflow bound."""
        start = deltas
        max_deltas = self.max_deltas
        one_delta = self._one_delta
        while self._runnable or self._update_queue or self._delta_events:
            one_delta()
            deltas += 1
            if deltas > max_deltas:
                raise DeltaOverflowError(
                    f"{self.name}: > {self.max_deltas} delta cycles at "
                    f"time {self._now} (combinational loop?)"
                )
        return deltas - start

    def run_until(self, t_end: int) -> None:
        """Advance simulation, processing all events with time <= t_end.

        On return ``now == t_end`` (unless :meth:`stop` was called).
        """
        self._check_end("run_until", t_end)
        self._run_spanned(t_end, ())

    def run_until_leaping(self, t_end: int, clocks=()) -> int:
        """:meth:`run_until`, with an analytic fast path over quiet
        clock stretches.

        Whenever the model is provably quiescent — the only live timed
        notifications before the next foreign event belong to one of
        *clocks*, and nothing observes or waits on that clock's signal —
        the stretch of pure clock edges is applied in closed form
        instead of being simulated edge by edge.  The resulting kernel
        state (time, signal level, ``cycles``, ``delta_count``,
        ``process_runs``, ``change_count``, pending tick) is
        bit-identical to conservative execution; only wall-clock time
        and the unsnapshotted heap sequence numbers differ.

        Returns the number of edges applied analytically.
        """
        self._check_end("run_until_leaping", t_end)
        return self._run_spanned(t_end, clocks)

    def run(self, duration: Optional[int] = None) -> None:
        """Run for *duration* picoseconds, or until no activity remains."""
        if duration is not None:
            self.run_until(self._now + duration)
            return
        self._run(None)

    def _check_end(self, verb: str, t_end: int) -> None:
        if t_end < self._now:
            raise SimulationError(
                f"{verb}({t_end}) is in the past (now={self._now})"
            )

    def _run_spanned(self, t_end: int, clocks) -> int:
        """:meth:`_run` under a ``simkernel.run_until`` span when tracing
        is on, reporting the deltas and process runs, and with *clocks*
        the edges leapt."""
        obs = self.obs
        if not obs.enabled:
            return self._run(t_end, clocks)
        deltas = self.delta_count
        runs = self.process_runs
        leapt = 0
        token = obs.begin("simkernel", "run_until", sim=self._now)
        try:
            leapt = self._run(t_end, clocks)
        finally:
            obs.end(token, sim=self._now,
                    deltas=self.delta_count - deltas,
                    process_runs=self.process_runs - runs,
                    **({"leapt": leapt} if clocks else {}))
        return leapt

    def _run(self, t_end: Optional[int], clocks=()) -> int:
        """The run loop: settle, then advance to the earliest timed
        notification, until none is due by *t_end* (None: until none
        is left).  Free-running clock edges with nothing else due at
        their timestamps are applied inline, a run at a time
        (:meth:`_clock_edges`); with *clocks*, quiet stretches of their
        edges are leapt.  Returns the number of edges leapt."""
        self.elaborate()
        horizon = math.inf if t_end is None else t_end
        leapt = 0
        deltas = 0
        self._stop_requested = False
        self._running = True
        try:
            while True:
                if self._runnable or self._update_queue or self._delta_events:
                    self._settle(deltas)
                deltas = 0
                if self._stop_requested:
                    break
                entry = self._peek_timed()
                if entry is None or entry[0] > horizon:
                    break
                when, _seq, event = entry
                if clocks:
                    edges = self._leap(clocks, t_end)
                    if edges:
                        leapt += edges
                        continue
                clock = event._clock
                if clock is not None and clock._free_running():
                    heapq.heappop(self._timed_queue)
                    head = self._peek_timed()
                    if head is None or head[0] != when:
                        # Run edges up to just before the next foreign
                        # notification: coincident ones keep heap order.
                        self._clock_edges(clock, when, horizon if head is None
                                          else min(horizon, head[0] - 1))
                        deltas = 1
                        continue
                    # Not alone: the tick heads its timestamp, so fire
                    # it first and then the rest in heap order.
                    self._now = when
                    event._fired()
                    self._trigger_event(event)
                self._advance_to(when)
            if (t_end is not None and not self._stop_requested
                    and t_end > self._now):
                self._now = t_end
        finally:
            self._running = False
        return leapt

    def _clock_edges(self, clock, when: int, until) -> None:
        """Apply a run of *clock*'s edges inline, the first at *when*
        and each next one while it lands by *until*: per edge, what
        firing its tick and running the toggle process's delta would
        do, with the same counters and the same signal commit (edge
        events, observers).

        The run ends after an edge that leaves delta notifications
        (the delta-notify phase then runs; processes they wake run in
        the next delta).  Nothing else can act during a run: no process
        runs, so none can stop the kernel, wait on the tick or notify
        an event.  Only an observer could, so a clock whose signal is
        observed gets a run of one edge.

        The re-armed tick is pushed once, when the run ends: before the
        last edge's commit when that edge is known to be the last (an
        observer's timed notification then lands behind it, as after a
        per-edge push), else after it.  No other entry is pushed during
        a run, so heap order is the same as edge by edge."""
        signal = clock.signal
        if signal._observers:
            until = when
        tick = clock._tick
        proc = clock._toggle_proc
        gaps = clock._gaps
        while True:
            self._now = when
            self.delta_count += 1
            self.process_runs += 1
            proc.activations += 1
            # The toggle process's edge (Clock._toggle), inline.
            level = not signal._current
            if level:
                clock.cycles += 1
            when += gaps[level]
            last = when > until
            if last:
                tick._pending_time = when
                self._schedule_timed_notification(tick, when)
            signal._next = level
            signal._update()
            if self._delta_events:
                break
            if last:
                return
        if not last:
            tick._pending_time = when
            self._schedule_timed_notification(tick, when)
        self._fire_delta_events()

    def _leap(self, clocks, t_end: int) -> int:
        """Leap the first of *clocks* with a quiet stretch ahead."""
        for clock in clocks:
            limit = self._quiet_limit(clock, t_end)
            if limit is not None:
                edges = self._leap_clock(clock, limit)
                if edges:
                    return edges
        return 0

    def _quiet_limit(self, clock, t_end: int) -> Optional[int]:
        """Latest time up to which *clock* may leap, or None.

        A leap is sound only when the clock's tick is the sole live
        timed notification in the stretch, the tick is free-running
        (:meth:`Clock._free_running`), and nothing can react to the
        signal's edges (no observers, no waiters on its lazily-created
        edge events).  Under those conditions no other process can run
        during the stretch, so the edge-by-edge outcome is closed-form.
        """
        tick = clock._tick
        if tick._pending_kind != _TIMED or tick._pending_time is None:
            return None
        if not clock._free_running():
            return None
        sig = clock.signal
        if sig._observers or sig._update_pending:
            return None
        for event in (sig._changed, sig._posedge, sig._negedge):
            if event is not None and (event.static_sensitive
                                      or event.dynamic_waiters):
                return None
        # Stop strictly before the earliest live foreign notification:
        # events coincident with a clock edge must run conservatively so
        # same-timestamp ordering matches edge-by-edge execution.
        limit = t_end
        for when, _seq, event in self._timed_queue:
            if event is tick:
                continue
            if event._pending_kind == _TIMED and event._pending_time == when:
                if when - 1 < limit:
                    limit = when - 1
        return limit

    def _leap_clock(self, clock, limit: int) -> int:
        """Apply *clock*'s edges up to *limit* analytically.

        Per conservative edge the kernel runs exactly one delta cycle
        (one process run, one signal commit); a rising edge additionally
        increments ``clock.cycles``.  Edge times form two arithmetic
        series with stride ``period``: series 0 at the pending tick time
        (transitioning away from the current level), series 1 offset by
        the first edge's gap (transitioning back).
        """
        tick = clock._tick
        e0 = tick._pending_time
        if e0 is None or e0 > limit:
            return 0
        level = bool(clock.signal._current)
        period = clock.period
        # Gap scheduled *after* an edge depends on the level it wrote.
        gap0 = clock._gaps[not level]
        n0 = (limit - e0) // period + 1
        e1 = e0 + gap0
        n1 = (limit - e1) // period + 1 if e1 <= limit else 0
        total = n0 + n1
        if total < 2:
            return 0  # a lone edge is cheaper to apply inline
        rising = n1 if level else n0
        last0 = e0 + (n0 - 1) * period
        t_last = last0 if n1 == 0 else max(last0, e1 + (n1 - 1) * period)
        final_level = level if total % 2 == 0 else not level
        self.delta_count += total
        self.process_runs += total
        sig = clock.signal
        sig.change_count += total
        sig._current = final_level
        sig._next = final_level
        clock.cycles += rising
        self._now = t_last
        tick.cancel()
        tick.notify(clock._gaps[final_level])
        return total

    def stop(self) -> None:
        """Request the current :meth:`run` call to return."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_names(self):
        """Name maps for checkpoints, stable across processes.

        Auto-generated names embed ``id()``, which differs between
        runs; they are rewritten to registration-order indices (both
        runs register objects in the same deterministic order).
        """
        mapping: Dict[str, str] = {}

        def normalize(name: str) -> str:
            def repl(match):
                token = match.group(0)
                if token not in mapping:
                    mapping[token] = f"{match.group(1)}#{len(mapping)}"
                return mapping[token]
            return _DEFAULT_NAME.sub(repl, name)

        signals = {}
        for signal in self.signals:
            signals.setdefault(normalize(signal.name), signal)
        events = {}
        for event in self.events:
            events.setdefault(normalize(event.name), event)
        modules = {}
        for index, module in enumerate(self.modules):
            if not (callable(getattr(module, "snapshot", None))
                    and callable(getattr(module, "restore", None))):
                continue
            base = normalize(getattr(module, "full_name", "")
                             or getattr(module, "name", "")
                             or f"module#{index}")
            name, bump = base, 1
            while name in modules:
                name = f"{base}#{bump}"
                bump += 1
            modules[name] = module
        return signals, events, modules

    def _require_settled(self, verb: str) -> None:
        if self._runnable or self._update_queue or self._delta_events:
            raise SimulationError(
                f"{self.name}: cannot {verb} with pending delta "
                "activity; snapshots are only valid at settled points"
            )

    def snapshot(self) -> dict:
        """Plain-data kernel state at a settled point (window boundary).

        Covers simulation time, committed signal values, live timed
        notifications and the sub-state of every snapshotable module.
        Process generator frames are *not* serializable; they are
        reproduced by deterministic re-execution and verified against
        this tree (see :mod:`repro.replay.checkpoint`).
        """
        self._require_settled("snapshot")
        signals, events, modules = self._checkpoint_names()
        timed: List[list] = []
        seen: Set[int] = set()
        event_names = {id(event): name for name, event in events.items()}
        for when, _seq, event in sorted(self._timed_queue,
                                        key=lambda entry: entry[:2]):
            if (event._pending_kind == _TIMED
                    and event._pending_time == when
                    and id(event) not in seen):
                seen.add(id(event))
                timed.append([when, event_names[id(event)]])
        return {
            "now": self._now,
            "delta_count": self.delta_count,
            "process_runs": self.process_runs,
            "signals": {name: [signal._current, signal.change_count]
                        for name, signal in signals.items()},
            "timed": timed,
            "modules": {name: module.snapshot()
                        for name, module in modules.items()},
        }

    def restore(self, state: dict) -> None:
        """Apply a :meth:`snapshot` tree to a settled, elaborated kernel."""
        self._require_settled("restore")
        signals, events, modules = self._checkpoint_names()
        for key in ("now", "delta_count", "process_runs", "signals",
                    "timed", "modules"):
            if key not in state:
                raise SimulationError(
                    f"{self.name}: snapshot missing key {key!r}"
                )
        self._now = state["now"]
        self.delta_count = state["delta_count"]
        self.process_runs = state["process_runs"]
        for name, (value, change_count) in state["signals"].items():
            signal = signals.get(name)
            if signal is None:
                raise SimulationError(
                    f"{self.name}: snapshot names unknown signal {name!r}"
                )
            signal._current = value
            signal._next = value
            signal._update_pending = False
            signal.change_count = change_count
        for event in self.events:
            if event._pending_kind == _TIMED:
                event.cancel()
        self._timed_queue = []
        for when, name in state["timed"]:
            event = events.get(name)
            if event is None:
                raise SimulationError(
                    f"{self.name}: snapshot names unknown event {name!r}"
                )
            event._pending_kind = _TIMED
            event._pending_time = when
            self._seq += 1
            heapq.heappush(self._timed_queue, (when, self._seq, event))
        for name, sub in state["modules"].items():
            module = modules.get(name)
            if module is None:
                raise SimulationError(
                    f"{self.name}: snapshot names unknown module {name!r}"
                )
            module.restore(sub)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _one_delta(self) -> None:
        """One evaluate / update / delta-notify sweep."""
        self.delta_count += 1
        # Evaluate phase.  Immediate notifications may extend the queue.
        runnable = self._runnable
        runs = 0
        try:
            while runnable:
                proc, trigger = runnable.popleft()
                proc._queued = False
                runs += 1
                proc._run(trigger)
        finally:
            self.process_runs += runs
        # Update phase.
        updates = self._update_queue
        if updates:
            self._update_queue = []
            for signal in updates:
                signal._update()
        # Delta notification phase.
        if self._delta_events:
            self._fire_delta_events()

    def _fire_delta_events(self) -> None:
        """The delta-notification phase: fire every still-pending delta
        notification, making its waiters runnable."""
        pending = self._delta_events
        self._delta_events = []
        for event in pending:
            if event._pending_kind == _DELTA:
                event._fired()
                self._trigger_event(event)

    def _peek_timed(self) -> Optional[Tuple[int, int, Event]]:
        """Earliest live timed notification, skipping stale entries."""
        queue = self._timed_queue
        while queue:
            when, seq, event = queue[0]
            if event._pending_kind == _TIMED and event._pending_time == when:
                return queue[0]
            heapq.heappop(queue)  # stale (cancelled or superseded)
        return None

    def _advance_to(self, when: int) -> None:
        """Advance time to *when* and fire every notification due then."""
        self._now = when
        queue = self._timed_queue
        while queue and queue[0][0] == when:
            _, _, event = heapq.heappop(queue)
            if event._pending_kind == _TIMED and event._pending_time == when:
                event._fired()
                self._trigger_event(event)
