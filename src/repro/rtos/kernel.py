"""The RTOS kernel: cycle-accurate thread execution.

The kernel advances a virtual CPU one *cycle budget* at a time.  Threads
are generators yielding syscalls; ``CpuWork`` items are consumed
preemptibly, sliced at hardware-tick boundaries where the timer ISR
runs, alarms fire and the round-robin timeslice is charged — the timing
structure the DATE'05 paper synchronizes against (HW tick → SW tick →
scheduler).

Co-simulation support (Section 5.3 of the paper) is built in:

* :meth:`enter_idle_state` / :meth:`exit_idle_state` implement the
  NORMAL/IDLE switch, saving and restoring the interrupted thread's
  timeslice exactly as the paper describes;
* :meth:`run_ticks` runs the OS for a granted number of software ticks
  (the "multiple-tick message" of Section 4.2); the co-simulation
  runtime schedules the window's interrupts at their exact cycles
  before it starts.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.errors import RtosError
from repro.obs.recorder import NULL_RECORDER
from repro.rtos.alarm import Alarm, AlarmQueue
from repro.rtos.config import RtosConfig
from repro.rtos.devices import DeviceTable
from repro.rtos.interrupts import InterruptController
from repro.rtos.scheduler import MlqScheduler
from repro.rtos.sync import Waitable
from repro.rtos.syscalls import BLOCKED, DONE, WORK, Syscall
from repro.rtos.thread import (
    BLOCKED as T_BLOCKED,
    EXITED,
    READY,
    RUNNING,
    SLEEPING,
    Thread,
)

#: Co-simulation OS states (Figure 3 of the paper).
NORMAL = "normal"
IDLE = "idle"

#: Safety limit on zero-cycle scheduler iterations.
_MAX_ZERO_PROGRESS = 100_000


class RtosKernel:
    """An eCos-like real-time kernel running on a virtual CPU."""

    #: Span recorder; replaced per-session when tracing is enabled.
    obs = NULL_RECORDER

    def __init__(self, config: Optional[RtosConfig] = None,
                 name: str = "rtos") -> None:
        self.config = config or RtosConfig()
        self.name = name
        self.scheduler = MlqScheduler(self.config)
        self.interrupts = InterruptController(self)
        self.devices = DeviceTable()
        self._alarm_queue = AlarmQueue()
        self.threads: List[Thread] = []
        self.current: Optional[Thread] = None
        self._last_thread: Optional[Thread] = None
        # Lifecycle latch; re-execution restore re-runs start().
        self._started = False  # lint: disable=SNAP001
        #: Names of threads declared as *communication threads* — the
        #: only threads Section 5.3 permits to run while the OS is
        #: frozen in the IDLE state (``repro lint`` checks this against
        #: each thread's ``allowed_in_idle`` flag).
        self.communication_threads: set = set()

        # Time ----------------------------------------------------------
        self._cycles = 0
        self._hw_ticks = 0
        self._sw_ticks = 0
        self._next_tick_at = self.config.cycles_per_hw_tick
        self._hw_tick_phase = 0

        # Co-simulation state machine ------------------------------------
        self.state = NORMAL
        self.state_switches = 0
        self._saved_context: Optional[Tuple[Thread, int]] = None

        # External (cross-OS-thread) interrupt injection ------------------
        self._external_irqs: Deque[int] = deque()

        # Statistics ------------------------------------------------------
        self.idle_cycles = 0
        self.kernel_cycles = 0
        self.context_switches = 0

    # ------------------------------------------------------------------
    # Time properties
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        """CPU cycles elapsed since boot."""
        return self._cycles

    @property
    def hw_ticks(self) -> int:
        return self._hw_ticks

    @property
    def sw_ticks(self) -> int:
        """The software tick counter — the board's scheduling time base."""
        return self._sw_ticks

    # ------------------------------------------------------------------
    # Construction API
    # ------------------------------------------------------------------
    def create_thread(self, name: str, entry: Callable, priority: int,
                      allowed_in_idle: bool = False,
                      start: bool = True) -> Thread:
        thread = Thread(self, name, entry, priority, allowed_in_idle)
        self.threads.append(thread)
        if start:
            self.scheduler.add(thread)
        else:
            thread.suspended = True
            self.scheduler.add(thread)
        return thread

    def register_communication_thread(self, thread) -> None:
        """Declare *thread* (a Thread or name) as a communication thread.

        Communication threads service the co-simulation channel and are
        expected to carry ``allowed_in_idle=True``; the static checker
        flags any mismatch between this registry and the scheduler's
        idle whitelist (rules RTOS001/RTOS002).
        """
        name = thread if isinstance(thread, str) else thread.name
        self.communication_threads.add(name)

    def create_alarm(self, callback: Callable[[Alarm, Any], None],
                     data: Any = None, name: str = "") -> Alarm:
        return Alarm(self, callback, data, name)

    def start(self) -> None:
        if not self._started:
            self._started = True

    # ------------------------------------------------------------------
    # Thread state services (used by syscalls and primitives)
    # ------------------------------------------------------------------
    def _sleep_thread(self, thread: Thread, ticks: int) -> None:
        self._sleep_thread_until(thread, self._sw_ticks + ticks)

    def _sleep_thread_until(self, thread: Thread, tick: int) -> None:
        thread.state = SLEEPING
        alarm = self.create_alarm(self._wake_sleeper, data=thread,
                                  name=f"{thread.name}.sleep")
        alarm.initialize(tick)
        thread._timeout_alarm = alarm

    def _wake_sleeper(self, alarm: Alarm, thread: Thread) -> None:
        if thread.state == SLEEPING:
            thread._timeout_alarm = None
            thread.resume_value = None
            thread.state = READY
            self.scheduler.add(thread)

    def _block_on(self, waitable: Waitable, thread: Thread,
                  timeout: Optional[int], timeout_value: Any) -> None:
        thread.state = T_BLOCKED
        thread._blocked_on = waitable
        waitable._enqueue(thread)
        if timeout is not None:
            if timeout <= 0:
                raise RtosError(f"timeout must be positive, got {timeout}")
            alarm = self.create_alarm(
                self._timeout_fired,
                data=(thread, waitable, timeout_value),
                name=f"{thread.name}.timeout",
            )
            alarm.initialize(self._sw_ticks + timeout)
            thread._timeout_alarm = alarm

    def _timeout_fired(self, alarm: Alarm, data) -> None:
        thread, waitable, timeout_value = data
        if thread.state == T_BLOCKED and getattr(thread, "_blocked_on", None) is waitable:
            waitable._dequeue(thread)
            self._ready(thread, timeout_value)

    def _ready(self, thread: Thread, value: Any) -> None:
        """Make a blocked/sleeping thread runnable with resume *value*."""
        if thread.state == EXITED:
            return
        alarm = getattr(thread, "_timeout_alarm", None)
        if alarm is not None:
            alarm.disable()
            thread._timeout_alarm = None
        blocked_on = getattr(thread, "_blocked_on", None)
        if blocked_on is not None:
            blocked_on._dequeue(thread)
            thread._blocked_on = None
        thread.resume_value = value
        if thread.state != READY:
            thread.state = READY
            self.scheduler.add(thread)

    def _suspend(self, thread: Thread) -> None:
        thread.suspended = True
        if thread is self.current:
            thread.state = READY
            self.scheduler.add_front(thread)
            self.current = None

    def resume(self, thread: Thread) -> None:
        """Clear a thread's suspended flag."""
        thread.suspended = False

    def _yield_cpu(self, thread: Thread) -> bool:
        """Round-robin yield: requeue behind same-priority peers.

        Returns False (and leaves the thread running) when no eligible
        peer exists at its priority.
        """
        if not self.scheduler.peers_ready(thread):
            return False
        thread.state = READY
        self.scheduler.add(thread)
        if thread is self.current:
            self.current = None
        return True

    def _join(self, target: Thread, waiter: Thread,
              timeout: Optional[int]) -> None:
        """Block *waiter* until *target* exits."""
        waitable = getattr(target, "_join_waitable", None)
        if waitable is None:
            waitable = Waitable(self, f"{target.name}.join")
            target._join_waitable = waitable
        self._block_on(waitable, waiter, timeout, timeout_value=False)

    def _exit_thread(self, thread: Thread) -> None:
        thread.state = EXITED
        thread._close()
        self.scheduler.remove(thread)
        if thread is self.current:
            self.current = None
        waitable = getattr(thread, "_join_waitable", None)
        if waitable is not None:
            while True:
                joiner = waitable._pop_best()
                if joiner is None:
                    break
                self._ready(joiner, True)

    def kill(self, thread: Thread) -> None:
        """Forcibly terminate *thread* from any state.

        Pending waits are torn down, its timeout alarm (if any) is
        cancelled and joiners are woken.  Equivalent to eCos
        ``cyg_thread_kill``.
        """
        if thread.state == EXITED:
            return
        alarm = getattr(thread, "_timeout_alarm", None)
        if alarm is not None:
            alarm.disable()
            thread._timeout_alarm = None
        blocked_on = getattr(thread, "_blocked_on", None)
        if blocked_on is not None:
            blocked_on._dequeue(thread)
            thread._blocked_on = None
        self._exit_thread(thread)

    # ------------------------------------------------------------------
    # Interrupt injection
    # ------------------------------------------------------------------
    def raise_interrupt(self, vector: int) -> None:
        """Asynchronously mark *vector* pending (safe cross-OS-thread)."""
        self._external_irqs.append(vector)

    # ------------------------------------------------------------------
    # Co-simulation NORMAL/IDLE state machine (Section 5.3)
    # ------------------------------------------------------------------
    def enter_idle_state(self) -> None:
        """Freeze the OS: park the running thread, saving its timeslice."""
        if self.state == IDLE:
            return
        self.state = IDLE
        self.state_switches += 1
        if self.obs.enabled:
            self.obs.event("rtos", "freeze", sim=self._cycles)
        current = self.current
        if current is not None and current.state == RUNNING:
            # "The scheduler saves the context (in particular, the value
            # of the timeslice) of the thread currently in execution."
            self._saved_context = (current, current.timeslice_left)
            current.state = READY
            self.scheduler.add_front(current)
            self.current = None
        else:
            self._saved_context = None
        self.scheduler.idle_mode = True

    def exit_idle_state(self) -> None:
        """Thaw the OS: restore the parked thread's timeslice."""
        if self.state == NORMAL:
            return
        self.state = NORMAL
        self.state_switches += 1
        if self.obs.enabled:
            self.obs.event("rtos", "thaw", sim=self._cycles)
        self.scheduler.idle_mode = False
        if self._saved_context is not None:
            thread, timeslice = self._saved_context
            if thread.state == READY:
                # "The scheduler resumes the thread that was suspended
                # and restores its context (the value of its timeslice)."
                thread.timeslice_left = timeslice
            self._saved_context = None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data kernel state: time, threads, queues, counters.

        Thread generator frames are not serializable; this tree is the
        digest-verified evidence that a deterministic re-execution
        reached the same state (see :mod:`repro.replay.checkpoint`).
        """
        threads = {}
        for thread in self.threads:
            if thread.name in threads:
                raise RtosError(
                    f"{self.name}: duplicate thread name {thread.name!r} "
                    "prevents checkpointing"
                )
            threads[thread.name] = thread.snapshot()
        saved = None
        if self._saved_context is not None:
            saved = [self._saved_context[0].name, self._saved_context[1]]
        return {
            "cycles": self._cycles,
            "hw_ticks": self._hw_ticks,
            "sw_ticks": self._sw_ticks,
            "next_tick_at": self._next_tick_at,
            "hw_tick_phase": self._hw_tick_phase,
            "state": self.state,
            "state_switches": self.state_switches,
            "saved_context": saved,
            "current": self.current.name if self.current else None,
            "last_thread": (self._last_thread.name
                            if self._last_thread else None),
            "external_irqs": list(self._external_irqs),
            "idle_cycles": self.idle_cycles,
            "kernel_cycles": self.kernel_cycles,
            "context_switches": self.context_switches,
            "threads": threads,
            "scheduler": self.scheduler.snapshot(),
            "alarms": self._alarm_queue.snapshot(),
            "interrupts": self.interrupts.snapshot(),
            "devices": {
                name: device.snapshot()
                for name, device in self.devices.items()
                if callable(getattr(device, "snapshot", None))
                and callable(getattr(device, "restore", None))
            },
        }

    def restore(self, state: dict) -> None:
        """Apply a snapshot to a structurally identical kernel.

        The kernel must already hold the same thread/alarm/vector
        population (built by the same construction code and brought to
        the checkpoint by re-execution); this re-applies every plain
        field and queue ordering on top.
        """
        for key in ("cycles", "hw_ticks", "sw_ticks", "next_tick_at",
                    "hw_tick_phase", "state", "state_switches",
                    "idle_cycles", "kernel_cycles", "context_switches",
                    "threads", "scheduler", "alarms", "interrupts"):
            if key not in state:
                raise RtosError(
                    f"{self.name}: kernel snapshot missing {key!r}"
                )
        by_name = {thread.name: thread for thread in self.threads}
        for name, sub in state["threads"].items():
            thread = by_name.get(name)
            if thread is None:
                raise RtosError(
                    f"{self.name}: snapshot names unknown thread {name!r}"
                )
            thread.restore(sub)
        self._cycles = state["cycles"]
        self._hw_ticks = state["hw_ticks"]
        self._sw_ticks = state["sw_ticks"]
        self._next_tick_at = state["next_tick_at"]
        self._hw_tick_phase = state["hw_tick_phase"]
        self.state = state["state"]
        self.state_switches = state["state_switches"]
        saved = state.get("saved_context")
        if saved is not None:
            name, timeslice = saved
            if name not in by_name:
                raise RtosError(
                    f"{self.name}: snapshot names unknown thread {name!r}"
                )
            self._saved_context = (by_name[name], timeslice)
        else:
            self._saved_context = None
        current = state.get("current")
        self.current = by_name[current] if current else None
        last = state.get("last_thread")
        self._last_thread = by_name[last] if last else None
        self._external_irqs = deque(state.get("external_irqs", []))
        self.idle_cycles = state["idle_cycles"]
        self.kernel_cycles = state["kernel_cycles"]
        self.context_switches = state["context_switches"]
        self.scheduler.restore(state["scheduler"], by_name)
        self._alarm_queue.restore(state["alarms"])
        self.interrupts.restore(state["interrupts"])
        devices = dict(self.devices.items())
        for name, sub in state.get("devices", {}).items():
            device = devices.get(name)
            if device is None:
                raise RtosError(
                    f"{self.name}: snapshot names unknown device {name!r}"
                )
            device.restore(sub)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_ticks(self, ticks: int) -> None:
        """Run the OS for *ticks* software ticks: one granted window,
        whose interrupts the co-simulation runtime has already
        scheduled at their exact cycles."""
        if ticks <= 0:
            raise RtosError(f"tick grant must be positive: {ticks}")
        obs = self.obs
        if not obs.enabled:
            self._run_ticks(ticks)
            return
        switches = self.context_switches
        idle = self.idle_cycles
        kern = self.kernel_cycles
        token = obs.begin("rtos", "run_ticks", sim=self._cycles,
                          ticks=ticks)
        try:
            self._run_ticks(ticks)
        finally:
            obs.end(token, sim=self._cycles,
                    context_switches=self.context_switches - switches,
                    idle_cycles=self.idle_cycles - idle,
                    kernel_cycles=self.kernel_cycles - kern)

    def _run_ticks(self, ticks: int) -> None:
        target = self._sw_ticks + ticks
        config = self.config
        while self._sw_ticks < target:
            # Run straight to the hardware tick that completes the
            # target software tick: run_until_cycle fires every
            # intermediate tick as it crosses the (fixed) tick grid,
            # and a single large limit lets the idle fast-forward
            # batch whole grants instead of one tick per call.
            remaining_hw = ((target - self._sw_ticks)
                            * config.hw_ticks_per_sw_tick
                            - self._hw_tick_phase)
            self.run_until_cycle(
                self._next_tick_at
                + (remaining_hw - 1) * config.cycles_per_hw_tick)

    def run_cycles(self, budget: int) -> None:
        """Run the OS for *budget* CPU cycles."""
        self.run_until_cycle(self._cycles + budget)

    def run_until_cycle(self, limit: int) -> None:
        """Advance the virtual CPU until ``cycles >= limit``."""
        self.start()
        zero_progress = 0
        while self._cycles < limit:
            before = self._cycles
            self._service_interrupts()
            self._schedule()
            thread = self.current
            if thread is None:
                if (not self._external_irqs
                        and self._fast_forward_idle(limit)):
                    zero_progress = 0
                    continue
                self._run_idle_gap(limit)
            else:
                self._run_thread_slice(thread, limit)
            while self._cycles >= self._next_tick_at:
                self._on_hw_tick()
            if self._cycles == before:
                zero_progress += 1
                if zero_progress > _MAX_ZERO_PROGRESS:
                    raise RtosError(
                        f"{self.name}: no progress at cycle {self._cycles} "
                        "(runaway zero-cost loop in a thread?)"
                    )
            else:
                zero_progress = 0

    # ------------------------------------------------------------------
    # Loop internals
    # ------------------------------------------------------------------
    def _service_interrupts(self) -> None:
        while self._external_irqs:
            self.interrupts.raise_now(self._external_irqs.popleft())
        if self.interrupts.has_work(self._cycles):
            charged = self.interrupts.service()
            self._cycles += charged
            self.kernel_cycles += charged

    def _schedule(self) -> None:
        current = self.current
        if current is not None and (current.state != RUNNING
                                    or current.suspended):
            self.current = None
            current = None
        if current is not None:
            best = self.scheduler.best_priority()
            if best is not None and best < current.priority:
                current.state = READY
                self.scheduler.add_front(current)
                self.current = None
                current = None
        if self.current is None:
            thread = self.scheduler.pop_best()
            if thread is not None:
                thread.state = RUNNING
                thread.dispatch_count += 1
                self.current = thread
                if thread is not self._last_thread:
                    self.context_switches += 1
                    cost = self.config.context_switch_cycles
                    self._cycles += cost
                    self.kernel_cycles += cost
                self._last_thread = thread

    def _bound(self, limit: int) -> int:
        bound = min(limit, self._next_tick_at)
        scheduled = self.interrupts.next_scheduled_cycle()
        if scheduled is not None:
            bound = min(bound, max(scheduled, self._cycles))
        return bound

    def _fast_forward_idle(self, limit: int) -> bool:
        """Arithmetically batch quiescent hardware ticks.

        When no thread is runnable and nothing can preempt — no pending
        or due interrupts — each hardware tick is pure bookkeeping:
        burn the idle gap, charge the timer ISR, maybe count a software
        tick.  This folds a run of such ticks into one arithmetic
        update, stopping one tick short of the next deterministically
        scheduled interrupt, the next live alarm's software tick, and
        the cycle *limit*, so those are handled by the exact per-tick
        path.  Returns True if any ticks were skipped.
        """
        config = self.config
        period = config.cycles_per_hw_tick
        isr = config.timer_isr_cycles
        if isr >= period:
            return False  # back-to-back ticks; keep the exact loop
        next_tick = self._next_tick_at
        if self._cycles >= next_tick or limit < next_tick:
            return False
        if (self.scheduler.best_priority() is not None
                or self.interrupts.has_work(self._cycles)):
            return False
        # Whole ticks that fit under the cycle limit.
        ticks = (limit - next_tick) // period + 1
        scheduled = self.interrupts.next_scheduled_cycle()
        if scheduled is not None:
            if scheduled < next_tick + isr:
                return False
            ticks = min(ticks, (scheduled - next_tick - isr) // period + 1)
        alarm_tick = self._alarm_queue.next_tick()
        if alarm_tick is not None:
            per_sw = config.hw_ticks_per_sw_tick
            until_alarm = ((alarm_tick - self._sw_ticks) * per_sw
                           - self._hw_tick_phase)
            ticks = min(ticks, until_alarm - 1)
        if ticks <= 0:
            return False
        # Identical bookkeeping to `ticks` iterations of the exact loop:
        # idle up to each tick boundary, then the timer ISR charge.
        self.idle_cycles += (next_tick - self._cycles
                             + (ticks - 1) * (period - isr))
        self.kernel_cycles += ticks * isr
        self._cycles = next_tick + (ticks - 1) * period + isr
        self._next_tick_at = next_tick + ticks * period
        self._hw_ticks += ticks
        wraps, self._hw_tick_phase = divmod(
            self._hw_tick_phase + ticks, config.hw_ticks_per_sw_tick)
        self._sw_ticks += wraps
        return True

    def _run_idle_gap(self, limit: int) -> None:
        """No runnable thread: burn cycles until something can happen."""
        bound = self._bound(limit)
        if bound > self._cycles:
            self.idle_cycles += bound - self._cycles
            self._cycles = bound

    def _run_thread_slice(self, thread: Thread, limit: int) -> None:
        if thread.work_remaining == 0:
            self._advance_thread(thread)
            if thread.work_remaining == 0:
                return  # blocked, exited, preempt-check or zero work
        bound = self._bound(limit)
        step = min(thread.work_remaining, bound - self._cycles)
        if step > 0:
            self._cycles += step
            thread.work_remaining -= step
            thread.cycles_consumed += step

    def _advance_thread(self, thread: Thread) -> None:
        """Pull syscalls from *thread* until it has work or stops running."""
        while True:
            try:
                syscall = thread._next_syscall()
            except StopIteration:
                self._exit_thread(thread)
                return
            if self.config.syscall_cycles:
                self._cycles += self.config.syscall_cycles
                self.kernel_cycles += self.config.syscall_cycles
            if not isinstance(syscall, Syscall):
                raise RtosError(
                    f"thread {thread.name} yielded {syscall!r}, "
                    "expected a Syscall"
                )
            kind, value = syscall.apply(self, thread)
            if kind == WORK:
                thread.work_remaining = value
                return
            if kind == BLOCKED:
                return
            assert kind == DONE
            thread.resume_value = value
            if thread.state != RUNNING or thread.suspended:
                return
            best = self.scheduler.best_priority()
            if best is not None and best < thread.priority:
                return  # let the main loop preempt before continuing

    def _on_hw_tick(self) -> None:
        """Hardware-timer pulse: run the timer ISR and tick bookkeeping."""
        self._hw_ticks += 1
        self._next_tick_at += self.config.cycles_per_hw_tick
        cost = self.config.timer_isr_cycles
        self._cycles += cost
        self.kernel_cycles += cost
        self._hw_tick_phase += 1
        if self._hw_tick_phase >= self.config.hw_ticks_per_sw_tick:
            self._hw_tick_phase = 0
            self._on_sw_tick()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def utilization(self) -> dict:
        """CPU-time breakdown since boot, as fractions of total cycles.

        Returns ``{"threads": {name: fraction}, "idle": f, "kernel": f,
        "total_cycles": n}`` — the performance-estimation view the
        paper's methodology exists to provide ("early architectural and
        design decisions can be taken by measuring the expected
        performance").
        """
        total = self._cycles
        if total == 0:
            return {"threads": {}, "idle": 0.0, "kernel": 0.0,
                    "total_cycles": 0}
        threads = {
            thread.name: thread.cycles_consumed / total
            for thread in self.threads
            if thread.cycles_consumed
        }
        return {
            "threads": threads,
            "idle": self.idle_cycles / total,
            "kernel": self.kernel_cycles / total,
            "total_cycles": total,
        }

    def _on_sw_tick(self) -> None:
        """Software tick: alarms and the round-robin timeslice."""
        self._sw_ticks += 1
        for alarm in self._alarm_queue.due(self._sw_ticks):
            alarm._fire()
        current = self.current
        if current is not None and current.state == RUNNING:
            if self.scheduler.peers_ready(current):
                current.timeslice_left -= 1
                if current.timeslice_left <= 0:
                    current.timeslice_left = self.config.timeslice_ticks
                    current.state = READY
                    self.scheduler.add(current)
                    self.current = None
            else:
                current.timeslice_left = self.config.timeslice_ticks
