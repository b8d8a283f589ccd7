"""RTOS threads."""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import RtosError

if TYPE_CHECKING:  # pragma: no cover
    from repro.rtos.kernel import RtosKernel

# Thread states.
READY = "ready"
RUNNING = "running"
SLEEPING = "sleeping"
BLOCKED = "blocked"
EXITED = "exited"


class Thread:
    """A kernel thread backed by a generator.

    ``entry`` is a generator function; it is called with the thread
    object if it accepts one positional argument, otherwise with no
    arguments.  The generator yields
    :class:`~repro.rtos.syscalls.Syscall` objects.
    """

    def __init__(
        self,
        kernel: "RtosKernel",
        name: str,
        entry: Callable,
        priority: int,
        allowed_in_idle: bool = False,
    ) -> None:
        if not 0 <= priority < kernel.config.priority_levels:
            raise RtosError(
                f"thread {name}: priority {priority} out of range "
                f"[0,{kernel.config.priority_levels})"
            )
        self.kernel = kernel
        self.name = name
        self.entry = entry
        self.priority = priority
        #: The priority the thread was given (or last set itself);
        #: ``priority`` may temporarily exceed it under priority
        #: inheritance.
        self.base_priority = priority
        #: May this thread run while the OS is in the co-simulation IDLE
        #: state?  (The paper's "communication threads".)
        self.allowed_in_idle = allowed_in_idle

        self.state = READY
        self.suspended = False
        self._gen = None
        #: Pending CpuWork cycles not yet consumed.
        self.work_remaining = 0
        #: Value to send into the generator at next resume.
        self.resume_value: Any = None
        #: Remaining round-robin timeslice, in SW ticks.  Saved/restored
        #: across the co-simulation NORMAL/IDLE switch (Section 5.3).
        self.timeslice_left = kernel.config.timeslice_ticks

        # Blocking bookkeeping (managed by the kernel and primitives) ----
        self._joiners = []
        self._blocked_on = None
        self._timeout_alarm = None
        self._flag_request = None
        self._mbox_role = None
        self._mbox_item = None
        # Generator-frame bookkeeping; rebuilt by re-execution.
        self._primed = False  # lint: disable=SNAP001

        # Statistics ----------------------------------------------------
        self.cycles_consumed = 0
        self.dispatch_count = 0
        self.syscall_count = 0

        self._takes_arg = self._entry_takes_arg(entry)

    @staticmethod
    def _entry_takes_arg(entry: Callable) -> bool:
        try:
            params = inspect.signature(entry).parameters
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            return False
        required = [
            p for p in params.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            and p.default is p.empty
        ]
        return len(required) >= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Thread {self.name} prio={self.priority} {self.state}>"

    @property
    def alive(self) -> bool:
        return self.state != EXITED

    @property
    def runnable(self) -> bool:
        return self.state == READY and not self.suspended

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data thread state for checkpoint digests.

        The generator frame itself cannot be serialized; it is
        reproduced by deterministic re-execution, and this tree is the
        evidence the re-execution arrived at the same point (state,
        blocking relationship, work budget, accounting).
        """
        blocked_on = getattr(self._blocked_on, "name", None) \
            if self._blocked_on is not None else None
        return {
            "state": self.state,
            "suspended": self.suspended,
            "priority": self.priority,
            "base_priority": self.base_priority,
            "work_remaining": self.work_remaining,
            "timeslice_left": self.timeslice_left,
            "cycles_consumed": self.cycles_consumed,
            "dispatch_count": self.dispatch_count,
            "syscall_count": self.syscall_count,
            # Evidence keys: digest material that re-execution
            # restore verifies rather than applies.
            "blocked_on": blocked_on,  # lint: disable=SNAP002
            "has_timeout_alarm": self._timeout_alarm is not None,  # lint: disable=SNAP002
            "started": self._gen is not None,  # lint: disable=SNAP002
        }

    def restore(self, state: dict) -> None:
        """Apply the plain scalar fields of a snapshot.

        Blocking relationships, alarms and the generator frame are
        rebuilt by re-execution, not assigned here (they reference live
        objects a serialized tree cannot carry).
        """
        for key in ("state", "suspended", "base_priority", "priority",
                    "work_remaining", "timeslice_left", "cycles_consumed",
                    "dispatch_count", "syscall_count"):
            if key not in state:
                raise RtosError(
                    f"thread {self.name}: snapshot missing {key!r}"
                )
        self.state = state["state"]
        self.suspended = state["suspended"]
        self.base_priority = state["base_priority"]
        self.priority = state["priority"]
        self.work_remaining = state["work_remaining"]
        self.timeslice_left = state["timeslice_left"]
        self.cycles_consumed = state["cycles_consumed"]
        self.dispatch_count = state["dispatch_count"]
        self.syscall_count = state["syscall_count"]

    # ------------------------------------------------------------------
    # Kernel internals
    # ------------------------------------------------------------------
    def _start_generator(self) -> None:
        if self._gen is not None:
            return
        gen = self.entry(self) if self._takes_arg else self.entry()
        if gen is None or not hasattr(gen, "send"):
            raise RtosError(
                f"thread {self.name}: entry must be a generator function"
            )
        self._gen = gen
        self._primed = False

    def _next_syscall(self):
        """Advance the generator one step; returns the yielded syscall.

        Raises StopIteration (caught by the kernel) when the thread's
        body returns.
        """
        self._start_generator()
        self.syscall_count += 1
        if not self._primed:
            self._primed = True
            return next(self._gen)
        value, self.resume_value = self.resume_value, None
        return self._gen.send(value)

    def _close(self) -> None:
        if self._gen is not None:
            self._gen.close()
            self._gen = None
