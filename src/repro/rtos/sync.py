"""Thread synchronization primitives (eCos analogues).

Blocking operations return :class:`~repro.rtos.syscalls.Syscall`
objects; a thread performs them by yielding::

    ok = yield sem.wait(timeout=50)     # ticks; False on timeout
    yield mutex.lock()
    ...
    mutex.unlock()
    item = yield mbox.get()
    bits = yield flag.wait(0x3, mode=Flag.OR, clear=True)

Non-blocking ``try_*`` variants and ISR/DSR-safe ``post``/``put`` calls
are plain methods.  Waiter wake-up order is priority-then-FIFO, matching
eCos.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List, Optional

from repro.errors import RtosError
from repro.rtos.syscalls import BLOCKED, DONE, Syscall

if TYPE_CHECKING:  # pragma: no cover
    from repro.rtos.kernel import RtosKernel
    from repro.rtos.thread import Thread


class Waitable:
    """Base class: a wait queue ordered by priority then FIFO."""

    def __init__(self, kernel: "RtosKernel", name: str) -> None:
        self.kernel = kernel
        self.name = name
        self._waiters: List["Thread"] = []

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def _enqueue(self, thread: "Thread") -> None:
        self._waiters.append(thread)

    def _dequeue(self, thread: "Thread") -> None:
        if thread in self._waiters:
            self._waiters.remove(thread)

    def _pop_best(self) -> Optional["Thread"]:
        if not self._waiters:
            return None
        best = min(self._waiters, key=lambda t: t.priority)
        self._waiters.remove(best)
        return best

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Waiter names (digest evidence; waits are rebuilt by
        re-execution, so :meth:`restore` does not reattach them)."""
        return {"waiters": [thread.name for thread in self._waiters]}

    def restore(self, state: dict) -> None:
        if "waiters" not in state:
            raise RtosError(f"{self.name}: snapshot missing 'waiters'")


# ----------------------------------------------------------------------
# Semaphore
# ----------------------------------------------------------------------
class _SemWait(Syscall):
    def __init__(self, sem: "Semaphore", timeout: Optional[int]) -> None:
        self.sem = sem
        self.timeout = timeout

    def apply(self, kernel, thread):
        if self.sem._count > 0:
            self.sem._count -= 1
            return (DONE, True)
        kernel._block_on(self.sem, thread, self.timeout, timeout_value=False)
        return (BLOCKED, None)


class Semaphore(Waitable):
    """Counting semaphore."""

    def __init__(self, kernel: "RtosKernel", name: str = "sem",
                 initial: int = 0) -> None:
        super().__init__(kernel, name)
        if initial < 0:
            raise RtosError("semaphore count cannot be negative")
        self._count = initial

    @property
    def count(self) -> int:
        return self._count

    def wait(self, timeout: Optional[int] = None) -> Syscall:
        """Blocking wait; resolves to True, or False on timeout."""
        return _SemWait(self, timeout)

    def try_wait(self) -> bool:
        if self._count > 0:
            self._count -= 1
            return True
        return False

    def post(self) -> None:
        """Release one unit; safe from ISR/DSR context."""
        waiter = self._pop_best()
        if waiter is not None:
            self.kernel._ready(waiter, True)
        else:
            self._count += 1

    def peek(self) -> int:
        return self._count

    def snapshot(self) -> dict:
        state = super().snapshot()
        state["count"] = self._count
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        if "count" not in state:
            raise RtosError(f"{self.name}: snapshot missing 'count'")
        self._count = state["count"]


# ----------------------------------------------------------------------
# Mutex
# ----------------------------------------------------------------------
class _MutexLock(Syscall):
    def __init__(self, mutex: "Mutex", timeout: Optional[int]) -> None:
        self.mutex = mutex
        self.timeout = timeout

    def apply(self, kernel, thread):
        if self.mutex._owner is None:
            self.mutex._owner = thread
            return (DONE, True)
        if self.mutex._owner is thread:
            raise RtosError(
                f"mutex {self.mutex.name}: relock by owner {thread.name}"
            )
        self.mutex._maybe_inherit(thread)
        kernel._block_on(self.mutex, thread, self.timeout, timeout_value=False)
        return (BLOCKED, None)


class Mutex(Waitable):
    """Non-recursive mutex with ownership hand-off.

    With ``protocol=Mutex.INHERIT`` the mutex implements priority
    inheritance (eCos's
    ``CYGSEM_KERNEL_SYNCH_MUTEX_PRIORITY_INVERSION_PROTOCOL_INHERIT``):
    while a higher-priority thread is blocked on the mutex, the owner
    runs boosted to the blocker's priority, avoiding unbounded priority
    inversion through middle-priority threads.
    """

    NONE = "none"
    INHERIT = "inherit"

    def __init__(self, kernel: "RtosKernel", name: str = "mutex",
                 protocol: str = NONE) -> None:
        super().__init__(kernel, name)
        if protocol not in (Mutex.NONE, Mutex.INHERIT):
            raise RtosError(f"unknown mutex protocol {protocol!r}")
        self.protocol = protocol
        self._owner: Optional["Thread"] = None
        #: Number of times an owner was priority-boosted.
        self.boosts = 0

    @property
    def owner(self) -> Optional["Thread"]:
        return self._owner

    @property
    def locked(self) -> bool:
        return self._owner is not None

    def lock(self, timeout: Optional[int] = None) -> Syscall:
        return _MutexLock(self, timeout)

    def try_lock(self, thread: "Thread") -> bool:
        if self._owner is None:
            self._owner = thread
            return True
        return False

    def _maybe_inherit(self, blocker: "Thread") -> None:
        owner = self._owner
        if (self.protocol == Mutex.INHERIT and owner is not None
                and blocker.priority < owner.priority):
            self.boosts += 1
            self.kernel.scheduler.set_priority(owner, blocker.priority)

    def _restore_owner_priority(self, owner: "Thread") -> None:
        if (self.protocol == Mutex.INHERIT
                and owner.priority != owner.base_priority):
            self.kernel.scheduler.set_priority(owner, owner.base_priority)

    def snapshot(self) -> dict:
        state = super().snapshot()
        state["owner"] = self._owner.name if self._owner else None
        state["boosts"] = self.boosts
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        if "boosts" not in state:
            raise RtosError(f"{self.name}: snapshot missing 'boosts'")
        self.boosts = state["boosts"]

    def unlock(self) -> None:
        if self._owner is None:
            raise RtosError(f"mutex {self.name}: unlock while unlocked")
        releasing = self._owner
        waiter = self._pop_best()
        self._owner = waiter
        self._restore_owner_priority(releasing)
        if waiter is not None:
            self.kernel._ready(waiter, True)
            # The new owner may itself need a boost if even-higher
            # priority threads are still queued.
            for queued in self._waiters:
                self._maybe_inherit(queued)


# ----------------------------------------------------------------------
# Event flags
# ----------------------------------------------------------------------
class _FlagWait(Syscall):
    def __init__(self, flag: "Flag", pattern: int, mode: str,
                 clear: bool, timeout: Optional[int]) -> None:
        self.flag = flag
        self.pattern = pattern
        self.mode = mode
        self.clear = clear
        self.timeout = timeout

    def apply(self, kernel, thread):
        satisfied = self.flag._satisfies(self.pattern, self.mode)
        if satisfied:
            value = self.flag._value
            if self.clear:
                self.flag._value &= ~self.pattern
            return (DONE, value)
        thread._flag_request = (self.pattern, self.mode, self.clear)
        kernel._block_on(self.flag, thread, self.timeout, timeout_value=0)
        return (BLOCKED, None)


class Flag(Waitable):
    """Event-flag group (eCos ``cyg_flag_t``)."""

    OR = "or"
    AND = "and"

    def __init__(self, kernel: "RtosKernel", name: str = "flag",
                 initial: int = 0) -> None:
        super().__init__(kernel, name)
        self._value = initial

    @property
    def value(self) -> int:
        return self._value

    def _satisfies(self, pattern: int, mode: str) -> bool:
        if mode == Flag.OR:
            return bool(self._value & pattern)
        if mode == Flag.AND:
            return (self._value & pattern) == pattern
        raise RtosError(f"unknown flag mode {mode!r}")

    def wait(self, pattern: int, mode: str = OR, clear: bool = False,
             timeout: Optional[int] = None) -> Syscall:
        """Resolves to the flag value at wake (0 on timeout)."""
        if pattern == 0:
            raise RtosError("flag wait pattern cannot be empty")
        return _FlagWait(self, pattern, mode, clear, timeout)

    def set_bits(self, pattern: int) -> None:
        """OR *pattern* into the flag; wake every satisfied waiter."""
        self._value |= pattern
        for thread in sorted(list(self._waiters), key=lambda t: t.priority):
            pattern_, mode, clear = thread._flag_request
            if self._satisfies(pattern_, mode):
                value = self._value
                if clear:
                    self._value &= ~pattern_
                self._waiters.remove(thread)
                self.kernel._ready(thread, value)

    def snapshot(self) -> dict:
        state = super().snapshot()
        state["value"] = self._value
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        if "value" not in state:
            raise RtosError(f"{self.name}: snapshot missing 'value'")
        self._value = state["value"]


# ----------------------------------------------------------------------
# Mailbox / message queue
# ----------------------------------------------------------------------
class _MboxGet(Syscall):
    def __init__(self, mbox: "Mailbox", timeout: Optional[int]) -> None:
        self.mbox = mbox
        self.timeout = timeout

    def apply(self, kernel, thread):
        if self.mbox._items:
            item = self.mbox._items.popleft()
            self.mbox._wake_putter()
            return (DONE, item)
        thread._mbox_role = "get"
        kernel._block_on(self.mbox, thread, self.timeout, timeout_value=None)
        return (BLOCKED, None)


class _MboxPut(Syscall):
    def __init__(self, mbox: "Mailbox", item: Any,
                 timeout: Optional[int]) -> None:
        self.mbox = mbox
        self.item = item
        self.timeout = timeout

    def apply(self, kernel, thread):
        if self.mbox._deliver(self.item):
            return (DONE, True)
        thread._mbox_role = "put"
        thread._mbox_item = self.item
        kernel._block_on(self.mbox, thread, self.timeout, timeout_value=False)
        return (BLOCKED, None)


class Mailbox(Waitable):
    """Bounded FIFO mailbox (eCos ``cyg_mbox``)."""

    def __init__(self, kernel: "RtosKernel", name: str = "mbox",
                 capacity: int = 10) -> None:
        super().__init__(kernel, name)
        if capacity <= 0:
            raise RtosError("mailbox capacity must be positive")
        self.capacity = capacity
        self._items: Deque[Any] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def get(self, timeout: Optional[int] = None) -> Syscall:
        """Resolves to the item, or None on timeout."""
        return _MboxGet(self, timeout)

    def put(self, item: Any, timeout: Optional[int] = None) -> Syscall:
        """Resolves to True, or False on timeout."""
        if item is None:
            raise RtosError("mailbox items cannot be None")
        return _MboxPut(self, item, timeout)

    def try_get(self) -> Optional[Any]:
        if not self._items:
            return None
        item = self._items.popleft()
        self._wake_putter()
        return item

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; safe from ISR/DSR context."""
        if item is None:
            raise RtosError("mailbox items cannot be None")
        return self._deliver(item)

    def snapshot(self) -> dict:
        """Item payloads may be arbitrary objects, so only the queue
        depth is recorded; contents are rebuilt by re-execution."""
        state = super().snapshot()
        state["depth"] = len(self._items)
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)

    # ------------------------------------------------------------------
    def _deliver(self, item: Any) -> bool:
        """Hand *item* to a blocked getter or enqueue it; False if full."""
        getter = self._pop_role("get")
        if getter is not None:
            self.kernel._ready(getter, item)
            return True
        if self.is_full:
            return False
        self._items.append(item)
        return True

    def _wake_putter(self) -> None:
        putter = self._pop_role("put")
        if putter is not None:
            self._items.append(putter._mbox_item)
            putter._mbox_item = None
            self.kernel._ready(putter, True)

    def _pop_role(self, role: str) -> Optional["Thread"]:
        candidates = [t for t in self._waiters
                      if getattr(t, "_mbox_role", None) == role]
        if not candidates:
            return None
        best = min(candidates, key=lambda t: t.priority)
        self._waiters.remove(best)
        return best
