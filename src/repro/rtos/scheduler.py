"""eCos-style multi-level queue scheduler with a priority bitmap.

Priority 0 is the highest.  Each priority level holds a FIFO of ready
threads; timeslicing rotates threads within one level.  The scheduler
also implements the co-simulation *idle mode* of Section 5.3: when
``idle_mode`` is set, only threads flagged ``allowed_in_idle`` (the
paper's "communication threads", plus the idle and systemc threads) are
eligible to run; everything else stays parked in its ready queue and
resumes untouched when the OS returns to the NORMAL state.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional

from repro.errors import RtosError
from repro.rtos.thread import READY, Thread

if TYPE_CHECKING:  # pragma: no cover
    from repro.rtos.config import RtosConfig


class MlqScheduler:
    """Multi-level queue scheduler."""

    def __init__(self, config: "RtosConfig") -> None:
        self.config = config
        self._queues: List[Deque[Thread]] = [
            deque() for _ in range(config.priority_levels)
        ]
        self._bitmap = 0
        #: Co-simulation IDLE state: restrict eligibility to
        #: ``allowed_in_idle`` threads.
        self.idle_mode = False

    # ------------------------------------------------------------------
    # Queue maintenance
    # ------------------------------------------------------------------
    def add(self, thread: Thread) -> None:
        """Append *thread* to the back of its priority queue."""
        self._queues[thread.priority].append(thread)
        self._bitmap |= 1 << thread.priority

    def add_front(self, thread: Thread) -> None:
        """Put *thread* at the front of its queue (preempted thread)."""
        self._queues[thread.priority].appendleft(thread)
        self._bitmap |= 1 << thread.priority

    def remove(self, thread: Thread) -> None:
        """Remove *thread* from its ready queue if present."""
        queue = self._queues[thread.priority]
        try:
            queue.remove(thread)
        except ValueError:
            return
        if not queue:
            self._bitmap &= ~(1 << thread.priority)

    def rotate(self, thread: Thread) -> None:
        """Move *thread* from the front to the back of its queue."""
        queue = self._queues[thread.priority]
        if queue and queue[0] is thread:
            queue.rotate(-1)

    def set_priority(self, thread: Thread, priority: int) -> None:
        if not 0 <= priority < self.config.priority_levels:
            raise RtosError(f"priority {priority} out of range")
        if thread.state == READY:
            self.remove(thread)
            thread.priority = priority
            self.add(thread)
        else:
            thread.priority = priority

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def _eligible(self, thread: Thread) -> bool:
        if thread.suspended:
            return False
        if self.idle_mode and not thread.allowed_in_idle:
            return False
        return True

    def best_priority(self) -> Optional[int]:
        """Highest priority with an eligible ready thread, or None."""
        bitmap = self._bitmap
        priority = 0
        while bitmap:
            if bitmap & 1:
                for thread in self._queues[priority]:
                    if self._eligible(thread):
                        return priority
            bitmap >>= 1
            priority += 1
        return None

    def pop_best(self) -> Optional[Thread]:
        """Remove and return the eligible thread to dispatch next."""
        bitmap = self._bitmap
        priority = 0
        while bitmap:
            if bitmap & 1:
                queue = self._queues[priority]
                for index, thread in enumerate(queue):
                    if self._eligible(thread):
                        del queue[index]
                        if not queue:
                            self._bitmap &= ~(1 << priority)
                        return thread
            bitmap >>= 1
            priority += 1
        return None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Ready-queue contents by thread name, plus the idle flag."""
        return {
            "queues": [[thread.name for thread in queue]
                       for queue in self._queues],
            "idle_mode": self.idle_mode,
        }

    def restore(self, state: dict, threads: dict) -> None:
        """Rebuild the ready queues from a snapshot.

        *threads* maps thread names to live :class:`Thread` objects
        (the kernel's registry — queue entries are references, so the
        caller must supply them).
        """
        for key in ("queues", "idle_mode"):
            if key not in state:
                raise RtosError(f"scheduler snapshot missing {key!r}")
        queues = state["queues"]
        if len(queues) != len(self._queues):
            raise RtosError(
                f"scheduler snapshot has {len(queues)} priority "
                f"levels, expected {len(self._queues)}"
            )
        self._bitmap = 0
        for priority, names in enumerate(queues):
            queue: Deque[Thread] = deque()
            for name in names:
                if name not in threads:
                    raise RtosError(
                        f"scheduler snapshot names unknown thread "
                        f"{name!r}"
                    )
                queue.append(threads[name])
            self._queues[priority] = queue
            if queue:
                self._bitmap |= 1 << priority
        self.idle_mode = state["idle_mode"]

    def peers_ready(self, thread: Thread) -> bool:
        """Any eligible thread ready at *thread*'s own priority?"""
        return any(
            self._eligible(peer) for peer in self._queues[thread.priority]
        )

    def ready_count(self) -> int:
        return sum(len(q) for q in self._queues)

    def has_runnable(self) -> bool:
        """Any non-suspended ready thread, ignoring the idle-mode filter.

        The optimistic session's quiescence probe asks what would run
        once the OS thaws for the next window, so the IDLE-state
        eligibility restriction must not hide parked threads.
        """
        return any(not thread.suspended
                   for queue in self._queues for thread in queue)
