"""Events and notifications, with SystemC semantics.

An :class:`Event` can be notified three ways:

* ``notify()`` — *immediate*: waiting processes become runnable in the
  current evaluate phase;
* ``notify_delta()`` — *delta*: waiting processes run in the next delta
  cycle (after the update phase);
* ``notify(delay)`` — *timed*: waiting processes run after *delay*
  picoseconds.

As in SystemC an event holds at most one pending notification and an
earlier notification overrides a later pending one: an immediate notify
cancels anything pending, a delta notify cancels a pending timed notify,
and a timed notify only lands if it is earlier than a pending timed one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.simkernel.kernel import Simulator
    from repro.simkernel.processes import Process

# Pending-notification kinds, ordered by precedence (lower == earlier).
_NONE = 0
_DELTA = 1
_TIMED = 2


class Event:
    """A synchronization point processes can wait on and modules notify."""

    #: The :class:`~repro.simkernel.clock.Clock` whose tick this is, if
    #: any: lets the kernel apply a free-running edge inline.
    _clock = None

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name or f"event_{id(self):x}"
        #: Processes statically sensitive to this event.
        self.static_sensitive: List["Process"] = []
        #: Processes dynamically waiting (cleared when the event fires).
        self.dynamic_waiters: List["Process"] = []
        self._pending_kind = _NONE
        self._pending_time: Optional[int] = None
        sim._register_event(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Event {self.name}>"

    # ------------------------------------------------------------------
    # Notification API
    # ------------------------------------------------------------------
    def notify(self, delay: Optional[int] = None) -> None:
        """Notify immediately (no argument) or after *delay* picoseconds."""
        if delay is None:
            self._notify_immediate()
        elif delay == 0:
            self.notify_delta()
        else:
            self._notify_timed(delay)

    def notify_delta(self) -> None:
        """Schedule a notification for the next delta cycle."""
        if self._pending_kind == _DELTA:
            return
        if self._pending_kind == _TIMED:
            self.sim._cancel_timed_notification(self)
        self._pending_kind = _DELTA
        self._pending_time = None
        self.sim._schedule_delta_notification(self)

    def cancel(self) -> None:
        """Cancel any pending (delta or timed) notification."""
        if self._pending_kind == _TIMED:
            self.sim._cancel_timed_notification(self)
        elif self._pending_kind == _DELTA:
            self.sim._cancel_delta_notification(self)
        self._pending_kind = _NONE
        self._pending_time = None

    @property
    def has_pending_notification(self) -> bool:
        return self._pending_kind != _NONE

    # ------------------------------------------------------------------
    # Kernel-facing internals
    # ------------------------------------------------------------------
    def _notify_immediate(self) -> None:
        self.cancel()
        self.sim._trigger_event(self)

    def _notify_timed(self, delay: int) -> None:
        if delay < 0:
            raise ValueError(f"negative notification delay: {delay}")
        when = self.sim.now + delay
        if self._pending_kind == _DELTA:
            return  # delta beats any timed notification
        if self._pending_kind == _TIMED:
            assert self._pending_time is not None
            if when >= self._pending_time:
                return  # keep the earlier one
            self.sim._cancel_timed_notification(self)
        self._pending_kind = _TIMED
        self._pending_time = when
        self.sim._schedule_timed_notification(self, when)

    def _fired(self) -> None:
        """Called by the kernel when the pending notification lands."""
        self._pending_kind = _NONE
        self._pending_time = None
