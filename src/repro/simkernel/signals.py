"""Delta-cycle signals with SystemC ``sc_signal`` semantics.

A write does not take effect immediately: it is recorded as the *next*
value and committed during the kernel's update phase; processes
sensitive to the signal's ``changed`` event then run in the following
delta cycle.  This gives the usual race-free evaluate/update semantics
hardware description relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.kernel import Simulator


class Signal:
    """A single-driver signal carrying an arbitrary (comparable) value."""

    def __init__(self, sim: "Simulator", name: str = "", init: Any = None) -> None:
        self.sim = sim
        self.name = name or f"signal_{id(self):x}"
        self._current: Any = init
        self._next: Any = init
        self._update_pending = False
        self._changed: Optional[Event] = None
        self._posedge: Optional[Event] = None
        self._negedge: Optional[Event] = None
        #: Observers invoked as ``fn(signal, old, new)`` on every commit.
        self._observers: List[Callable[["Signal", Any, Any], None]] = []
        #: Number of committed value changes (diagnostics / tests).
        self.change_count = 0
        sim._register_signal(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Signal {self.name}={self._current!r}>"

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    def read(self) -> Any:
        """Current (committed) value."""
        return self._current

    @property
    def value(self) -> Any:
        return self._current

    def write(self, value: Any) -> None:
        """Schedule *value* to become current in the next update phase."""
        self._next = value
        if not self._update_pending:
            self._update_pending = True
            self.sim._request_update(self)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    @property
    def changed(self) -> Event:
        """Event notified (delta) whenever the committed value changes."""
        if self._changed is None:
            self._changed = Event(self.sim, f"{self.name}.changed")
        return self._changed

    @property
    def posedge(self) -> Event:
        """Event notified when the value goes from falsy to truthy."""
        if self._posedge is None:
            self._posedge = Event(self.sim, f"{self.name}.posedge")
        return self._posedge

    @property
    def negedge(self) -> Event:
        """Event notified when the value goes from truthy to falsy."""
        if self._negedge is None:
            self._negedge = Event(self.sim, f"{self.name}.negedge")
        return self._negedge

    def observe(self, fn: Callable[["Signal", Any, Any], None]) -> None:
        """Register a commit observer (used by the VCD tracer)."""
        self._observers.append(fn)

    # ------------------------------------------------------------------
    # Kernel-facing internals
    # ------------------------------------------------------------------
    def _update(self) -> None:
        """Commit the pending value; called only from the update phase."""
        self._update_pending = False
        new = self._next
        old = self._current
        if new == old:
            return
        self._current = new
        self.change_count += 1
        # Only notify events somebody is actually waiting on.  By the
        # update phase every process eligible for this notification has
        # already registered (static lists are fixed, dynamic waits are
        # armed during the preceding evaluate phase), so an event with
        # no waiters here can only produce an empty delta cycle.
        changed = self._changed
        if changed is not None and (changed.static_sensitive
                                    or changed.dynamic_waiters):
            changed.notify_delta()
        # Edge detection on the values' boolean levels.
        is_high = bool(new)
        if bool(old) != is_high:
            edge = self._posedge if is_high else self._negedge
            if edge is not None and (edge.static_sensitive
                                     or edge.dynamic_waiters):
                edge.notify_delta()
        for fn in self._observers:
            fn(self, old, new)
