"""Adaptive synchronization interval (an extension of the paper).

The paper closes by observing that overhead and accuracy pull
``T_sync`` in opposite directions and that a designer should pick the
product-maximizing value.  A *static* optimum only exists for steady
traffic; for bursty workloads the best interval changes over time.
This module closes the loop online: the master observes each window's
activity (interrupt packets and DATA traffic) and

* **shrinks** the next window after an active one — tight coupling
  exactly while the device is talking to the software;
* **grows** the window again after ``patience`` consecutive quiet
  windows — paying almost nothing while the system is idle.

The controller never violates the protocol: every window is still a
legal grant/report exchange, just with a varying tick count, so all
alignment invariants keep holding (and keep being checked).

A session takes a controller through ``attach_adaptive(policy)``; its
windows then end early at the first interrupt edge (reactive windows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ProtocolError


@dataclass
class AdaptivePolicy:
    """Controller parameters."""

    min_t_sync: int = 50
    max_t_sync: int = 20_000
    initial_t_sync: int = 1000
    #: Divide the window by this after an active window.
    shrink_divisor: int = 4
    #: Multiply the window by this after `patience` quiet windows.
    grow_factor: int = 2
    #: Quiet windows required before growing.
    patience: int = 2
    #: Jump straight to ``min_t_sync`` on activity (multiplicative
    #: increase, reset decrease — the aggressive default; bursts are
    #: faster than geometric shrinking).
    reset_on_activity: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.min_t_sync <= self.initial_t_sync <= self.max_t_sync:
            raise ProtocolError(
                "need 0 < min_t_sync <= initial_t_sync <= max_t_sync"
            )
        if self.shrink_divisor < 2 or self.grow_factor < 2:
            raise ProtocolError("shrink/grow factors must be at least 2")
        if self.patience < 1:
            raise ProtocolError("patience must be positive")


class AdaptiveController:
    """Window-size feedback controller."""

    def __init__(self, policy: AdaptivePolicy) -> None:
        self.policy = policy
        self.t_sync = policy.initial_t_sync
        self._quiet_streak = 0
        #: (window index, chosen t_sync) trace for diagnostics.
        self.trace: List[int] = []
        self.shrinks = 0
        self.grows = 0

    def next_window(self) -> int:
        self.trace.append(self.t_sync)
        return self.t_sync

    def feedback(self, active: bool) -> None:
        policy = self.policy
        if active:
            self._quiet_streak = 0
            if policy.reset_on_activity:
                shrunk = policy.min_t_sync
            else:
                shrunk = max(policy.min_t_sync,
                             self.t_sync // policy.shrink_divisor)
            if shrunk < self.t_sync:
                self.shrinks += 1
            self.t_sync = shrunk
        else:
            self._quiet_streak += 1
            if self._quiet_streak >= policy.patience:
                grown = min(policy.max_t_sync,
                            self.t_sync * policy.grow_factor)
                if grown > self.t_sync:
                    self.grows += 1
                self.t_sync = grown
                self._quiet_streak = 0

    @property
    def mean_window(self) -> float:
        if not self.trace:
            return float(self.policy.initial_t_sync)
        return sum(self.trace) / len(self.trace)

    def snapshot(self) -> dict:
        """Controller state (checkpoint support)."""
        return {
            "t_sync": self.t_sync,
            "quiet_streak": self._quiet_streak,
            "trace": list(self.trace),
            "shrinks": self.shrinks,
            "grows": self.grows,
        }

    def restore(self, state: dict) -> None:
        for key in ("t_sync", "quiet_streak", "trace", "shrinks", "grows"):
            if key not in state:
                raise ProtocolError(f"controller snapshot missing {key!r}")
        self.t_sync = state["t_sync"]
        self._quiet_streak = state["quiet_streak"]
        self.trace = list(state["trace"])
        self.shrinks = state["shrinks"]
        self.grows = state["grows"]
