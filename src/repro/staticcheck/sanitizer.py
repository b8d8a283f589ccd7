"""Runtime lock-order sanitizer (opt-in, zero-cost when disabled).

The static pass (:mod:`repro.staticcheck.concurrency_rules`) derives a
canonical acquisition order for every lock it can see; this module
asserts that order *at runtime* on the code paths the soak and fuzz
tests actually execute.  The static analysis proves the shipped code
cannot interleave into an ABBA deadlock; the sanitizer catches the
dynamic cases the AST cannot see (locks reached through duck-typed
objects, monkey-patched helpers, test doubles).

Design constraints, in order:

1. **Zero cost when disabled.**  The guard is a single attribute test
   on a module-level object; no thread-local traffic, no allocation.
   The benchmark regression gate runs with the sanitizer disabled and
   must not move.
2. **Opt-in.**  Nothing in the production paths enables it; the soak
   and fuzz smoke tests (and the CI ``lint-concurrency`` job) wrap
   their runs in :func:`enabled`.

Usage::

    from repro.staticcheck import sanitizer

    with sanitizer.enabled():             # statically derived order
        ...                               # run the threaded session

    # Instrumented code (or tests) brackets acquisitions:
    with sanitizer.holding("cosim/session.py:CosimSession.lock"):
        ...

A violation raises :class:`LockOrderViolation` in the offending thread
with both lock names and the rank table, which is exactly the artifact
a deadlock would have hidden.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError


class LockOrderViolation(ReproError):
    """A thread acquired locks against the canonical order."""


class LockOrderSanitizer:
    """Asserts the statically derived lock order at runtime.

    ``active`` is the only attribute the hot path reads while the
    sanitizer is off; everything else is touched only inside an
    enabled region.
    """

    def __init__(self) -> None:
        self.active = False
        self.rank: Dict[str, int] = {}
        self._tls = threading.local()
        #: (thread, held, acquired) tuples recorded for post-run
        #: inspection by tests; bounded to keep soak runs cheap.
        self.observations: List[tuple] = []
        self.max_observations = 10_000

    # ------------------------------------------------------------------
    def configure(self, order: Sequence[str]) -> None:
        """Install *order* (usually ``canonical_lock_order()``)."""
        self.rank = {name: index for index, name in enumerate(order)}

    def _stack(self) -> List[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    # ------------------------------------------------------------------
    @contextmanager
    def holding(self, name: str):
        """Bracket an acquisition of the lock called *name*.

        Unknown names are allowed (rank = after everything static) so
        instrumented test doubles don't need registering; ordering
        among unknowns is still enforced by acquisition sequence.
        """
        if not self.active:
            yield
            return
        stack = self._stack()
        if stack:
            top = stack[-1]
            top_rank = self.rank.get(top, len(self.rank))
            new_rank = self.rank.get(name, len(self.rank))
            if new_rank < top_rank or (new_rank == top_rank
                                       and name != top):
                raise LockOrderViolation(
                    f"lock order violation in thread "
                    f"{threading.current_thread().name!r}: acquired "
                    f"{name!r} (rank {new_rank}) while holding {top!r} "
                    f"(rank {top_rank}); canonical order: "
                    f"{sorted(self.rank, key=self.rank.get)}"
                )
        if len(self.observations) < self.max_observations:
            self.observations.append(
                (threading.current_thread().name, tuple(stack), name))
        stack.append(name)
        try:
            yield
        finally:
            stack.pop()

    @contextmanager
    def enabled(self, order: Optional[Sequence[str]] = None):
        """Enable the sanitizer for the duration of the block.

        With no *order* the statically derived canonical order is
        computed on entry (one AST pass over ``src/repro``).
        """
        if order is None:
            from repro.staticcheck.concurrency_rules import \
                canonical_lock_order

            order = canonical_lock_order()
        self.configure(order)
        self.observations.clear()
        self.active = True
        try:
            yield self
        finally:
            self.active = False


#: Process-wide instance; production code guards on ``.active`` (one
#: attribute read) and tests flip it via :func:`enabled`.
SANITIZER = LockOrderSanitizer()


def holding(name: str):
    """Module-level shorthand for ``SANITIZER.holding(name)``."""
    return SANITIZER.holding(name)


def enabled(order: Optional[Sequence[str]] = None):
    """Module-level shorthand for ``SANITIZER.enabled(order)``."""
    return SANITIZER.enabled(order)
