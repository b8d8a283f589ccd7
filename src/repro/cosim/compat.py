"""Which session features combine: the one compatibility table.

Every session runs the same window loop
(:meth:`repro.cosim.session.CosimSession.run`); what varies is a set of
features.  :data:`COMPATIBILITY` declares, once, every pair of features
the loop cannot combine.  A pair it does not list runs.

* ``refuse`` rows raise :class:`~repro.errors.ProtocolError` before
  window 0: at session construction, at ``attach_*`` time, or at the
  top of ``run()`` for state wired in by hand.  Lint rule COSIM005
  reads the same rows.
* ``degrade`` rows run with the row's *first* feature switched off; the
  reason says what the run does instead.

Features (see :func:`features`): ``speculation``, ``adaptive``,
``fault`` (a fault injector on a board link), ``threaded``,
``multiboard``, ``checkpointer``, ``tracing`` and ``plugin`` (the
master's hardware is a plugin, see :mod:`repro.fmi`), plus ``done`` (a
``done()`` probe passed to ``run``), which only appears in rows.
Checkpoints and restores cover every board, so neither is refused.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import ProtocolError
from repro.transport.faults import find_fault_injector

REFUSE = "refuse"
DEGRADE = "degrade"

#: (feature, feature) -> (verdict, reason).
COMPATIBILITY = {
    ("speculation", "fault"): (
        REFUSE, "cannot speculate across a fault-injected link: the "
        "fault plan's drop/corruption schedule lives outside the session "
        "snapshot, so a rollback would not rewind it"),
    ("speculation", "adaptive"): (
        REFUSE, "adaptive synchronization sizes windows reactively and "
        "cannot be combined with speculation"),
    ("speculation", "threaded"): (
        REFUSE, "optimistic synchronization is only supported in-process"),
    ("speculation", "multiboard"): (
        REFUSE, "speculation checkpoints and rolls back a single board"),
    ("adaptive", "plugin"): (
        REFUSE, "an adaptive window ends at the first interrupt edge, and "
        "a plugin's step(n) cannot stop early"),
    ("speculation", "done"): (
        DEGRADE, "a done() probe inspects live state between windows, "
        "which is meaningless while the board runs ahead; every window "
        "runs conservatively"),
}


#: How messages name the features that are attached rather than built.
_ATTACHED = {
    "adaptive": "an adaptive window controller",
    "checkpointer": "a checkpointer",
}


def features(session, done=None) -> Dict[str, str]:
    """The features *session* holds, each with a short description."""
    found = {}
    depth = session.config.speculation_depth
    if depth > 0:
        found["speculation"] = f"speculation_depth={depth}"
    if session.controller is not None:
        found["adaptive"] = _ATTACHED["adaptive"]
    for slot in session.slots:
        injector = find_fault_injector(slot.runtime.endpoint)
        if injector is not None:
            found["fault"] = (f"a fault injector "
                              f"({type(injector).__name__})")
            break
    if session.threaded:
        found["threaded"] = "a threaded session"
    if len(session.slots) > 1:
        found["multiboard"] = f"{len(session.slots)} boards"
    if session.checkpointer is not None:
        found["checkpointer"] = _ATTACHED["checkpointer"]
    if session.obs.enabled:
        found["tracing"] = "tracing"
    plugin = getattr(session.master, "plugin", None)
    if plugin is not None:
        found["plugin"] = f"a plugin master ({type(plugin).__name__})"
    if done is not None:
        found["done"] = "a done() probe"
    return found


def with_feature(session, feature: str) -> Dict[str, str]:
    """:func:`features` of *session* once *feature* is attached."""
    return {**features(session), feature: _ATTACHED[feature]}


def refusals(found: Dict[str, str],
             involving: Optional[str] = None) -> List[str]:
    """One message per refused pair in *found* (restricted to pairs
    that contain *involving*, when given)."""
    messages = []
    for (a, b), (verdict, reason) in COMPATIBILITY.items():
        if verdict != REFUSE or a not in found or b not in found:
            continue
        if involving is None or involving in (a, b):
            messages.append(
                f"cannot combine {found[a]} with {found[b]}: {reason}")
    return messages


def check(found: Dict[str, str], involving: Optional[str] = None) -> None:
    """Raise :class:`ProtocolError` for the first refused pair."""
    messages = refusals(found, involving)
    if messages:
        raise ProtocolError(messages[0])


def resolve(found: Dict[str, str]) -> Set[str]:
    """The features a run executes: refused pairs raise, degraded ones
    drop the row's first feature."""
    check(found)
    active = set(found)
    for (a, b), (verdict, _reason) in COMPATIBILITY.items():
        if verdict == DEGRADE and a in found and b in found:
            active.discard(a)
    return active
