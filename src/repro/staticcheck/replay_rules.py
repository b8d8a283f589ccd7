"""The checkpoint/replay lint pass: COSIM005.

Checkpoints (:mod:`repro.replay`) walk the netlist and every board's
device table and serialize every object that implements the
``Snapshotable`` protocol (duck-typed ``snapshot()``/``restore()``).
Objects that *lack* the protocol are silently skipped — the checkpoint
still saves and restores, but it no longer captures the full design
state, and a restore-and-resume run can diverge from the uninterrupted
one without any error being raised.

:func:`check_snapshotability` finds those gaps statically, before a
checkpointing run starts:

* netlist modules registered with the master's simulator;
* devices registered with each board kernel's device table;
* extra snapshotables attached to the session.

An object that implements only *one* of the two methods is always
reported (that asymmetry is never intentional); an object implementing
neither is reported only for sessions where checkpointing is enabled
(a :class:`~repro.replay.checkpoint.Checkpointer` is attached) or when
the caller passes ``assume_enabled=True`` — the ``repro lint router``
sweep does, so gaps surface before anyone attaches a checkpointer.

A speculating session holding a feature that speculation refuses
(:func:`repro.cosim.optimistic.speculation_refusals`) is reported as
an *error* — a fault injector beside speculation, say.  ``run``
refuses it too, before window 0; this rule finds it before anything
runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.cosim.optimistic import speculation_refusals
from repro.staticcheck.diagnostics import Diagnostic, LintReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.cosim.session import CosimSession


def _has_method(obj, name: str) -> bool:
    return callable(getattr(obj, name, None))


def _describe(obj) -> str:
    return type(obj).__name__


def _check_object(report: LintReport, target: str, kind: str, name: str,
                  obj, enabled: bool) -> None:
    has_snapshot = _has_method(obj, "snapshot")
    has_restore = _has_method(obj, "restore")
    if has_snapshot and has_restore:
        return
    where = f"{kind} {name!r} ({_describe(obj)})"
    if has_snapshot or has_restore:
        have, lack = (("snapshot", "restore") if has_snapshot
                      else ("restore", "snapshot"))
        report.add(
            "COSIM005",
            f"{where} implements {have}() but not {lack}(); the "
            "Snapshotable protocol needs both and the checkpoint walk "
            "skips half-implemented objects",
            target,
        )
    elif enabled:
        report.add(
            "COSIM005",
            f"{where} is not Snapshotable; checkpoints of this session "
            "silently omit its state and a restore-and-resume run may "
            "diverge (implement snapshot()/restore() or detach the "
            "checkpointer)",
            target,
        )


def check_snapshotability(
    session: "CosimSession",
    target: str = "cosim:checkpoint",
    assume_enabled: bool = False,
    report: Optional[LintReport] = None,
) -> List[Diagnostic]:
    """Run COSIM005 over *session*; returns the new diagnostics.

    *assume_enabled* treats the session as checkpointing-enabled even
    without an attached checkpointer (used by the default lint sweep).
    """
    report = report if report is not None else LintReport()
    report.begin_target(target)
    before = len(report.diagnostics)
    enabled = assume_enabled or session.checkpointer is not None

    for message in speculation_refusals(session):
        report.add("COSIM005", message, target, severity="error")

    sim = getattr(session.master, "sim", None)
    for index, module in enumerate(getattr(sim, "modules", ()) or ()):
        name = (getattr(module, "full_name", "")
                or getattr(module, "name", "")
                or f"module#{index}")
        _check_object(report, target, "netlist module", name, module,
                      enabled)

    # FMI sessions: the hardware lives behind the plugin boundary
    # (repro.fmi) — the mounted plugin must itself be snapshotable.
    plugin = getattr(session.master, "plugin", None)
    if plugin is not None:
        name = type(plugin).__name__
        _check_object(report, target, "mounted plugin", name, plugin,
                      enabled)

    for slot in session.slots:
        for name, device in slot.runtime.board.kernel.devices.items():
            _check_object(report, target, f"board {slot.name!r} device",
                          name, device, enabled)

    for name, obj in sorted(session.snapshotables.items()):
        # register_snapshotable() enforces the full protocol, but the
        # dict is mutable — re-check so lint stays trustworthy.
        _check_object(report, target, "session snapshotable", name, obj,
                      enabled)
    return report.diagnostics[before:]
