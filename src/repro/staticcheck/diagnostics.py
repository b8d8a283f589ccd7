"""Diagnostics core for the static analyzer.

A :class:`Diagnostic` pins one finding to a rule (stable ID), a severity
and a source location (a *target* — file path, program name or design
name — plus an optional line).  A :class:`LintReport` collects
diagnostics, applies per-rule suppression, and renders the result as
human-readable text or as a stable JSON document (schema
``repro-lint-report/1``, documented in ``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

#: Severity levels, ordered from most to least severe.
ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_RANK = {ERROR: 0, WARNING: 1, INFO: 2}


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable ID, short slug and default severity."""

    id: str
    slug: str
    severity: str
    summary: str


#: The rule catalogue.  IDs are stable across releases; renumbering or
#: reusing an ID is a breaking change to the JSON report schema.
RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        # ISS pass ------------------------------------------------------
        Rule("ISS000", "assembly-error", ERROR,
             "the source does not assemble"),
        Rule("ISS001", "unreachable-code", WARNING,
             "instructions that no path from the entry point reaches"),
        Rule("ISS002", "missing-halt", ERROR,
             "control flow can fall past the last instruction without "
             "executing halt"),
        Rule("ISS003", "use-before-def", WARNING,
             "a register is read before any instruction writes it"),
        Rule("ISS004", "write-to-r0", WARNING,
             "the result of an instruction is discarded into r0"),
        Rule("ISS005", "memory-out-of-bounds", ERROR,
             "a load/store or data directive provably falls outside the "
             "memory image"),
        Rule("ISS006", "static-cycle-bound", INFO,
             "per-block static cycle bounds and the loop-free WCET"),
        Rule("ISS007", "bad-branch-target", ERROR,
             "a branch or jump targets an index outside the program"),
        # Simkernel pass ------------------------------------------------
        Rule("SIM001", "unbound-port", ERROR,
             "a module port is unbound or part of a circular binding"),
        Rule("SIM002", "multiple-drivers", ERROR,
             "more than one writer endpoint resolves to one signal"),
        Rule("SIM003", "combinational-cycle", WARNING,
             "level-sensitive method processes form a sensitivity cycle "
             "(delta-cycle non-termination risk)"),
        Rule("SIM004", "driver-process-unmapped", WARNING,
             "a driver process listens on a DriverIn the remote board "
             "can never write"),
        # RTOS / co-sim pass --------------------------------------------
        Rule("RTOS001", "rogue-idle-thread", ERROR,
             "a thread may run in the IDLE state without being a "
             "registered communication thread"),
        Rule("RTOS002", "comm-thread-frozen", ERROR,
             "a registered communication thread is not allowed to run "
             "in the IDLE state (events can be lost)"),
        Rule("RTOS003", "blocking-in-interrupt", ERROR,
             "an ISR/DSR can block (interrupt context must not wait)"),
        Rule("RTOS004", "unknown-comm-thread", WARNING,
             "a registered communication thread name matches no thread"),
        Rule("COSIM001", "t-sync-adaptive-mismatch", WARNING,
             "the static t_sync disagrees with the adaptive policy "
             "bounds"),
        Rule("COSIM002", "network-delay-exceeds-timeout", ERROR,
             "the emulated network delay is not smaller than the report "
             "timeout (every window would time out)"),
        Rule("COSIM004", "remote-vector-unattached", ERROR,
             "the configured remote interrupt vector has no handler "
             "attached on the board kernel"),
        Rule("COSIM005", "not-snapshotable", WARNING,
             "a netlist module or board device in a checkpointing-"
             "enabled session does not implement the Snapshotable "
             "protocol (its state is silently omitted from "
             "checkpoints)"),
        # Protocol model-checking pass -----------------------------------
        Rule("PROTO000", "model-exploration", INFO,
             "bounded-exploration coverage report: states visited and "
             "final states reached for one model configuration"),
        Rule("PROTO001", "protocol-deadlock", ERROR,
             "a reachable state of the composed window protocol has no "
             "enabled transition and no message in flight (both sides "
             "wait forever)"),
        Rule("PROTO002", "lost-wakeup", ERROR,
             "the protocol gets stuck with a message still in flight "
             "that its receiver can no longer consume"),
        Rule("PROTO003", "protocol-non-progress", ERROR,
             "a reachable state can never reach the shut-down "
             "configuration (livelock)"),
        Rule("PROTO004", "sequence-violation", ERROR,
             "a stale or gapped grant/report reaches a window FSM, or "
             "a grant overtakes its interrupts (the TCP link's "
             "seq-dedup or interrupt fence broken)"),
        Rule("PROTO005", "protocol-table-inconsistency", ERROR,
             "a window transition table is structurally defective or "
             "the bounded exploration was not exhaustive"),
        # Concurrency pass -----------------------------------------------
        Rule("CONC001", "lock-order-cycle", ERROR,
             "the static lock-acquisition graph contains a cycle "
             "(potential ABBA deadlock)"),
        Rule("CONC002", "blocking-call-under-lock", WARNING,
             "a blocking call (recv/join/get/wait/sleep/...) is "
             "reachable while a lock is held"),
        Rule("CONC003", "unlocked-shared-write", WARNING,
             "an attribute is written both from a spawned thread and "
             "from other methods with no common lock"),
        Rule("CONC004", "unbalanced-acquire", WARNING,
             "a lock is acquired imperatively without a with-block or "
             "try/finally release on the same path"),
        # Snapshot-purity pass -------------------------------------------
        Rule("SNAP001", "hidden-mutable-state", WARNING,
             "a Snapshotable class mutates an __init__-assigned "
             "attribute that neither snapshot() captures nor "
             "restore() re-establishes (silent checkpoint drift)"),
        Rule("SNAP002", "snapshot-restore-asymmetry", ERROR,
             "snapshot() captures a key that restore() never applies, "
             "or restore() reads a key snapshot() never writes"),
        Rule("SNAP003", "aliased-snapshot-state", WARNING,
             "snapshot() returns a mutable attribute by reference "
             "instead of copying it (later mutation corrupts the "
             "checkpoint)"),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    rule: str
    severity: str
    message: str
    #: What was checked: a file path, a bundled-program name, a design
    #: name — whatever locates the finding for the user.
    target: str
    #: 1-based source line inside *target*, when one exists.
    line: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown lint rule {self.rule!r}")
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def slug(self) -> str:
        return RULES[self.rule].slug

    def location(self) -> str:
        if self.line is not None:
            return f"{self.target}:{self.line}"
        return self.target

    def render(self) -> str:
        return (f"{self.location()}: {self.severity} "
                f"{self.rule}[{self.slug}]: {self.message}")


def _sort_key(diag: Diagnostic):
    return (diag.target, diag.line if diag.line is not None else 0,
            diag.rule, diag.message)


class LintReport:
    """Collects diagnostics, applying per-rule suppression."""

    def __init__(self, suppress: Iterable[str] = ()) -> None:
        self.suppress: Set[str] = set(suppress)
        for rule in self.suppress:
            if rule not in RULES:
                raise ValueError(f"cannot suppress unknown rule {rule!r}")
        self.diagnostics: List[Diagnostic] = []
        #: rule ID -> count of findings dropped by suppression.
        self.suppressed: Dict[str, int] = {}
        #: Targets examined (for the summary; includes clean ones).
        self.targets: List[str] = []

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def begin_target(self, target: str) -> None:
        if target not in self.targets:
            self.targets.append(target)

    def add(self, rule: str, message: str, target: str,
            line: Optional[int] = None,
            severity: Optional[str] = None,
            extra_suppress: Iterable[str] = ()) -> Optional[Diagnostic]:
        """Record a finding unless its rule is suppressed.

        *extra_suppress* carries per-target suppressions (e.g. from an
        inline ``; lint: disable=...`` directive) on top of the
        report-wide set.
        """
        if rule in self.suppress or rule in set(extra_suppress):
            self.suppressed[rule] = self.suppressed.get(rule, 0) + 1
            return None
        diag = Diagnostic(rule, severity or RULES[rule].severity,
                          message, target, line)
        self.diagnostics.append(diag)
        return diag

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        for diag in diagnostics:
            self.add(diag.rule, diag.message, diag.target, diag.line,
                     severity=diag.severity)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def by_severity(self, severity: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(WARNING)

    def counts(self) -> Dict[str, int]:
        counts = {ERROR: 0, WARNING: 0, INFO: 0}
        for diag in self.diagnostics:
            counts[diag.severity] += 1
        return counts

    def exit_code(self, strict: bool = False) -> int:
        """CLI exit status: 1 on errors (or, with *strict*, warnings)."""
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def sorted(self) -> List[Diagnostic]:
        return sorted(self.diagnostics, key=_sort_key)

    def render_text(self) -> str:
        lines = [diag.render() for diag in self.sorted()]
        counts = self.counts()
        summary = (f"{len(self.targets)} target(s): "
                   f"{counts[ERROR]} error(s), "
                   f"{counts[WARNING]} warning(s), "
                   f"{counts[INFO]} info(s)")
        if self.suppressed:
            total = sum(self.suppressed.values())
            summary += f", {total} suppressed"
        lines.append(summary)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The stable JSON document (schema ``repro-lint-report/1``)."""
        counts = self.counts()
        return {
            "schema": "repro-lint-report/1",
            "findings": [
                {
                    "rule": diag.rule,
                    "name": diag.slug,
                    "severity": diag.severity,
                    "target": diag.target,
                    "line": diag.line,
                    "message": diag.message,
                }
                for diag in self.sorted()
            ],
            "summary": {
                "errors": counts[ERROR],
                "warnings": counts[WARNING],
                "infos": counts[INFO],
                "suppressed": dict(sorted(self.suppressed.items())),
                "targets": list(self.targets),
            },
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)
