"""Equivalence and invariant oracles over backend outcomes.

Two tiers:

1. **Per-backend invariants** — true of every legal run regardless of
   transport: tick alignment (``master cycles == board ticks`` at every
   exchange), the grant schedule (every non-final window is exactly
   ``T_sync`` ticks for fixed-window sessions), trace self-consistency,
   and workload-statistics conservation.
2. **Deterministic equivalence** — every backend must agree with the
   reference on the full state digest and every trace row: in-process,
   rerun, replay, plugin and TCP links alike, since every link runs
   windows in one order (the master simulates, then grants).

Each failure is a :class:`Mismatch` carrying a stable ``oracle`` id —
the shrinker preserves the id while minimizing the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.difftest.backends import RunOutcome
from repro.difftest.workload import FuzzSpec

#: ``WindowRecord.as_row()`` column indices.
_COL_TICKS = 1
_COL_MASTER = 2
_COL_BOARD = 3

#: Counters that must balance in a WorkloadStats snapshot.
_TERMINAL_KEYS = ("forwarded", "dropped_overflow", "dropped_checksum",
                  "dropped_unroutable")


@dataclass
class Mismatch:
    """One oracle failure."""

    oracle: str
    backend: str
    detail: str

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "backend": self.backend,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, doc: dict) -> "Mismatch":
        return cls(oracle=doc["oracle"], backend=doc["backend"],
                   detail=doc["detail"])

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.backend}: {self.detail}"


def check_outcome(spec: FuzzSpec, outcome: RunOutcome) -> List[Mismatch]:
    """Tier 1: invariants of a single backend run."""
    found: List[Mismatch] = []
    name = outcome.backend
    if not outcome.ok:
        found.append(Mismatch("backend-error", name,
                              outcome.error or "unknown failure"))
        return found

    if outcome.aligned is False:
        found.append(Mismatch(
            "tick-alignment", name,
            f"master_cycles={outcome.master_cycles} != "
            f"board ticks={outcome.board_ticks}"))

    rows = outcome.trace_rows
    if rows:
        if outcome.windows != len(rows):
            found.append(Mismatch(
                "window-count", name,
                f"metrics report {outcome.windows} windows but the "
                f"trace has {len(rows)} rows"))
        running = 0
        for row in rows:
            running += row[_COL_TICKS]
            if row[_COL_BOARD] != row[_COL_MASTER]:
                found.append(Mismatch(
                    "tick-alignment", name,
                    f"window {row[0]}: board_ticks={row[_COL_BOARD]} != "
                    f"master_cycles={row[_COL_MASTER]}"))
                break
            if row[_COL_MASTER] != running:
                found.append(Mismatch(
                    "trace-consistency", name,
                    f"window {row[0]}: cumulative granted ticks "
                    f"{running} != master_cycles {row[_COL_MASTER]}"))
                break
        if outcome.fixed_windows:
            for row in rows[:-1]:
                if row[_COL_TICKS] != spec.t_sync:
                    found.append(Mismatch(
                        "grant-schedule", name,
                        f"window {row[0]} granted {row[_COL_TICKS]} "
                        f"ticks, expected t_sync={spec.t_sync}"))
                    break
            if rows and not 0 < rows[-1][_COL_TICKS] <= spec.t_sync:
                found.append(Mismatch(
                    "grant-schedule", name,
                    f"final window granted {rows[-1][_COL_TICKS]} ticks "
                    f"(legal range is 1..{spec.t_sync})"))

    stats = outcome.stats
    if stats:
        terminal = sum(stats.get(key, 0) for key in _TERMINAL_KEYS)
        generated = stats.get("generated", 0)
        if terminal > generated:
            found.append(Mismatch(
                "stats-conservation", name,
                f"{terminal} terminal packet outcomes exceed "
                f"{generated} generated packets"))
        negative = {key: value for key, value in stats.items()
                    if isinstance(value, int) and value < 0}
        if negative:
            found.append(Mismatch(
                "stats-conservation", name,
                f"negative counters: {negative}"))

    if outcome.extra.get("freeze_violations"):
        found.append(Mismatch(
            "freeze-invariant", name,
            f"kernel not IDLE at window boundaries "
            f"{outcome.extra['freeze_violations']}"))
    sizes = outcome.extra.get("window_sizes")
    if sizes:
        low = outcome.extra.get("policy_min", 1)
        high = outcome.extra.get("policy_max")
        bad = [s for s in sizes if s < low or s > high]
        if bad:
            found.append(Mismatch(
                "adaptive-bounds", name,
                f"controller chose windows outside "
                f"[{low}, {high}]: {bad[:5]}"))
    if outcome.extra.get("divergence_clean") is False:
        found.append(Mismatch(
            "replay-divergence", name,
            outcome.extra.get("divergence") or "replay diverged"))
    csum = outcome.extra.get("csum")
    expected_csum = outcome.extra.get("expected_csum")
    if csum is not None and expected_csum is not None \
            and csum != expected_csum:
        found.append(Mismatch(
            "checksum-value", name,
            f"application computed {csum:#06x}, reference model says "
            f"{expected_csum:#06x}"))
    ticks_each = outcome.extra.get("board_ticks_each")
    if ticks_each is not None and outcome.aligned is not False:
        off = [t for t in ticks_each if t != outcome.master_cycles]
        if off:
            found.append(Mismatch(
                "tick-alignment", name,
                f"per-board ticks {ticks_each} vs master cycles "
                f"{outcome.master_cycles}"))
    return found


def check_pair(spec: FuzzSpec, reference: RunOutcome,
               other: RunOutcome) -> List[Mismatch]:
    """Tier 2: compare *other* against the reference backend."""
    found: List[Mismatch] = []
    if not (reference.ok and other.ok):
        return found
    pair = f"{reference.backend} vs {other.backend}"
    if (reference.digest and other.digest
            and reference.digest != other.digest):
        found.append(Mismatch(
            "determinism", pair,
            f"state digests differ: {reference.digest[:12]} != "
            f"{other.digest[:12]}"))
    if (reference.trace_rows and other.trace_rows
            and reference.trace_rows != other.trace_rows):
        first = next(
            (i for i, (a, b) in enumerate(
                zip(reference.trace_rows, other.trace_rows))
             if a != b),
            min(len(reference.trace_rows), len(other.trace_rows)))
        found.append(Mismatch(
            "trace-equivalence", pair,
            f"trace rows diverge at window {first}"))
    if reference.extra.get("instructions") is not None and \
            other.extra.get("instructions") is not None:
        if reference.extra["instructions"] \
                != other.extra["instructions"]:
            found.append(Mismatch(
                "iss-retirement", pair,
                f"instruction counts differ: "
                f"{reference.extra['instructions']} != "
                f"{other.extra['instructions']}"))
    timing = reference.extra.get("timing")
    if timing is not None and other.extra.get("timing") == timing \
            and reference.extra["cycles"] != other.extra["cycles"]:
        found.append(Mismatch(
            "iss-cycles", pair,
            f"cycle counts under one timing model differ: "
            f"{reference.extra['cycles']} != {other.extra['cycles']}"))
    return found


def run_oracles(spec: FuzzSpec,
                outcomes: Dict[str, RunOutcome]) -> List[Mismatch]:
    """All oracle tiers over a full backend sweep of one spec."""
    found: List[Mismatch] = []
    for outcome in outcomes.values():
        found.extend(check_outcome(spec, outcome))
    reference = next((o for o in outcomes.values() if o.ok), None)
    if reference is not None:
        for outcome in outcomes.values():
            if outcome is not reference:
                found.extend(check_pair(spec, reference, outcome))
    return found
