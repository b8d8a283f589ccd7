"""Seeded-defect conviction tests for optimistic synchronization.

The mutation-check idiom from the difftest PR, turned on the new
speculation machinery: each classic optimistic-sync bug is injected by
monkeypatching one seam of :class:`Speculator`, and the stock
difftest oracles — *not* bespoke assertions — must convict it by name.
A conflict harness that only passes on correct code is untested; these
prove the oracles would have caught each bug had it shipped.

Three deliberate defects:

1. **Missed interrupt-timing conflict** — the catch-up pass is blinded
   to the interrupts the master actually produced, so dirty windows
   commit as if they were idle.  Tick accounting still balances (the
   board really did run the granted ticks), so the conviction comes
   from cross-backend equivalence: the interrupt column of the trace
   and the final state digest differ from the conservative reference.
2. **Rollback restoring one window too few** — the rollback "restores"
   the live, speculated-ahead board instead of rewinding to the
   pre-conflict checkpoint.  The board-side protocol seq is part of the
   checkpoint, so the replayed grant arrives *behind* the board's
   books and the board protocol refuses it.
3. **Stale-checkpoint reuse after restore** — a later rollback reuses
   the first rollback's checkpoint instead of the one captured for its
   own round, rewinding the board to an ancient boundary whose seq
   books are *ahead* of the replayed grant.

The workload below is the interrupt-bearing router scenario the smoke
fuzz uses: deep enough to speculate (depth 2 from the seed) and busy
enough to roll back several times per run, so every seam is exercised.
"""

import pytest

from repro.cosim.optimistic import Speculator
from repro.difftest import FuzzSpec, run_spec

BACKENDS = ["inproc", "optimistic"]

#: Router workload with real interrupt traffic: seed 1 => depth 2,
#: ~47 speculated windows and ~8 rollbacks (see test_clean_baseline).
SPEC = dict(scenario="router", seed=1, t_sync=500, max_cycles=20000,
            interval_cycles=1500, packets_per_producer=3)


def oracles(mismatches):
    return sorted({m.oracle for m in mismatches})


def sweep():
    return run_spec(FuzzSpec(**SPEC), backends=BACKENDS)


class TestCleanBaseline:
    def test_spec_speculates_rolls_back_and_holds(self):
        """The defect workload is convicting-capable: without a seeded
        bug it speculates, conflicts, rolls back — and still matches
        the conservative reference on every oracle."""
        outcomes, mismatches = sweep()
        assert mismatches == [], [str(m) for m in mismatches]
        extra = outcomes["optimistic"].extra
        assert extra["speculation_depth"] >= 2
        assert extra["windows_speculated"] > 0
        assert extra["rollbacks"] > 1, \
            "need several rollbacks so the rollback seams are exercised"


class TestMissedConflict:
    def test_blinded_detector_is_convicted_by_equivalence(
            self, monkeypatch):
        # The conflict check diffs master.interrupts_sent across the
        # catch-up simulation; resetting the counter afterwards is
        # exactly "the schedule diff missed the interrupt".
        original = Speculator._catchup_simulate

        def blinded(self, ticks):
            before = self.master.interrupts_sent
            leapt = original(self, ticks)
            self.master.interrupts_sent = before
            return leapt

        monkeypatch.setattr(Speculator, "_catchup_simulate",
                            blinded)
        outcomes, mismatches = sweep()
        convicted = oracles(mismatches)
        # Silent corruption: the run completes, tick accounting holds,
        # only cross-backend equivalence notices the board never took
        # the interrupts it was owed.
        assert outcomes["optimistic"].ok
        assert "determinism" in convicted
        assert "trace-equivalence" in convicted
        assert "tick-alignment" not in convicted


class TestShallowRollback:
    def test_one_window_too_few_is_convicted(self, monkeypatch):
        # "Roll back" to a snapshot of the already-ahead live board:
        # the conflict window is never rewound, which for a conflict in
        # the round's last speculated window is precisely one window
        # too few.
        original = Speculator._rollback_replay

        def shallow(self, metrics, k, spec_count, grant, ticks,
                    checkpoint, spec_end_link):
            stale = {"board_runtime": self.runtime.snapshot(),
                     "link": checkpoint["link"],
                     "extra": checkpoint["extra"]}
            return original(self, metrics, k, spec_count, grant, ticks,
                            stale, spec_end_link)

        monkeypatch.setattr(Speculator, "_rollback_replay",
                            shallow)
        _outcomes, mismatches = sweep()
        convicted = oracles(mismatches)
        assert "backend-error" in convicted
        # The board's protocol books travel with the checkpoint, so a
        # rollback that rewinds too little leaves the board *past* the
        # replayed grant — the seq layer refuses the stale delivery.
        detail = next(m.detail for m in mismatches
                      if m.oracle == "backend-error")
        assert "out of order" in detail


class TestStaleCheckpointReuse:
    def test_reused_checkpoint_is_convicted(self, monkeypatch):
        # Every rollback after the first reuses the first's checkpoint,
        # as if the implementation forgot to re-capture after restore.
        original = Speculator._rollback_replay
        cache = {}

        def reused(self, metrics, k, spec_count, grant, ticks,
                   checkpoint, spec_end_link):
            stale = cache.setdefault("checkpoint", checkpoint)
            return original(self, metrics, k, spec_count, grant, ticks,
                            stale, spec_end_link)

        monkeypatch.setattr(Speculator, "_rollback_replay",
                            reused)
        _outcomes, mismatches = sweep()
        convicted = oracles(mismatches)
        assert "backend-error" in convicted
        detail = next(m.detail for m in mismatches
                      if m.oracle == "backend-error")
        # Rewinding to the ancient boundary puts the board's books
        # *behind* the replayed grant's seq.
        assert "out of order" in detail
