"""``repro fuzz --jobs N`` parity: a farm campaign must be
indistinguishable from the serial loop.

The acceptance test seeds the same off-by-one window-grant mutation
the difftest suite uses (see ``tests/difftest/test_harness.py``) and
runs a 20-case campaign both ways.  Workers are **forked**, so they
inherit the parent's monkeypatched ``CosimSession`` — the farm
executes genuinely mutated co-simulations, and the convicted failure
set, shrunk workloads and on-disk artifacts must match the serial
campaign byte for byte.
"""

import filecmp
import os

from repro.cosim.session import CosimSession
from repro.difftest import fuzz
from repro.farm import fuzz_parallel


def _mutate_window_grants(monkeypatch):
    """Every full window grants T_sync+1 ticks (same injected bug as
    the serial fuzzer's acceptance test)."""
    original = CosimSession._window_ticks

    def mutated(self, max_cycles):
        ticks = original(self, max_cycles)
        if ticks == self.config.t_sync:
            ticks += 1
        return ticks

    monkeypatch.setattr(CosimSession, "_window_ticks", mutated)


def _assert_reports_match(serial, parallel, serial_dir="",
                          parallel_dir=""):
    assert parallel.base_seed == serial.base_seed
    assert parallel.runs == serial.runs
    assert parallel.scenario_counts == serial.scenario_counts
    assert parallel.backend_runs == serial.backend_runs
    assert parallel.ok == serial.ok
    described = parallel.describe()
    if parallel_dir:
        # The campaigns wrote to different out_dirs; the embedded
        # artifact paths are the one legitimate difference.
        described = described.replace(parallel_dir, serial_dir)
    assert described == serial.describe()


def _assert_artifact_trees_match(serial_dir, parallel_dir):
    serial_files = sorted(os.listdir(serial_dir))
    parallel_files = sorted(os.listdir(parallel_dir))
    assert parallel_files == serial_files and serial_files
    match, mismatch, errors = filecmp.cmpfiles(
        serial_dir, parallel_dir, serial_files, shallow=False)
    assert not mismatch, f"artifacts differ: {mismatch}"
    assert not errors, f"artifacts unreadable: {errors}"
    assert sorted(match) == serial_files


class TestCleanCampaignParity:
    def test_parallel_report_equals_serial(self):
        serial = fuzz(base_seed=42, runs=6)
        parallel = fuzz_parallel(base_seed=42, runs=6, jobs=3)
        _assert_reports_match(serial, parallel)
        assert parallel.ok

    def test_jobs_one_is_the_serial_path(self):
        serial = fuzz(base_seed=9, runs=2, scenarios=["iss"])
        via_farm = fuzz_parallel(base_seed=9, runs=2, jobs=1,
                                 scenarios=["iss"])
        _assert_reports_match(serial, via_farm)


class TestMutatedCampaignParity:
    def test_20_case_campaign_convicts_identically(
            self, monkeypatch, tmp_path):
        _mutate_window_grants(monkeypatch)
        serial_dir = str(tmp_path / "serial")
        parallel_dir = str(tmp_path / "parallel")

        serial = fuzz(base_seed=7, runs=20, out_dir=serial_dir)
        parallel = fuzz_parallel(base_seed=7, runs=20, jobs=4,
                                 out_dir=parallel_dir)

        assert not serial.ok and not parallel.ok
        _assert_reports_match(serial, parallel, serial_dir=serial_dir,
                              parallel_dir=parallel_dir)

        # Same convicted failure set: indices, oracles, shrunk specs.
        assert [f.index for f in parallel.failures] == \
            [f.index for f in serial.failures]
        for ours, theirs in zip(parallel.failures, serial.failures):
            assert ours.spec == theirs.spec
            assert ours.shrunk == theirs.shrunk
            assert ours.shrink_steps == theirs.shrink_steps
            assert [m.to_dict() for m in ours.mismatches] == \
                [m.to_dict() for m in theirs.mismatches]

        # Same artifacts, byte for byte.
        _assert_artifact_trees_match(serial_dir, parallel_dir)

    def test_per_index_seeds_are_independent_of_job_count(
            self, monkeypatch, tmp_path):
        """The convicted set must not depend on the worker count —
        per-index case seeds derive from the base seed alone."""
        _mutate_window_grants(monkeypatch)
        two = fuzz_parallel(base_seed=7, runs=12, jobs=2,
                            scenarios=["router"], max_failures=2)
        four = fuzz_parallel(base_seed=7, runs=12, jobs=4,
                             scenarios=["router"], max_failures=2)
        assert [f.index for f in two.failures] == \
            [f.index for f in four.failures]
        assert two.describe() == four.describe()
