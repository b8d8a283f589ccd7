"""The PR smoke corpus: ~20 generated cases across every scenario.

Marked ``slow``: deselected by default locally (see pyproject addopts)
and always run in CI, where a regression in any backend or oracle
fails the pull request rather than waiting for the nightly campaign.
"""

import pytest

from repro.difftest import fuzz


@pytest.mark.slow
class TestSmokeCorpus:
    def test_twenty_case_corpus_holds(self):
        report = fuzz(base_seed=42, runs=20)
        assert report.ok, report.describe()
        assert set(report.scenario_counts) == {
            "router", "iss", "adaptive", "multiboard"}
        assert report.backend_runs >= 40

    def test_router_corpus_with_tcp_backend(self):
        report = fuzz(base_seed=7, runs=2, scenarios=["router"],
                      backends=["inproc", "rerun", "replay", "tcp"])
        assert report.ok, report.describe()
