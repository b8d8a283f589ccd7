"""The ``repro fuzz`` command-line surface."""

import pytest

from repro.cli import main
from repro.difftest import generate_spec, run_spec
from repro.errors import UnknownBackendError


class TestFuzzCommand:
    def test_clean_campaign_exits_zero(self, capsys):
        assert main(["fuzz", "--seed", "42", "--runs", "2",
                     "--scenarios", "iss", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "all oracles held" in out
        assert "2 runs" in out

    def test_progress_log_without_quiet(self, capsys):
        assert main(["fuzz", "--seed", "42", "--runs", "1",
                     "--scenarios", "iss"]) == 0
        out = capsys.readouterr().out
        assert "ok   " in out

    def test_spec_file_mode(self, tmp_path, capsys):
        spec = generate_spec(42, 1, scenarios=["iss"])
        path = tmp_path / "case.json"
        spec.save(str(path))
        assert main(["fuzz", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "all oracles held" in out
        assert "iss" in out

    def test_backend_filter(self, capsys):
        assert main(["fuzz", "--seed", "42", "--runs", "1",
                     "--scenarios", "router",
                     "--backends", "inproc", "rerun", "--quiet"]) == 0
        assert "backend executions" in capsys.readouterr().out

    def test_index_offsets_the_corpus(self, capsys):
        assert main(["fuzz", "--seed", "42", "--runs", "1",
                     "--index", "5", "--scenarios", "iss"]) == 0
        assert "[5]" in capsys.readouterr().out

    def test_unknown_backend_is_a_usage_error(self, capsys):
        assert main(["fuzz", "--seed", "1", "--runs", "2",
                     "--backends", "inproc", "bogus"]) == 2
        captured = capsys.readouterr()
        assert "all oracles held" not in captured.out
        assert "bogus" in captured.err
        # The message lists the names that do exist.
        assert "inproc" in captured.err and "iss-unit" in captured.err

    def test_backend_of_another_scenario_is_skipped(self, capsys):
        assert main(["fuzz", "--seed", "42", "--runs", "1",
                     "--scenarios", "iss",
                     "--backends", "inproc", "--quiet"]) == 0
        assert "all oracles held" in capsys.readouterr().out


class TestRunSpecBackends:
    def test_unknown_name_raises_a_typed_error(self):
        spec = generate_spec(42, 1, scenarios=["iss"])
        with pytest.raises(UnknownBackendError, match="known: "):
            run_spec(spec, backends=["iss-unit", "bogus"])

    @pytest.mark.parametrize("index", range(4))
    def test_chunked_iss_matches_the_unchunked_run(self, index):
        spec = generate_spec(42, index, scenarios=["iss"])
        outcomes, mismatches = run_spec(spec)
        assert mismatches == []
        default, chunked = outcomes["iss-default"], outcomes["iss-chunked"]
        assert chunked.ok and chunked.digest == default.digest
        assert chunked.extra["cycles"] == default.extra["cycles"]
