"""The ``repro-bench/1`` trajectory: schema round-trip, validation,
comparison semantics and the CLI exit codes of ``repro bench
--compare``."""

import json

import pytest

from repro.bench import (
    SCHEMA,
    BenchReport,
    BenchValidationError,
    compare_paths,
    compare_reports,
    env_fingerprint,
    load_report,
    validate_report,
)
from repro.cli import main


def make_report(name="fig5_overhead", profile="quick", wall=2.0,
                throughput=100.0, tier1=True, key="fig5_sweep"):
    report = BenchReport(name=name, profile=profile, env=env_fingerprint(),
                         config={"t_sync_values": [1000]})
    report.add_series(key, wall, work=wall * throughput, unit="packets",
                      tier1=tier1)
    return report


# ----------------------------------------------------------------------
# Schema round-trip
# ----------------------------------------------------------------------

def test_report_round_trip(tmp_path):
    report = make_report()
    path = tmp_path / report.filename
    report.save(str(path))

    loaded = load_report(str(path))
    assert loaded.name == "fig5_overhead"
    assert loaded.profile == "quick"
    assert loaded.config == {"t_sync_values": [1000]}
    series = loaded.find("fig5_sweep")
    assert series is not None
    assert series.wall_seconds == pytest.approx(2.0)
    assert series.throughput == pytest.approx(100.0)
    assert series.tier1
    assert loaded.env["repro_version"]

    doc = json.loads(path.read_text())
    assert doc["schema"] == SCHEMA
    assert doc["created"].endswith("Z")


def test_throughput_derived_from_work():
    report = BenchReport(name="x")
    entry = report.add_series("s", 2.0, work=500, unit="ops")
    assert entry.throughput == pytest.approx(250.0)


def test_series_without_work_has_no_throughput():
    report = BenchReport(name="x")
    entry = report.add_series("s", 2.0)
    assert entry.work is None
    assert entry.throughput is None


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(schema="repro-bench/0"), "schema"),
    (lambda d: d.update(name=""), "name"),
    (lambda d: d.update(profile="fastest"), "profile"),
    (lambda d: d.update(series=[]), "series"),
    (lambda d: d["series"].append(dict(d["series"][0])), "duplicate"),
    (lambda d: d["series"][0].update(wall_seconds=-1), "wall_seconds"),
    (lambda d: d["series"][0].update(throughput="fast"), "throughput"),
    (lambda d: d.update(config=[]), "config"),
])
def test_validation_rejects_malformed(mutate, message):
    doc = make_report().to_dict()
    mutate(doc)
    with pytest.raises(BenchValidationError, match=message):
        validate_report(doc)


def test_validation_accepts_own_output():
    validate_report(make_report().to_dict())


# ----------------------------------------------------------------------
# Comparison semantics
# ----------------------------------------------------------------------

def test_compare_clean_within_threshold():
    result = compare_reports(make_report(throughput=100.0),
                             make_report(throughput=90.0))
    assert result.ok
    assert result.deltas[0].speedup == pytest.approx(0.9)


def test_compare_flags_tier1_regression():
    result = compare_reports(make_report(throughput=100.0),
                             make_report(throughput=70.0))
    assert not result.ok
    assert [d.key for d in result.regressions] == ["fig5_sweep"]


def test_compare_ignores_non_tier1_regression():
    result = compare_reports(make_report(throughput=100.0, tier1=False),
                             make_report(throughput=10.0, tier1=False))
    assert result.ok


def test_compare_missing_tier1_series_fails():
    old = make_report()
    new = make_report(key="renamed_sweep")
    result = compare_reports(old, new)
    assert result.missing_tier1 == [("fig5_overhead", "fig5_sweep", True)]
    assert not result.ok


def test_compare_profile_mismatch_is_not_gated():
    result = compare_reports(make_report(profile="quick"),
                             make_report(profile="full", throughput=1.0))
    assert result.ok
    assert any("profile changed" in note for note in result.notes)


def test_compare_directories(tmp_path):
    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    old_dir.mkdir(), new_dir.mkdir()
    make_report().save(str(old_dir / "BENCH_fig5_overhead.json"))
    make_report(name="micro_kernels", key="iss_checksum").save(
        str(old_dir / "BENCH_micro_kernels.json"))
    make_report(throughput=350.0).save(
        str(new_dir / "BENCH_fig5_overhead.json"))

    result = compare_paths(str(old_dir), str(new_dir))
    # fig5 sped up 3.5x; micro_kernels has no counterpart -> missing.
    assert result.deltas[0].speedup == pytest.approx(3.5)
    assert ("micro_kernels", "iss_checksum", True) in result.missing
    assert not result.ok


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------

def write_pair(tmp_path, old_throughput, new_throughput):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    make_report(throughput=old_throughput).save(str(old))
    make_report(throughput=new_throughput).save(str(new))
    return str(old), str(new)


def test_cli_compare_exit_0_on_clean(tmp_path, capsys):
    old, new = write_pair(tmp_path, 100.0, 110.0)
    assert main(["bench", "--compare", old, new]) == 0
    assert "gate clean" in capsys.readouterr().out


def test_cli_compare_exit_1_on_regression(tmp_path, capsys):
    old, new = write_pair(tmp_path, 100.0, 50.0)
    assert main(["bench", "--compare", old, new]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_cli_compare_threshold_override(tmp_path):
    old, new = write_pair(tmp_path, 100.0, 50.0)
    assert main(["bench", "--compare", old, new, "--threshold", "0.6"]) == 0


def test_cli_compare_exit_2_on_invalid_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"schema\": \"nope\"}")
    good = tmp_path / "good.json"
    make_report().save(str(good))
    assert main(["bench", "--compare", str(bad), str(good)]) == 2
    assert "bench compare" in capsys.readouterr().err


def test_cli_compare_exit_2_on_missing_file(tmp_path):
    good = tmp_path / "good.json"
    make_report().save(str(good))
    assert main(["bench", "--compare", str(tmp_path / "absent.json"),
                 str(good)]) == 2


# ----------------------------------------------------------------------
# The harness recorder (benchmarks/benchjson.py)
# ----------------------------------------------------------------------

def load_benchjson():
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / \
        "benchjson.py"
    spec = importlib.util.spec_from_file_location("benchjson", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FakeClock:
    """``perf_counter`` that advances only inside a timed call, by the
    next of the given durations."""

    def __init__(self, *durations):
        self.now = 0.0
        self.durations = iter(durations)

    def perf_counter(self):
        return self.now

    def work(self):
        self.now += next(self.durations)


def make_recorder(monkeypatch, *durations):
    benchjson = load_benchjson()
    clock = FakeClock(*durations)
    monkeypatch.setattr(benchjson, "time", clock)
    return benchjson.BenchRecorder("micro_kernels", "quick"), clock


def test_recorder_series_is_the_median_of_wrapped_calls(monkeypatch):
    recorder, clock = make_recorder(monkeypatch, 9.0, 3.0, 1.0, 2.0, 8.0,
                                    1.5)
    recorder.measure(clock.work)
    cold_seconds = recorder.last_seconds
    timed = recorder.wrap(clock.work)
    for _ in range(5):
        timed()
    recorder.series("codec_roundtrip", work=10, cold_seconds=cold_seconds)
    series = recorder.report.find("codec_roundtrip")
    assert series.wall_seconds == 2.0
    assert series.extra["cold_seconds"] == 9.0
    assert recorder.last_seconds == 1.5


def test_recorder_series_after_measure_is_that_call(monkeypatch):
    recorder, clock = make_recorder(monkeypatch, 1.0, 5.0, 4.0)
    timed = recorder.wrap(clock.work)
    timed()
    recorder.series("wrapped")
    recorder.measure(clock.work)
    recorder.measure(clock.work)
    recorder.series("measured")
    assert recorder.report.find("wrapped").wall_seconds == 1.0
    assert recorder.report.find("measured").wall_seconds == 4.0
