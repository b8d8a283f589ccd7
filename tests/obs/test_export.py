"""Unit tests for the trace exporters."""

import csv
import io
import json

import pytest

from repro.obs import (
    CSV_HEADER,
    TracingConfig,
    TracingRecorder,
    render_text_report,
    to_chrome_trace,
    to_csv_text,
    validate_chrome_trace,
    write_csv,
)


def make_trace() -> TracingRecorder:
    rec = TracingRecorder()
    outer = rec.begin("session", "window", sim=0, ticks=100)
    inner = rec.begin("master", "simulate", sim=0)
    rec.event("master", "irq.send", sim=40, vector=2)
    rec.end(inner, sim=100)
    rec.end(outer, sim=100)
    return rec


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_document_shape(self):
        doc = to_chrome_trace(make_trace(), metadata={"app": "router"})
        assert set(doc) == {"traceEvents", "displayTimeUnit", "metadata"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["metadata"]["app"] == "router"
        assert doc["metadata"]["spans_total"] == 2
        assert doc["metadata"]["events_total"] == 1

    def test_span_and_event_phases(self):
        doc = to_chrome_trace(make_trace())
        phases = sorted(entry["ph"] for entry in doc["traceEvents"])
        assert phases == ["X", "X", "i"]
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        for entry in complete:
            assert entry["dur"] >= 0
            assert entry["args"]["sim0"] == 0
        instant = [e for e in doc["traceEvents"] if e["ph"] == "i"][0]
        assert instant["s"] == "t"
        assert instant["args"] == {"sim": 40, "vector": 2}

    def test_timestamps_rebased_and_sorted(self):
        doc = to_chrome_trace(make_trace())
        stamps = [entry["ts"] for entry in doc["traceEvents"]]
        assert stamps == sorted(stamps)
        assert stamps[0] == 0.0

    def test_json_serializable(self):
        text = json.dumps(to_chrome_trace(make_trace()))
        assert validate_chrome_trace(json.loads(text)) == 3

    def test_validator_accepts_valid_trace(self):
        assert validate_chrome_trace(to_chrome_trace(make_trace())) == 3

    def test_validator_accepts_empty_trace(self):
        empty = TracingRecorder()
        assert validate_chrome_trace(to_chrome_trace(empty)) == 0

    @pytest.mark.parametrize("mutation, message", [
        (lambda d: d.pop("traceEvents"), "traceEvents"),
        (lambda d: d["traceEvents"][0].pop("name"), "name"),
        (lambda d: d["traceEvents"][0].update(ts=-1), "ts"),
        (lambda d: d["traceEvents"][0].update(pid="x"), "pid"),
        (lambda d: d["traceEvents"][0].update(ph="Q"), "ph"),
    ])
    def test_validator_rejects_schema_violations(self, mutation, message):
        doc = to_chrome_trace(make_trace())
        mutation(doc)
        with pytest.raises(ValueError, match=message):
            validate_chrome_trace(doc)

    def test_validator_rejects_missing_dur_on_complete_event(self):
        doc = to_chrome_trace(make_trace())
        span = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]
        del span["dur"]
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(doc)

    def test_validator_rejects_bad_instant_scope(self):
        doc = to_chrome_trace(make_trace())
        instant = [e for e in doc["traceEvents"] if e["ph"] == "i"][0]
        instant["s"] = "x"
        with pytest.raises(ValueError, match="scope"):
            validate_chrome_trace(doc)

    def test_validator_rejects_non_dict(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
class TestCsv:
    def test_header_and_rows(self):
        rows = list(csv.reader(io.StringIO(to_csv_text(make_trace()))))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 3  # header + 2 spans + 1 event
        kinds = sorted(row[0] for row in rows[1:])
        assert kinds == ["event", "span", "span"]

    def test_attrs_round_trip_as_json(self):
        rows = list(csv.reader(io.StringIO(to_csv_text(make_trace()))))
        span_row = [r for r in rows[1:]
                    if r[0] == "span" and r[2] == "window"][0]
        assert json.loads(span_row[-1]) == {"ticks": 100}

    def test_write_csv_counts_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        assert write_csv(make_trace(), str(path)) == 3
        assert path.read_text().startswith(",".join(CSV_HEADER))


# ----------------------------------------------------------------------
# Text report
# ----------------------------------------------------------------------
class TestTextReport:
    def test_sections_present(self):
        report = render_text_report(make_trace(), top=5)
        assert "per-layer breakdown" in report
        assert "per-span aggregate" in report
        assert "== events ==" in report
        assert "top 5 spans by wall self-time" in report
        assert "session.window" in report
        assert "master.irq.send" in report

    def test_dropped_note_when_sampling(self):
        rec = TracingRecorder(TracingConfig(enabled=True, sample_every=2))
        for index in range(4):
            rec.end(rec.begin("s", "w", sim=index))
        report = render_text_report(rec)
        assert "2 spans" in report and "not retained" in report

    def test_empty_recorder_renders(self):
        report = render_text_report(TracingRecorder())
        assert "per-layer breakdown" in report
