"""Trace exporters: Chrome ``trace_event`` JSON, flat CSV, text report.

The Chrome format targets ``chrome://tracing`` / Perfetto's legacy
JSON importer (the "JSON Array Format" with a ``traceEvents`` wrapper
object).  Schema emitted here, checked by
:func:`validate_chrome_trace`:

* the document is ``{"traceEvents": [...], "displayTimeUnit": "ms",
  "metadata": {...}}``;
* every element has ``name`` (str), ``cat`` (str), ``ph`` (``"X"`` for
  complete spans, ``"i"`` for instant events), ``ts`` (microseconds,
  number >= 0), ``pid`` and ``tid`` (ints);
* ``"X"`` events additionally carry ``dur`` (microseconds, >= 0);
* ``"i"`` events carry scope ``"s": "t"`` (thread);
* simulated-time endpoints and counter attributes ride in ``args``.

Timestamps are rebased to the trace's earliest span so the numbers
stay small and the viewer opens at t=0.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List, Optional

#: pid stamped on every exported event (one co-simulation = one process).
TRACE_PID = 1


def _base_wall(recorder) -> float:
    starts = [s.wall0 for s in recorder.spans]
    starts += [e.wall for e in recorder.events]
    return min(starts) if starts else 0.0


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def to_chrome_trace(recorder, metadata: Optional[dict] = None) -> dict:
    """Export a :class:`~repro.obs.recorder.TracingRecorder` as a
    Chrome ``trace_event`` document (a JSON-ready dict)."""
    base = _base_wall(recorder)
    trace_events: List[Dict[str, Any]] = []
    for span in recorder.spans:
        args: Dict[str, Any] = {"sim0": span.sim0, "sim1": span.sim1}
        if span.attrs:
            args.update(span.attrs)
        trace_events.append({
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": _us(span.wall0 - base),
            "dur": _us(span.wall1 - span.wall0),
            "pid": TRACE_PID,
            "tid": span.tid,
            "args": args,
        })
    for event in recorder.events:
        args = {"sim": event.sim}
        if event.attrs:
            args.update(event.attrs)
        trace_events.append({
            "name": event.name,
            "cat": event.cat,
            "ph": "i",
            "s": "t",
            "ts": _us(event.wall - base),
            "pid": TRACE_PID,
            "tid": event.tid,
            "args": args,
        })
    trace_events.sort(key=lambda entry: entry["ts"])
    doc_metadata = {
        "spans_total": recorder.span_count,
        "events_total": recorder.event_count,
        "spans_retained": len(recorder.spans),
        "events_retained": len(recorder.events),
        "mode": "sample" if recorder.config.sample_every > 1 else "full",
    }
    doc_metadata.update(metadata or {})
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": doc_metadata,
    }


def validate_chrome_trace(doc: dict) -> int:
    """Check *doc* against the schema documented in this module.

    Returns the number of trace events; raises :class:`ValueError`
    naming the first offending field otherwise.
    """
    if not isinstance(doc, dict):
        raise ValueError("chrome trace must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("chrome trace needs a traceEvents list")
    for index, entry in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} is not an object")
        for key, kind in (("name", str), ("cat", str), ("ph", str)):
            if not isinstance(entry.get(key), kind):
                raise ValueError(f"{where}.{key} missing or not "
                                 f"{kind.__name__}")
        ts = entry.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where}.ts must be a number >= 0")
        for key in ("pid", "tid"):
            if not isinstance(entry.get(key), int):
                raise ValueError(f"{where}.{key} missing or not int")
        ph = entry["ph"]
        if ph == "X":
            dur = entry.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}.dur must be a number >= 0")
        elif ph == "i":
            if entry.get("s") not in ("t", "p", "g"):
                raise ValueError(f"{where}.s must be a valid instant scope")
        else:
            raise ValueError(f"{where}.ph {ph!r} not in ('X', 'i')")
    return len(events)


#: Column order of the flat CSV export.
CSV_HEADER = ["kind", "cat", "name", "tid", "wall_start_us",
              "wall_dur_us", "sim0", "sim1", "attrs"]


def to_csv_text(recorder) -> str:
    """Flat CSV: one row per retained span and event."""
    base = _base_wall(recorder)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_HEADER)
    for span in recorder.spans:
        writer.writerow([
            "span", span.cat, span.name, span.tid,
            _us(span.wall0 - base), _us(span.wall1 - span.wall0),
            span.sim0, span.sim1,
            json.dumps(span.attrs or {}, sort_keys=True),
        ])
    for event in recorder.events:
        writer.writerow([
            "event", event.cat, event.name, event.tid,
            _us(event.wall - base), 0.0, event.sim, event.sim,
            json.dumps(event.attrs or {}, sort_keys=True),
        ])
    return buffer.getvalue()


def write_csv(recorder, path: str) -> int:
    """Write the flat CSV to *path*; returns the number of data rows."""
    text = to_csv_text(recorder)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return max(0, text.count("\n") - 1)


def render_text_report(recorder, top: int = 15) -> str:
    """Human-readable profile: per-layer breakdown, per-span-kind
    aggregate, and the top-N hottest retained spans by wall self-time."""
    lines: List[str] = []
    lines.append("== per-layer breakdown (inclusive wall time) ==")
    layers = recorder.layer_breakdown()
    total_wall = sum(entry["wall_s"] for entry in layers.values())
    for cat in sorted(layers, key=lambda c: -layers[c]["wall_s"]):
        entry = layers[cat]
        share = (100.0 * entry["wall_s"] / total_wall) if total_wall else 0.0
        lines.append(f"  {cat:<12} {entry['count']:>8} spans  "
                     f"{entry['wall_s'] * 1e3:>10.3f} ms  {share:5.1f}%")
    lines.append("")
    lines.append("== per-span aggregate ==")
    for (cat, name) in sorted(recorder.aggregate,
                              key=lambda k: -recorder.aggregate[k][1]):
        count, wall, sim = recorder.aggregate[(cat, name)]
        mean_us = (wall / count) * 1e6 if count else 0.0
        lines.append(f"  {cat}.{name:<24} x{count:<7} "
                     f"{wall * 1e3:>10.3f} ms total  "
                     f"{mean_us:>9.1f} us mean  sim={sim}")
    if recorder.event_counts:
        lines.append("")
        lines.append("== events ==")
        for (cat, name) in sorted(recorder.event_counts):
            lines.append(f"  {cat}.{name:<24} "
                         f"x{recorder.event_counts[(cat, name)]}")
    if recorder.spans:
        lines.append("")
        lines.append(f"== top {top} spans by wall self-time ==")
        self_times = recorder.self_times()
        hottest = sorted(recorder.spans,
                         key=lambda s: -self_times[s.sid])[:top]
        for span in hottest:
            lines.append(
                f"  {span.cat}.{span.name:<20} "
                f"self={self_times[span.sid] * 1e6:>9.1f} us  "
                f"incl={span.wall_duration * 1e6:>9.1f} us  "
                f"sim={span.sim_duration}  attrs={span.attrs or {}}"
            )
    if recorder.dropped_spans or recorder.dropped_events:
        lines.append("")
        lines.append(f"({recorder.dropped_spans} spans and "
                     f"{recorder.dropped_events} events aggregated "
                     "but not retained)")
    return "\n".join(lines)
