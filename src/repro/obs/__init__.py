"""Observability: window-span tracing and per-layer profiling.

Every CLOCK window of a traced co-simulation becomes a root span with
child spans for the master's simulation half, transport grant/report
waits, the board's window execution, RTOS scheduling, ISS instruction
batches and simkernel delta activity; faults, interrupts and DATA-port
operations appear as point events.  Spans carry wall-clock *and*
simulated-time durations plus counter attributes.

Tracing is off by default and is enabled through
``CosimConfig(tracing=TracingConfig(enabled=True))`` or the
``repro profile`` CLI command; when disabled every layer holds the
shared :data:`NULL_RECORDER` and the hot paths skip instrumentation
behind a single ``if obs.enabled:`` branch.

Exporters live in :mod:`repro.obs.export`: Chrome ``trace_event`` JSON
(``chrome://tracing`` / Perfetto), flat CSV, and a text top-N report.
See ``docs/OBSERVABILITY.md`` for the span model and schemas.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "export": (
        "CSV_HEADER", "render_text_report", "to_chrome_trace", "to_csv_text",
        "validate_chrome_trace", "write_csv",
    ),
    "recorder": (
        "NULL_RECORDER", "EventRecord", "NullRecorder", "SpanRecord",
        "TracingConfig", "TracingRecorder", "deterministic_view",
        "install_recorder", "make_recorder",
    ),
})
