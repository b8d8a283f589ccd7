"""Experiment harnesses for the paper's evaluation section."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "accuracy": ("Figure7Result", "expected_knee", "figure7_accuracy"),
    "calibration": (
        "CalibrationResult", "CalibrationSample", "calibrate", "fit_samples",
        "measure_samples",
    ),
    "latency": ("LatencyPoint", "latency_vs_t_sync", "percentile"),
    "optimal": ("MeritPoint", "OptimalResult", "find_optimal_t_sync"),
    "overhead": (
        "Figure5Result", "Figure6Result", "figure5_time_vs_packets",
        "figure6_overhead_ratio",
    ),
    "report": (
        "format_float", "format_percent", "format_series", "format_table",
    ),
    "sweep": ("SweepPoint", "run_point", "sweep_t_sync"),
})
