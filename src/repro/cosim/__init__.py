"""The timed co-simulation framework (the paper's contribution)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "adaptive": ("AdaptiveController", "AdaptivePolicy"),
    "board_runtime": ("CosimBoardRuntime",),
    "config": ("CosimConfig",),
    "master": ("CosimMaster", "build_driver_sim"),
    "metrics": ("CosimMetrics",),
    "protocol": (
        "BoardProtocol", "MasterProtocol", "SHUTDOWN_TICKS", "is_shutdown",
        "make_shutdown",
    ),
    "session": ("BoardSlot", "CosimSession"),
    "trace": ("ProtocolTrace", "WindowRecord", "rows_to_csv"),
    "..obs.recorder": ("TracingConfig",),
})
