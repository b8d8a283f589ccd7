"""The embedded board model (SCM2x0 substitute)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "board": (
        "Board", "BoardConfig", "DEVICE_WINDOW_BASE", "DEVICE_WINDOW_SIZE",
        "RAM_BASE", "RAM_SIZE", "REMOTE_DEVICE_VECTOR", "TIMER_BASE",
        "TIMER_VECTOR",
    ),
    "bus": ("Bus", "BusError", "BusRegion"),
    "cpu": ("CpuModel", "WorkModel"),
    "memory": ("Memory", "MemoryError_"),
    "timer": ("HardwareTimer",),
})
