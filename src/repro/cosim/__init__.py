"""The timed co-simulation framework (the paper's contribution)."""

from repro.cosim.adaptive import AdaptiveController, AdaptivePolicy
from repro.cosim.board_runtime import CosimBoardRuntime
from repro.cosim.config import CosimConfig
from repro.cosim.master import CosimMaster, build_driver_sim
from repro.cosim.metrics import CosimMetrics
from repro.cosim.protocol import (
    BoardProtocol,
    MasterProtocol,
    SHUTDOWN_TICKS,
    is_shutdown,
    make_shutdown,
)
from repro.cosim.session import BoardSlot, CosimSession
from repro.cosim.trace import ProtocolTrace, WindowRecord, rows_to_csv
from repro.obs.recorder import TracingConfig

__all__ = [
    "AdaptiveController",
    "AdaptivePolicy",
    "BoardProtocol",
    "BoardSlot",
    "CosimBoardRuntime",
    "CosimConfig",
    "CosimMaster",
    "CosimMetrics",
    "CosimSession",
    "MasterProtocol",
    "ProtocolTrace",
    "SHUTDOWN_TICKS",
    "TracingConfig",
    "WindowRecord",
    "build_driver_sim",
    "is_shutdown",
    "make_shutdown",
    "rows_to_csv",
]
