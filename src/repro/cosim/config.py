"""Co-simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.board.board import REMOTE_DEVICE_VECTOR
from repro.errors import ProtocolError
from repro.obs.recorder import TracingConfig
from repro.simkernel.simtime import ns
from repro.transport.latency import CycleLatencyModel, WallCostModel


@dataclass
class CosimConfig:
    """Parameters of a virtual-tick co-simulation.

    ``t_sync`` is the paper's synchronization time: "the interval
    (measured in clock cycles) between two synchronization events which
    are sent from the simulator to the board" (Section 4.2).  One master
    clock cycle corresponds to one board software tick.
    """

    #: Clock cycles (== SW ticks) granted per synchronization exchange.
    t_sync: int = 1000
    #: Windows the board may run ahead of the simulator before the
    #: master catches up (Time-Warp-style speculation; see
    #: :class:`repro.cosim.optimistic.Speculator`).  0 keeps the
    #: paper's strictly conservative lock-step protocol.
    speculation_depth: int = 0
    #: Master clock period in picoseconds (the tick-rate clock).
    clock_period_ps: int = ns(10)
    #: Interrupt vector of the virtual device on the board.
    remote_vector: int = REMOTE_DEVICE_VECTOR
    #: Simulated-time IPC latency.
    latency: CycleLatencyModel = field(default_factory=CycleLatencyModel)
    #: Wall-clock cost model (for modeled overhead in in-proc runs).
    wall_cost: WallCostModel = field(default_factory=WallCostModel)
    #: Safety bound on synchronization windows per run.
    max_windows: int = 2_000_000
    #: Seconds the master waits for a time report (threaded sessions):
    #: the one silence bound of a TCP run.  Every DATA request served
    #: starts it again, so it bounds *silence*, not total window
    #: duration.  A board thread that dies closes its end of the link,
    #: which stops the wait at once, whatever this bound.
    report_timeout_s: float = 60.0
    #: Extra wall delay the board adds before each time report, on
    #: every link, emulating the Ethernet + physical-board response
    #: latency of the paper's setup (0 = no added delay).
    emulated_network_delay_s: float = 0.0
    #: Observability: span tracing and profiling (see repro.obs).
    #: Disabled by default — sessions then install the no-op recorder
    #: and the instrumented hot paths cost one branch.
    tracing: TracingConfig = field(default_factory=TracingConfig)

    def __post_init__(self) -> None:
        if self.t_sync <= 0:
            raise ProtocolError("t_sync must be positive")
        if self.speculation_depth < 0:
            raise ProtocolError("speculation_depth cannot be negative")
        if self.clock_period_ps <= 0:
            raise ProtocolError("clock period must be positive")
        if self.max_windows <= 0:
            raise ProtocolError("max_windows must be positive")
        if self.report_timeout_s <= 0:
            raise ProtocolError("report_timeout_s must be positive")
