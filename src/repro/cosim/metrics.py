"""Co-simulation run metrics.

Collects everything the paper's evaluation plots:

* Figures 5 and 6 — wall-clock time and its ratio to an untimed run
  (:attr:`CosimMetrics.wall_seconds`, :meth:`overhead_ratio`);
* Figure 7 — accuracy, delegated to the workload's
  :class:`~repro.router.stats.WorkloadStats`;
* the protocol-level counters behind both (sync exchanges, interrupt
  and data messages, OS state switches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.transport.channel import LinkStats
from repro.transport.latency import WallCostModel


@dataclass
class CosimMetrics:
    """Counters for one co-simulation run."""

    t_sync: int = 0
    windows: int = 0
    sync_exchanges: int = 0
    master_cycles: int = 0
    board_ticks: int = 0
    board_cycles: int = 0
    int_packets: int = 0
    data_messages: int = 0
    messages_total: int = 0
    bytes_total: int = 0
    state_switches: int = 0
    # Checkpoint/replay counters (see repro.replay).
    checkpoints_taken: int = 0
    restores: int = 0
    windows_replayed: int = 0
    # Optimistic-synchronization counters (see repro.cosim.optimistic).
    #: Board windows executed speculatively, ahead of the simulator
    #: (committed and later-discarded windows both count).
    windows_speculated: int = 0
    #: Conflicts that forced a checkpoint rollback.
    rollbacks: int = 0
    #: Deepest single rollback (speculative windows discarded at once).
    rollback_depth_max: int = 0
    # Observability counters (zero unless tracing was enabled).
    spans_recorded: int = 0
    span_events: int = 0
    spans_dropped: int = 0
    #: Measured host seconds (threaded sessions) or None.
    wall_seconds: Optional[float] = None
    #: Modeled host seconds (always filled, from the wall-cost model).
    modeled_wall_seconds: float = 0.0

    def absorb_link_stats(self, stats: LinkStats) -> None:
        self.messages_total = stats.messages_sent
        self.bytes_total = stats.bytes_sent
        self.int_packets = stats.int_messages
        self.data_messages = stats.data_messages

    def finish_modeled(self, model: WallCostModel) -> None:
        self.modeled_wall_seconds = model.estimate(
            sync_exchanges=self.sync_exchanges,
            messages=self.messages_total,
            bytes_sent=self.bytes_total,
            master_cycles=self.master_cycles,
            board_ticks=self.board_ticks,
            state_switches=self.state_switches,
        )

    @property
    def effective_wall_seconds(self) -> float:
        """Measured time when available, otherwise modeled."""
        if self.wall_seconds is not None:
            return self.wall_seconds
        return self.modeled_wall_seconds

    def overhead_ratio(self, untimed_seconds: float) -> float:
        """Figure 6's Y-axis: this run's time over the untimed time."""
        if untimed_seconds <= 0:
            raise ValueError("untimed time must be positive")
        return self.effective_wall_seconds / untimed_seconds

    def syncs_per_kilocycle(self) -> float:
        if self.master_cycles == 0:
            return 0.0
        return 1000.0 * self.sync_exchanges / self.master_cycles

    def summary(self) -> str:
        wall = (f"{self.wall_seconds:.4f}s measured"
                if self.wall_seconds is not None
                else f"{self.modeled_wall_seconds:.4f}s modeled")
        return (
            f"T_sync={self.t_sync} windows={self.windows} "
            f"cycles={self.master_cycles} ticks={self.board_ticks} "
            f"ints={self.int_packets} data={self.data_messages} "
            f"bytes={self.bytes_total} wall={wall} "
            f"checkpoints={self.checkpoints_taken} "
            f"restores={self.restores} "
            f"windows_replayed={self.windows_replayed} "
            f"speculated={self.windows_speculated} "
            f"rollbacks={self.rollbacks} "
            f"rollback_depth_max={self.rollback_depth_max} "
            f"spans={self.spans_recorded}"
        )
