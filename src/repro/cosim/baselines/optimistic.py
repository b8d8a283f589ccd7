"""Optimistic (rollback-based) timed co-simulation baseline [9].

"the solutions consider either the use of rollback of the simulation
(when one simulator receives a past event from the other simulator)"
(Section 2).  Two engines — a hardware-side packet source and a
software-side processor — each advance their *local* virtual time
freely; when the software engine receives a message stamped earlier
than its local time (a *straggler*), it rolls back to the most recent
checkpoint at or before the stamp and re-executes.

The paper's point, demonstrated here: rollback requires ``restore()``.
Our software engine's whole state is a small dataclass, so snapshots
are trivial; a *physical* board has no such operation — "the board may
include some hardware devices which synchronize their work by
exploiting the timer value, thus rollback cannot be implemented".  The
benchmark harness uses this module to quantify rollback overhead versus
checkpoint interval and optimism window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.determinism import (
    random_bytes,
    seeded_rng,
)
from repro.errors import ProtocolError
from repro.router.checksum import checksum16


@dataclass(frozen=True)
class TimedMessage:
    """A packet hand-off between the engines, stamped with HW time."""

    timestamp: int
    payload: bytes


@dataclass(frozen=True)
class SwState:
    """Complete software-engine state — snapshot-able by construction."""

    local_time: int = 0
    packets_processed: int = 0
    checksum_accumulator: int = 0


@dataclass(frozen=True)
class Checkpoint:
    taken_at: int
    state: SwState


@dataclass
class OptimisticStats:
    messages: int = 0
    stragglers: int = 0
    rollbacks: int = 0
    checkpoints: int = 0
    executed_units: int = 0
    wasted_units: int = 0

    @property
    def efficiency(self) -> float:
        """Useful work over total work."""
        if self.executed_units == 0:
            return 1.0
        return 1.0 - self.wasted_units / self.executed_units


class SoftwareEngine:
    """The rollback-capable software simulator."""

    def __init__(self, checkpoint_interval: int,
                 service_time: int = 50) -> None:
        if checkpoint_interval <= 0:
            raise ProtocolError("checkpoint interval must be positive")
        self.checkpoint_interval = checkpoint_interval
        self.service_time = service_time
        self.state = SwState()
        self.checkpoints: List[Checkpoint] = [Checkpoint(0, self.state)]
        #: (local time at processing, message timestamp, payload).
        self._processed_log: List[Tuple[int, int, bytes]] = []
        self.stats = OptimisticStats()

    # ------------------------------------------------------------------
    def advance_to(self, target_time: int) -> None:
        """Optimistically execute local work up to *target_time*."""
        while self.state.local_time < target_time:
            step = min(self.checkpoint_interval,
                       target_time - self.state.local_time)
            self.state = replace(self.state,
                                 local_time=self.state.local_time + step)
            self.stats.executed_units += step
            self._maybe_checkpoint()

    def receive(self, message: TimedMessage) -> None:
        """Handle a message; roll back first if it is a straggler."""
        self.stats.messages += 1
        if message.timestamp < self.state.local_time:
            self.stats.stragglers += 1
            self._rollback_to(message.timestamp)
        self._process(message)

    # ------------------------------------------------------------------
    def _process(self, message: TimedMessage) -> None:
        new_time = max(self.state.local_time, message.timestamp)
        new_time += self.service_time
        accumulator = (self.state.checksum_accumulator
                       + checksum16(message.payload)) & 0xFFFF
        self.state = SwState(
            local_time=new_time,
            packets_processed=self.state.packets_processed + 1,
            checksum_accumulator=accumulator,
        )
        self.stats.executed_units += self.service_time
        self._processed_log.append(
            (new_time, message.timestamp, message.payload)
        )
        self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        last = self.checkpoints[-1]
        if self.state.local_time - last.taken_at >= self.checkpoint_interval:
            self.checkpoints.append(
                Checkpoint(self.state.local_time, self.state)
            )
            self.stats.checkpoints += 1

    def _rollback_to(self, timestamp: int) -> None:
        """Restore the latest checkpoint not newer than *timestamp*."""
        while len(self.checkpoints) > 1 and \
                self.checkpoints[-1].taken_at > timestamp:
            self.checkpoints.pop()
        checkpoint = self.checkpoints[-1]
        wasted = self.state.local_time - checkpoint.state.local_time
        self.stats.wasted_units += max(0, wasted)
        self.stats.rollbacks += 1
        self.state = checkpoint.state
        # Re-deliver the messages the rollback un-processed (those
        # handled after the restored checkpoint was taken).
        replay = [entry for entry in self._processed_log
                  if entry[0] > checkpoint.taken_at]
        self._processed_log = [entry for entry in self._processed_log
                               if entry[0] <= checkpoint.taken_at]
        for _, timestamp_, payload in sorted(replay, key=lambda e: e[1]):
            self._process(TimedMessage(timestamp_, payload))


class OptimisticCosim:
    """HW packet source + optimistic SW engine, loosely coupled.

    ``lookahead`` is how far the software engine runs ahead of the
    hardware time between message deliveries; larger lookahead means
    fewer synchronizations but more stragglers and rollback waste.
    """

    def __init__(self, packet_count: int = 100,
                 mean_interarrival: int = 100,
                 lookahead: int = 500,
                 checkpoint_interval: int = 100,
                 service_time: int = 50,
                 payload_size: int = 32,
                 seed: int = 2005) -> None:
        self.packet_count = packet_count
        self.mean_interarrival = mean_interarrival
        self.lookahead = lookahead
        self.software = SoftwareEngine(checkpoint_interval, service_time)
        self._rng = seeded_rng(seed)
        self.payload_size = payload_size

    def _hardware_schedule(self) -> List[TimedMessage]:
        """Generate packet arrival events (the HW engine's output)."""
        now = 0
        messages = []
        for _ in range(self.packet_count):
            now += self._rng.randint(1, 2 * self.mean_interarrival)
            payload = random_bytes(self._rng, self.payload_size)
            messages.append(TimedMessage(now, payload))
        return messages

    def run(self) -> OptimisticStats:
        """Run to completion; returns the overhead statistics."""
        software = self.software
        for message in self._hardware_schedule():
            # The SW engine optimistically runs ahead of HW time.
            software.advance_to(message.timestamp + self.lookahead)
            # ... so HW messages usually arrive "in the past".
            software.receive(message)
        if software.state.packets_processed < self.packet_count:
            raise ProtocolError(
                "optimistic run lost packets: "
                f"{software.state.packets_processed}/{self.packet_count}"
            )
        return software.stats

    @staticmethod
    def requires_state_restore() -> bool:
        """Rollback needs snapshot/restore — unavailable on real boards."""
        return True
