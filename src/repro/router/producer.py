"""Packet producers (the paper's packet-generator models).

"model of the packet generator (producer), which is attached to an input
port of the router, and generates packets with a random destination
address" (Section 6).  Producers are hardware models in the master
simulation; generation is deterministic given the seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.determinism import mixed_seed, random_bytes, \
    rng_state_restore, rng_state_snapshot, seeded_rng
from repro.router.packet import Packet
from repro.router.router import Router
from repro.router.stats import WorkloadStats
from repro.simkernel.clock import Clock
from repro.simkernel.module import Module

if TYPE_CHECKING:
    from repro.router.testbench import RouterWorkload


class Producer(Module):
    """Generates ``workload.packets_per_producer`` packets, one every
    ``interval_cycles``, to random destinations.

    With ``burst_size > 1`` the producer emits packets in bursts:
    ``burst_size`` packets spaced ``interval_cycles`` apart, then a
    pause of ``burst_gap_cycles`` before the next burst — the bursty
    traffic profile that motivates adaptive synchronization.
    """

    def __init__(self, sim, name: str, router: Router, port_index: int,
                 clock: Clock, stats: WorkloadStats,
                 workload: "RouterWorkload") -> None:
        super().__init__(sim, name)
        self.router = router
        self.port_index = port_index
        self.clock = clock
        self.stats = stats
        self.workload = workload
        self._rng = seeded_rng(mixed_seed(workload.seed, port_index))
        #: Packets generated so far.
        self.sent = 0
        #: Packets refused at the input FIFO (also overflow drops).
        self.input_drops = 0
        self.done = False
        self.thread(self._run, name="gen")

    def snapshot(self) -> dict:
        """Checkpoint support: counters plus the private RNG stream."""
        return {
            "sent": self.sent,
            "input_drops": self.input_drops,
            "done": self.done,
            "rng": rng_state_snapshot(self._rng),
        }

    def restore(self, state: dict) -> None:
        for key in ("sent", "input_drops", "done", "rng"):
            if key not in state:
                raise ValueError(f"producer snapshot missing {key!r}")
        self.sent = state["sent"]
        self.input_drops = state["input_drops"]
        self.done = state["done"]
        rng_state_restore(self._rng, state["rng"])

    def _next_packet_id(self) -> int:
        # Globally unique across producers: port index in the high bits.
        return (self.port_index << 24) | self.sent

    def _run(self):
        workload = self.workload
        period = self.clock.period
        fifo = self.router.input_fifos[self.port_index]
        # Stagger producers so arrivals are not perfectly aligned.
        yield self.clock.posedge
        offset = (self.port_index * workload.interval_cycles) // max(
            1, self.router.num_ports
        )
        if offset:
            yield offset * period
        while self.sent < workload.packets_per_producer:
            pkt_id = self._next_packet_id()
            dst = self._rng.randrange(256)
            payload = random_bytes(self._rng, workload.payload_size)
            packet = Packet.build(self.port_index, dst, pkt_id, payload)
            corrupt = self._rng.random() < workload.corrupt_rate
            if corrupt:
                packet = packet.corrupted(self._rng.getrandbits(8))
            cycle = self.sim.now // period
            self.stats.record_generated(pkt_id, cycle, corrupt)
            if not fifo.try_put(packet):
                self.input_drops += 1
                self.stats.dropped_overflow += 1
            self.sent += 1
            if (workload.burst_gap_cycles
                    and self.sent % workload.burst_size == 0):
                yield workload.burst_gap_cycles * period
            else:
                yield workload.interval_cycles * period
        self.done = True
