"""A pure-Python behavioral model of the 4-port router workload.

The first reference plugin for the FMI-style boundary
(:mod:`repro.fmi.protocol`): the complete master-side hardware of the
router case study — producers, router, consumers, driver registers —
reimplemented as a plain cycle-accurate state machine with no simkernel
underneath.  It is *bit-exact* against the netlist testbench: the same
(config, seed) produces identical interrupt cycles, register contents
and workload statistics, which the ``fmu`` difftest backend holds to
the ``inproc`` reference digest-for-digest.

Exactness notes (each mirrors a delta-level behaviour of the netlist):

* Producers stagger by ``(port * interval) // num_ports`` after the
  first clock edge.  A zero-offset producer's *first* packet lands in
  the delta cascade after the router's clocked method ran (post-edge),
  so the router — which parks on empty FIFOs — wakes and takes it at
  the *next* edge.  Every later generation resumes from a timed wait
  and lands pre-edge, visible to the same cycle's edge.
* While parked the router wakes during the arrival cycle and is
  clocked again from the following cycle; the model jumps straight to
  the next producer event instead of ticking idle cycles.
* The IRQ is a one-cycle pulse raised when a packet is loaded into the
  register file after it was empty; a verdict chains the next buffered
  packet combinationally without a new pulse.
* Verdicts are applied at the model's current cycle — the adapter only
  services DATA between steps, which pins delivery timestamps to the
  window boundary exactly as the settled netlist does.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.determinism import (
    mixed_seed,
    random_bytes,
    rng_state_restore,
    rng_state_snapshot,
    seeded_rng,
)
from repro.errors import FmiError
from repro.fmi.adapter import read_router_plugin_config
from repro.fmi.protocol import DATA_ADDR_KEY, DATA_OP_KEY, DATA_VALUE_KEY
from repro.router.packet import Packet
from repro.router.router import (
    REG_PACKET,
    REG_STATS,
    REG_STATUS,
    REG_VERDICT,
    VERDICT_OK,
)
from repro.router.routing_table import RoutingTable
from repro.router.stats import WorkloadStats
from repro.router.testbench import RouterWorkload

#: Default FIFO depths, matching :class:`repro.router.router.Router`.
INPUT_FIFO_CAPACITY = 4
OUTPUT_FIFO_CAPACITY = 1024

_PRODUCER_KEYS = ("sent", "input_drops", "done", "next_cycle",
                  "pre_edge", "rng")
_CONSUMER_KEYS = ("received_count", "invalid_count", "misrouted_count")


class _Producer:
    """One packet generator's schedule and private RNG stream."""

    __slots__ = ("index", "count", "rng", "sent", "input_drops", "done",
                 "next_cycle", "pre_edge")

    def __init__(self, index: int, workload: RouterWorkload) -> None:
        self.index = index
        self.count = workload.packets_per_producer
        self.rng = seeded_rng(mixed_seed(workload.seed, index))
        self.sent = 0
        self.input_drops = 0
        self.done = False
        # The generator thread sees the first edge (cycle 1), then
        # sleeps its stagger offset; offset-0 producers generate in the
        # same delta cascade as that first edge (post-edge).
        offset = (index * workload.interval_cycles) // workload.num_ports
        self.next_cycle: Optional[int] = 1 + offset
        self.pre_edge = offset > 0


class _Consumer:
    """One output port's delivery counters."""

    __slots__ = ("received_count", "invalid_count", "misrouted_count")

    def __init__(self) -> None:
        self.received_count = 0
        self.invalid_count = 0
        self.misrouted_count = 0


class BehavioralRouterModel:
    """The router workload as a conforming FMI-style plugin."""

    def __init__(self) -> None:
        # Lifecycle flags, not simulation state: a restored plugin is
        # by definition initialized and live.
        self._initialized = False  # lint: disable=SNAP001
        self._terminated = False  # lint: disable=SNAP001
        self._pending: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Contract: lifecycle
    # ------------------------------------------------------------------
    def init(self, config: Optional[dict], seed: int) -> None:
        if self._initialized:
            raise FmiError("plugin already initialized")
        workload, own = read_router_plugin_config(config, seed, {
            "input_fifo_capacity": (INPUT_FIFO_CAPACITY, int, 0),
            "output_fifo_capacity": (OUTPUT_FIFO_CAPACITY, int, 0)})
        self.workload = workload
        self.irq_vector = own["irq_vector"]
        self.input_fifo_capacity = own["input_fifo_capacity"]
        self.output_fifo_capacity = own["output_fifo_capacity"]
        self.table = RoutingTable.uniform(
            workload.num_ports,
            addresses_per_port=256 // workload.num_ports)
        self.stats = WorkloadStats()
        self._dst_addresses = range(0, 256)
        self.producers = [
            _Producer(i, workload) for i in range(workload.num_ports)
        ]
        self.consumers = [_Consumer() for _ in range(workload.num_ports)]
        self.input_fifos: List[List[Packet]] = [
            [] for _ in range(workload.num_ports)]
        self.buffer: List[Packet] = []
        self.current: Optional[Packet] = None
        self.cycle = 0
        self.parked = False
        self.irq_high = False
        self.reg_status = 0
        self.reg_packet = b""
        self.reg_verdict = 0
        self.reg_stats = 0
        self._data_value: Any = None
        self._last_irq_events: List[List[int]] = []
        self._initialized = True

    def terminate(self) -> None:
        """Idempotent; state stays inspectable, stepping is refused."""
        self._terminated = True

    # ------------------------------------------------------------------
    # Contract: inputs / stepping / outputs
    # ------------------------------------------------------------------
    def set_inputs(self, values: dict) -> None:
        self._require_live()
        unknown = set(values) - {DATA_OP_KEY, DATA_ADDR_KEY, DATA_VALUE_KEY}
        if unknown:
            raise FmiError(f"unknown input keys: {sorted(unknown)}")
        self._pending = dict(values)

    def step(self, delta_ticks: int) -> None:
        self._require_live()
        if delta_ticks < 0:
            raise FmiError(f"cannot step {delta_ticks} ticks")
        self._last_irq_events = []
        pending, self._pending = self._pending, None
        if pending is not None:
            self._apply_data(pending)
        target = self.cycle + delta_ticks
        while self.cycle < target:
            if self.parked:
                upcoming = [p.next_cycle for p in self.producers
                            if p.next_cycle is not None]
                next_event = min(upcoming) if upcoming else None
                if next_event is None or next_event > target:
                    self.cycle = target
                    break
                arrived = self._producer_events(next_event, which="all")
                self.cycle = next_event
                if arrived:
                    # Woken mid-cycle: clocked again from the next edge.
                    self.parked = False
            else:
                cycle = self.cycle + 1
                self._producer_events(cycle, which="pre")
                self._edge(cycle)
                if self._producer_events(cycle, which="post") \
                        and self.parked:
                    # A post-edge arrival in the parking cycle wakes the
                    # router within the same delta cascade.
                    self.parked = False
                self.cycle = cycle

    def get_outputs(self) -> dict:
        self._require_init()
        return {
            "cycles": self.cycle,
            "irq_events": [list(event) for event in self._last_irq_events],
            "data_value": self._data_value,
            "done": all(p.done for p in self.producers),
            "stats": self.stats.snapshot(),
        }

    # ------------------------------------------------------------------
    # Contract: checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        self._require_init()
        return {
            "cycle": self.cycle,
            "parked": self.parked,
            "irq_high": self.irq_high,
            "current": (self.current.to_bytes()
                        if self.current is not None else None),
            "buffer": [p.to_bytes() for p in self.buffer],
            "input_fifos": [[p.to_bytes() for p in fifo]
                            for fifo in self.input_fifos],
            "reg_status": self.reg_status,
            "reg_packet": self.reg_packet,
            "reg_verdict": self.reg_verdict,
            "reg_stats": self.reg_stats,
            "producers": [
                {"sent": p.sent, "input_drops": p.input_drops,
                 "done": p.done, "next_cycle": p.next_cycle,
                 "pre_edge": p.pre_edge,
                 "rng": rng_state_snapshot(p.rng)}
                for p in self.producers
            ],
            "consumers": [
                {key: getattr(c, key) for key in _CONSUMER_KEYS}
                for c in self.consumers
            ],
            "stats": self.stats.snapshot(),
        }

    def restore(self, state: dict) -> None:
        self._require_init()
        for key in ("cycle", "parked", "irq_high", "current", "buffer",
                    "input_fifos", "reg_status", "reg_packet",
                    "reg_verdict", "reg_stats", "producers", "consumers",
                    "stats"):
            if key not in state:
                raise FmiError(f"plugin snapshot missing {key!r}")
        if len(state["producers"]) != len(self.producers) \
                or len(state["consumers"]) != len(self.consumers):
            raise FmiError("plugin snapshot shape mismatch")
        self.cycle = state["cycle"]
        self.parked = state["parked"]
        self.irq_high = state["irq_high"]
        raw = state["current"]
        self.current = Packet.from_bytes(raw) if raw is not None else None
        self.buffer = [Packet.from_bytes(p) for p in state["buffer"]]
        self.input_fifos = [[Packet.from_bytes(p) for p in fifo]
                            for fifo in state["input_fifos"]]
        self.reg_status = state["reg_status"]
        self.reg_packet = state["reg_packet"]
        self.reg_verdict = state["reg_verdict"]
        self.reg_stats = state["reg_stats"]
        for producer, sub in zip(self.producers, state["producers"]):
            for key in _PRODUCER_KEYS:
                if key not in sub:
                    raise FmiError(f"producer snapshot missing {key!r}")
            producer.sent = sub["sent"]
            producer.input_drops = sub["input_drops"]
            producer.done = sub["done"]
            producer.next_cycle = sub["next_cycle"]
            producer.pre_edge = sub["pre_edge"]
            rng_state_restore(producer.rng, sub["rng"])
        for consumer, sub in zip(self.consumers, state["consumers"]):
            for key in _CONSUMER_KEYS:
                if key not in sub:
                    raise FmiError(f"consumer snapshot missing {key!r}")
                setattr(consumer, key, sub[key])
        self.stats.restore(state["stats"])
        self._pending = None
        self._data_value = None
        self._last_irq_events = []

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_init(self) -> None:
        if not self._initialized:
            raise FmiError("plugin used before init()")

    def _require_live(self) -> None:
        self._require_init()
        if self._terminated:
            raise FmiError("plugin used after terminate()")

    def _producer_events(self, cycle: int, which: str) -> bool:
        """Fire every producer event scheduled for *cycle*; returns
        whether any packet actually entered an input FIFO."""
        arrived = False
        for producer in self.producers:
            if producer.next_cycle != cycle:
                continue
            if which != "all" and (which == "pre") != producer.pre_edge:
                continue
            arrived |= self._fire_producer(producer, cycle)
        return arrived

    def _fire_producer(self, producer: _Producer, cycle: int) -> bool:
        if producer.sent >= producer.count:
            # The generator thread resumes one interval after its last
            # packet only to observe the exhausted count and exit.
            producer.done = True
            producer.next_cycle = None
            return False
        rng = producer.rng
        pkt_id = (producer.index << 24) | producer.sent
        dst = rng.choice(self._dst_addresses)
        workload = self.workload
        payload = random_bytes(rng, workload.payload_size)
        packet = Packet.build(producer.index, dst, pkt_id, payload)
        corrupt = rng.random() < workload.corrupt_rate
        if corrupt:
            packet = packet.corrupted(rng.getrandbits(8))
        self.stats.record_generated(pkt_id, cycle, corrupt)
        fifo = self.input_fifos[producer.index]
        arrived = False
        if len(fifo) >= self.input_fifo_capacity:
            producer.input_drops += 1
            self.stats.dropped_overflow += 1
        else:
            fifo.append(packet)
            arrived = True
        producer.sent += 1
        if workload.burst_gap_cycles \
                and producer.sent % workload.burst_size == 0:
            delay = workload.burst_gap_cycles
        else:
            delay = workload.interval_cycles
        producer.next_cycle = cycle + delay
        producer.pre_edge = True
        return arrived

    def _edge(self, cycle: int) -> None:
        """One rising clock edge of the router's clocked method."""
        idle = True
        for fifo in self.input_fifos:
            if fifo:
                packet = fifo.pop(0)
                idle = False
                if len(self.buffer) >= self.workload.buffer_capacity:
                    self.stats.dropped_overflow += 1
                else:
                    self.buffer.append(packet)
        if self.irq_high:
            self.irq_high = False  # end of the one-cycle pulse
        elif self.current is None and self.buffer:
            self._load_next()
            self.irq_high = True
            self._last_irq_events.append([cycle, self.irq_vector])
            idle = False
        if idle and (self.current is not None or not self.buffer):
            self.parked = True

    def _load_next(self) -> None:
        self.current = self.buffer.pop(0)
        self.reg_packet = self.current.to_bytes()
        self._write_status()

    def _write_status(self) -> None:
        ready = 1 if self.current is not None else 0
        self.reg_status = ready | (len(self.buffer) << 8)

    def _apply_data(self, pending: Dict[str, Any]) -> None:
        op = pending.get(DATA_OP_KEY)
        if op is None:
            return
        address = pending.get(DATA_ADDR_KEY)
        if op == "read":
            if address == REG_STATUS:
                self._data_value = self.reg_status
            elif address == REG_PACKET:
                self._data_value = self.reg_packet
            elif address == REG_STATS:
                self._data_value = self.reg_stats
            else:
                raise FmiError(
                    f"read of unreadable address {address!r}")
        elif op == "write":
            if address != REG_VERDICT:
                raise FmiError(
                    f"write to unwritable address {address!r}")
            self._data_value = None
            self._apply_verdict(pending.get(DATA_VALUE_KEY))
        else:
            raise FmiError(f"bad data_op {op!r}")

    def _apply_verdict(self, value) -> None:
        self.reg_verdict = value
        packet = self.current
        if packet is None:
            return  # spurious verdict; nothing in the register file
        self.current = None
        self.stats.checked_by_sw += 1
        if value == VERDICT_OK:
            port = self.table.lookup(packet.dst)
            if port is None:
                self.stats.dropped_unroutable += 1
            elif self.output_fifo_capacity > 0:
                self.stats.forwarded += 1
                self.reg_stats = self.stats.forwarded
                self._deliver(port, packet)
            else:
                self.stats.dropped_overflow += 1
        else:
            self.stats.dropped_checksum += 1
        if self.buffer:
            self._load_next()  # chained load: no new IRQ pulse
        else:
            self._write_status()

    def _deliver(self, port: int, packet: Packet) -> None:
        # The netlist consumer drains the output FIFO in the same
        # settled delta cascade as the forwarding verdict, so delivery
        # is immediate and the FIFO never accumulates.
        consumer = self.consumers[port]
        consumer.received_count += 1
        valid = packet.is_valid()
        if not valid:
            consumer.invalid_count += 1
        if self.table.lookup(packet.dst) != port:
            consumer.misrouted_count += 1
        self.stats.record_delivery(packet.pkt_id, self.cycle, valid)
