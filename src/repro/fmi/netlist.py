"""The simkernel router netlist, mounted as a plugin.

Wraps the *existing* event-driven hardware — the router, producers
and consumers that :func:`~repro.router.testbench.build_router_netlist`
elaborates for every router run — behind the
:mod:`repro.fmi.protocol` contract, so the boundary is exercised by
every current scenario without reimplementing anything.  ``step``
advances the simkernel; DATA transactions go through the simulator's
external read/write ports; IRQ edges are observed off the router's
interrupt signal and surfaced as ``irq_events``.

Restore strategy: simkernel process generator frames cannot be
serialized or rewound (see :meth:`repro.simkernel.kernel.Simulator.
snapshot`), so — like :func:`repro.replay.checkpoint.restore_session`
— this plugin restores by *deterministic re-execution*: the snapshot
carries the init config, the seed and the full DATA transaction log;
``restore`` rebuilds the netlist from scratch, replays every logged
transaction at its recorded cycle, and verifies the rebuilt kernel
against the snapshotted one leaf-for-leaf.  That is what it takes for
an event-driven simulator to honour FMI004 bit-exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cosim.config import CosimConfig
from repro.errors import FmiError
from repro.fmi.adapter import read_router_plugin_config
from repro.fmi.protocol import DATA_ADDR_KEY, DATA_OP_KEY, DATA_VALUE_KEY
from repro.replay.snapshot import plain_copy, state_digest
from repro.router.stats import WorkloadStats
from repro.router.testbench import build_router_netlist


class NetlistRouterModel:
    """The event-driven router netlist as a conforming plugin."""

    def __init__(self) -> None:
        # Lifecycle flags, not simulation state: a restored plugin is
        # by definition initialized and live.
        self._initialized = False  # lint: disable=SNAP001
        self._terminated = False  # lint: disable=SNAP001
        self._pending: Optional[Dict[str, Any]] = None
        #: One stats object for the plugin's lifetime: every rebuild
        #: records into it, so a view taken at mount stays live.
        self.stats = WorkloadStats()

    # ------------------------------------------------------------------
    # Contract: lifecycle
    # ------------------------------------------------------------------
    def init(self, config: Optional[dict], seed: int) -> None:
        if self._initialized:
            raise FmiError("plugin already initialized")
        self._config = dict(config or {})
        self._seed = seed
        self._build()
        self._initialized = True

    def terminate(self) -> None:
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
        self._irq_events = []
        pending, self._pending = self._pending, None
        if pending is not None:
            self._oplog.append([self.clock.cycles, dict(pending)])
            self._apply_data(pending)
        if delta_ticks:
            self.sim.run_until(
                self.sim.now + delta_ticks * self.clock.period)

    def get_outputs(self) -> dict:
        self._require_init()
        return {
            "cycles": self.clock.cycles,
            "irq_events": [list(event) for event in self._irq_events],
            "data_value": self._data_value,
            "done": all(p.done for p in self.producers),
            "stats": self.stats.snapshot(),
        }

    # ------------------------------------------------------------------
    # Contract: checkpointing (by deterministic re-execution)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        self._require_init()
        return {
            "config": dict(self._config),
            "seed": self._seed,
            "cycles": self.clock.cycles,
            "oplog": plain_copy(self._oplog),
            "sim": self.sim.snapshot(),
            "stats": self.stats.snapshot(),
        }

    def restore(self, state: dict) -> None:
        self._require_init()
        for key in ("config", "seed", "cycles", "oplog", "sim", "stats"):
            if key not in state:
                raise FmiError(f"plugin snapshot missing {key!r}")
        self._config = dict(state["config"])
        self._seed = state["seed"]
        self._build()
        period = self.clock.period
        for cycle, op in state["oplog"]:
            if self.sim.now < cycle * period:
                self.sim.run_until(cycle * period)
            self._apply_data(op)
        if self.sim.now < state["cycles"] * period:
            self.sim.run_until(state["cycles"] * period)
        self._oplog = [[cycle, dict(op)]
                       for cycle, op in state["oplog"]]
        self.stats.restore(state["stats"])
        rebuilt = state_digest(self.sim.snapshot())
        recorded = state_digest(plain_copy(state["sim"]))
        if rebuilt != recorded:
            raise FmiError(
                "netlist re-execution diverged from the snapshotted "
                "kernel state (non-deterministic module?)")
        self._pending = None
        self._data_value = None
        self._irq_events = []

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Elaborate a fresh netlist from ``(config, seed)``, recording
        into the plugin's stats, cleared."""
        workload, own = read_router_plugin_config(self._config, self._seed)
        self._irq_vector = own["irq_vector"]
        self.stats.restore(WorkloadStats().snapshot())
        hw = build_router_netlist("fmu_netlist", workload, CosimConfig(
            clock_period_ps=own["clock_period_ps"]), self.stats)
        self.sim, self.clock, self.router = hw.sim, hw.clock, hw.router
        self.producers, self.consumers = hw.producers, hw.consumers
        self._irq_events: List[List[int]] = []

        def on_irq(sig, old, new) -> None:
            if new and not old:
                self._irq_events.append([self.clock.cycles,
                                         self._irq_vector])

        self.router.irq.observe(on_irq)
        self._data_value: Any = None
        self._oplog: List[List[Any]] = []

    def _require_init(self) -> None:
        if not self._initialized:
            raise FmiError("plugin used before init()")

    def _require_live(self) -> None:
        self._require_init()
        if self._terminated:
            raise FmiError("plugin used after terminate()")

    def _apply_data(self, pending: Dict[str, Any]) -> None:
        op = pending.get(DATA_OP_KEY)
        if op is None:
            return
        address = pending.get(DATA_ADDR_KEY)
        if op == "read":
            self._data_value = self.sim.external_read(address)
        elif op == "write":
            self._data_value = None
            self.sim.external_write(address, pending.get(DATA_VALUE_KEY))
        else:
            raise FmiError(f"bad data_op {op!r}")
