"""Mount a conforming plugin as the HW side of a cosim session.

:class:`FmuMasterAdapter` is a :class:`~repro.cosim.master.CosimMaster`
whose hardware is a plugin speaking the :mod:`repro.fmi.protocol`
contract.  The master owns the window protocol, DATA and interrupt
service and every counter; the adapter only hides the plugin contract
behind the master's hardware operations.  The router case study mounts
a plugin with ``build_router_cosim(plugin=...)`` on any transport: same
window protocol, same ``CosimMetrics``, same recording/fault wrapping,
and — for the reference plugins — bit-identical traces and digests.
A plugin mount combines with every session feature; an adaptive
window's early stop is composed from the contract's step and
snapshot/restore (:meth:`FmuMasterAdapter.run_cycles_reactive`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.cosim.config import CosimConfig
from repro.cosim.master import CosimMaster
from repro.errors import FmiError, WorkloadError
from repro.fmi.protocol import (
    DATA_ADDR_KEY,
    DATA_OP_KEY,
    DATA_VALUE_KEY,
    check_surface,
)
from repro.replay.snapshot import is_snapshotable
from repro.router.testbench import RouterCosim, RouterWorkload, read_keys


class _PluginClock:
    """Master-cycle counter standing in for the simkernel clock."""

    def __init__(self) -> None:
        self.cycles = 0


class FmuMasterAdapter(CosimMaster):
    """A master whose hardware is a plugin (it has no simulator:
    ``sim`` is None)."""

    HW_KEYS = ("cycles", "plugin")

    def __init__(self, plugin: Any, endpoint, config: CosimConfig) -> None:
        check_surface(plugin)
        self.plugin = plugin
        super().__init__(None, _PluginClock(), endpoint, config)

    # ------------------------------------------------------------------
    # Hardware operations
    # ------------------------------------------------------------------
    def _hw_snapshot(self) -> dict:
        return {"cycles": self.clock.cycles,
                "plugin": self.plugin.snapshot()}

    def _hw_restore(self, state: dict) -> None:
        self.clock.cycles = state["cycles"]
        self.plugin.restore(state["plugin"])

    def hw_read(self, address: int):
        return self._transact({DATA_OP_KEY: "read", DATA_ADDR_KEY: address})

    def hw_write(self, address: int, value) -> None:
        self._transact({DATA_OP_KEY: "write", DATA_ADDR_KEY: address,
                        DATA_VALUE_KEY: value})

    def _transact(self, values: dict):
        """Apply one DATA transaction without advancing plugin time."""
        self.plugin.set_inputs(values)
        self.plugin.step(0)
        outputs = self.plugin.get_outputs()
        if outputs.get("cycles") != self.clock.cycles:
            raise FmiError(
                f"plugin advanced during step(0): at "
                f"{outputs.get('cycles')}, master holds "
                f"{self.clock.cycles}")
        self._forward_irqs(outputs)
        return outputs.get("data_value")

    def run_cycles(self, cycles: int) -> None:
        self.plugin.step(cycles)
        self._stepped(cycles, self.plugin.get_outputs())

    def run_cycles_reactive(self, max_ticks: int) -> int:
        """Step at most *max_ticks*, stopping at the first interrupt
        edge, through the plugin contract: step the whole budget from a
        snapshot and, when an edge comes before its end, restore and
        step again only up to that edge (at least one tick).  Step
        additivity and bit-exact restore make that step the first one's
        prefix.  Only the final step's interrupts are forwarded."""
        start = self.clock.cycles
        state = self.plugin.snapshot()
        self.plugin.step(max_ticks)
        outputs = self.plugin.get_outputs()
        events = outputs.get("irq_events")
        ticks = max_ticks
        if events:
            ticks = min(max(events[0][0] - start, 1), max_ticks)
        if ticks < max_ticks:
            self.plugin.restore(state)
            self.plugin.step(ticks)
            outputs = self.plugin.get_outputs()
        self._stepped(ticks, outputs)
        return ticks

    def _stepped(self, cycles: int, outputs: dict) -> None:
        """Account for a step of *cycles* that produced *outputs*:
        check the plugin's clock, advance the master's and forward the
        step's interrupts."""
        expected = self.clock.cycles + cycles
        if outputs.get("cycles") != expected:
            raise FmiError(
                f"plugin clock drift: stepped to {outputs.get('cycles')}"
                f", grant requires {expected}")
        self.clock.cycles = expected
        self._forward_irqs(outputs)

    def run_cycles_leaping(self, cycles: int) -> int:
        """A plugin has no clock leap: plain stepping, no edge leapt."""
        self.run_cycles(cycles)
        return 0

    def _activity(self) -> dict:
        return {}

    def _forward_irqs(self, outputs: dict) -> None:
        for cycle, vector in outputs.get("irq_events") or []:
            self.send_interrupt(vector, cycle)


class _RemoteStats:
    """Read-only view of an out-of-process plugin's workload stats.

    Caches the last observed snapshot so counters stay readable after
    the plugin is terminated (the subprocess is gone by then)."""

    _TERMINAL = ("generated", "forwarded", "dropped_overflow",
                 "dropped_checksum", "dropped_unroutable",
                 "checked_by_sw")

    def __init__(self, plugin: Any) -> None:
        self._plugin = plugin
        self._cached: dict = {}

    def refresh(self) -> dict:
        stats = self._plugin.get_outputs().get("stats")
        if stats is not None:
            self._cached = dict(stats)
        return self._cached

    def snapshot(self) -> dict:
        try:
            return dict(self.refresh())
        except FmiError:
            return dict(self._cached)

    def __getattr__(self, name):
        if name in self._TERMINAL:
            return self.snapshot().get(name, 0)
        raise AttributeError(name)


class FmuRouterCosim(RouterCosim):
    """A :class:`RouterCosim` whose hardware lives behind the plugin
    boundary; drain detection goes through ``get_outputs()``, and
    closing it terminates the plugin."""

    def drained(self) -> bool:
        outputs = self.master.plugin.get_outputs()
        if not outputs.get("done"):
            return False
        stats = outputs.get("stats") or {}
        terminal = (stats.get("forwarded", 0)
                    + stats.get("dropped_overflow", 0)
                    + stats.get("dropped_checksum", 0)
                    + stats.get("dropped_unroutable", 0))
        return terminal >= stats.get("generated", 0)

    def close(self) -> None:
        try:
            super().close()
        finally:
            if isinstance(self.stats, _RemoteStats):
                try:
                    self.stats.refresh()
                except FmiError:
                    pass
            self.master.plugin.terminate()


def router_plugin_config(config: CosimConfig,
                         workload: RouterWorkload) -> dict:
    """The plain-data ``init`` config for router-family plugins: the
    workload codec's keys except ``seed`` (``init``'s own argument),
    plus the plugin-only keys of :data:`ROUTER_PLUGIN_KEYS`."""
    doc = workload.to_dict()
    del doc["seed"]
    doc.update(irq_vector=config.remote_vector,
               clock_period_ps=config.clock_period_ps)
    return doc


#: The plugin-only keys :func:`router_plugin_config` writes, as
#: ``(default, type, minimum)``.
ROUTER_PLUGIN_KEYS = {
    "irq_vector": (CosimConfig.remote_vector, int, 0),
    "clock_period_ps": (CosimConfig.clock_period_ps, int, 1)}


def read_router_plugin_config(
        config: Optional[dict], seed: Any, own: Optional[dict] = None
) -> Tuple[RouterWorkload, Dict[str, Any]]:
    """A router plugin's side of :func:`router_plugin_config`: the
    workload the codec reads from *config* with ``init``'s *seed*, and
    the plugin-only keys (:data:`ROUTER_PLUGIN_KEYS` plus the plugin's
    *own*, same form) with their defaults.  Any other key, a wrong type
    or an out-of-range value raises :class:`FmiError`."""
    try:
        workload, rest = RouterWorkload.split({**(config or {}),
                                               "seed": seed})
        return workload, read_keys(rest, {**ROUTER_PLUGIN_KEYS,
                                          **(own or {})}, "plugin keys")
    except WorkloadError as exc:
        raise FmiError(f"plugin config: {exc}") from None


def mount_router_plugin(
        plugin: Any, endpoint, config: CosimConfig,
        workload: RouterWorkload) -> Tuple[FmuMasterAdapter, Any]:
    """Initialize *plugin* for the router case study and mount it as
    the master on *endpoint*; returns the master and a view of the
    plugin's workload stats (its own ``stats`` when snapshotable, else a
    read-through of ``get_outputs()``)."""
    check_surface(plugin)
    plugin.init(router_plugin_config(config, workload), workload.seed)
    master = FmuMasterAdapter(plugin, endpoint, config)
    stats = getattr(plugin, "stats", None)
    if not is_snapshotable(stats):
        stats = _RemoteStats(plugin)
    return master, stats
