"""The FMU-like plugin contract (duck protocol).

"FMI Meets SystemC" points the way: the timed co-simulation boundary
should not care what produces the hardware-side behaviour.  A *plugin*
is any object implementing seven methods::

    init(config: dict, seed: int) -> None
    set_inputs(values: dict) -> None
    step(delta_ticks: int) -> None
    get_outputs() -> dict
    snapshot() -> dict
    restore(state: dict) -> None
    terminate() -> None

Semantics (the conformance kit in :mod:`repro.fmi.conformance` is the
executable form of this paragraph):

* ``init`` is called exactly once before anything else; *config* is a
  plain-data dict and *seed* feeds every stochastic knob through
  :mod:`repro.determinism`.  For the router family the config is the
  :class:`~repro.router.testbench.RouterWorkload` codec's keys except
  ``seed``, plus the plugin-only keys ``irq_vector`` and
  ``clock_period_ps`` (:func:`repro.fmi.adapter.router_plugin_config`
  writes it, :func:`repro.fmi.adapter.read_router_plugin_config` reads
  it back).
* ``set_inputs`` latches input values; ``step(0)`` applies any pending
  transaction without advancing time.  The reserved keys
  ``data_op``/``data_addr``/``data_value`` carry one DATA-port
  transaction (``data_op`` is ``"read"`` or ``"write"``).
* ``step(n)`` advances the model by exactly *n* master clock ticks.
  Step additivity must hold: ``step(a); step(b)`` is bit-equivalent to
  ``step(a + b)`` when no inputs are applied in between.
* ``get_outputs`` is *pure*: calling it any number of times between
  steps returns identical values and perturbs nothing (the freeze
  invariant — the model may not advance while the master holds time).
  The returned dict carries at least ``cycles`` (total ticks stepped),
  ``irq_events`` (``[[master_cycle, vector], ...]`` raised during the
  *last* ``step`` call, in send order), ``data_value`` (result of the
  last applied read transaction, or None) and ``done`` (workload
  drained).  Models with workload statistics add a ``stats`` snapshot.
* ``snapshot``/``restore`` follow the Snapshotable protocol of
  :mod:`repro.replay.snapshot`: plain data only, bit-exact replay after
  restore, no aliasing of live state into the returned tree.
* ``terminate`` releases resources; it is idempotent, and any ``step``
  after it raises :class:`repro.errors.FmiError`.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import FmiError

#: The methods every plugin must implement.
PLUGIN_METHODS = ("init", "set_inputs", "step", "get_outputs",
                  "snapshot", "restore", "terminate")

#: Reserved ``set_inputs`` keys carrying one DATA-port transaction.
DATA_OP_KEY = "data_op"
DATA_ADDR_KEY = "data_addr"
DATA_VALUE_KEY = "data_value"


def missing_methods(plugin: Any) -> List[str]:
    """The contract methods *plugin* fails to provide (callable)."""
    return [name for name in PLUGIN_METHODS
            if not callable(getattr(plugin, name, None))]


def check_surface(plugin: Any) -> None:
    """Raise :class:`FmiError` unless *plugin* has the full surface."""
    missing = missing_methods(plugin)
    if missing:
        raise FmiError(
            f"{type(plugin).__name__} is not a conforming plugin: "
            f"missing {', '.join(missing)}"
        )


def plugin_read(plugin: Any, address: int) -> Optional[int]:
    """One DATA read through the plugin interface."""
    plugin.set_inputs({DATA_OP_KEY: "read", DATA_ADDR_KEY: address})
    plugin.step(0)
    return plugin.get_outputs().get("data_value")


def plugin_write(plugin: Any, address: int, value) -> None:
    """One DATA write through the plugin interface."""
    plugin.set_inputs({DATA_OP_KEY: "write", DATA_ADDR_KEY: address,
                       DATA_VALUE_KEY: value})
    plugin.step(0)
