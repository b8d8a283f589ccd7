"""FMI-style plugin boundary for external simulators.

The timed co-simulation boundary should not care what produces the
hardware-side behaviour.  This package defines the FMU-like duck
protocol (:mod:`repro.fmi.protocol`), an adapter mounting any
conforming model into a cosim session (:mod:`repro.fmi.adapter`), two
reference plugins (:mod:`repro.fmi.behavioral`,
:mod:`repro.fmi.subproc`) plus a netlist mount
(:mod:`repro.fmi.netlist`), and the conformance test kit
(:mod:`repro.fmi.conformance`) that makes third-party plugins safe to
trust.  See docs/FMI.md.
"""

from repro.fmi.adapter import (
    FmuMasterAdapter,
    FmuRouterCosim,
    router_plugin_config,
)
from repro.fmi.protocol import (
    DATA_ADDR_KEY,
    DATA_OP_KEY,
    DATA_VALUE_KEY,
    PLUGIN_METHODS,
    check_surface,
    missing_methods,
    plugin_read,
    plugin_write,
)

__all__ = [
    "DATA_ADDR_KEY",
    "DATA_OP_KEY",
    "DATA_VALUE_KEY",
    "FmuMasterAdapter",
    "FmuRouterCosim",
    "PLUGIN_METHODS",
    "check_surface",
    "missing_methods",
    "plugin_read",
    "plugin_write",
    "router_plugin_config",
]
