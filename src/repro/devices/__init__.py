"""Reusable virtual peripherals.

Each peripheral comes as a pair:

* a hardware model (:class:`~repro.simkernel.module.Module` with
  :class:`~repro.simkernel.driver_ext.DriverIn` /
  :class:`~repro.simkernel.driver_ext.DriverOut` registers and an
  interrupt line) to instantiate in the master simulation, and
* an RTOS device driver to install on the board.

These are the "hardware extensions to existing systems" of the paper's
introduction: candidate FPGA devices prototyped virtually before any
RTL exists.  The register map of every peripheral is relocatable — pass
``base`` to place it in the driver address space.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "accelerator": ("AcceleratorDriver", "ChecksumAccelerator"),
    "gpio": ("GpioBank", "GpioDriver"),
    "uart": ("UartDevice", "UartDriver"),
})
