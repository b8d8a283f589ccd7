"""A SystemC-like discrete-event simulation kernel.

Public surface::

    from repro.simkernel import (
        Simulator, Module, Signal, In, Out, Event, Clock,
        AllOf, Timeout, SimFifo, SimMutex, SimSemaphore,
        BitVector, VcdTracer,
        DriverIn, DriverOut, DriverSimulator, driver_process,
        ns, us, ms, ps, sec, format_time,
    )
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bitvec": ("BitVector",),
    "clock": ("Clock",),
    "driver_ext": (
        "DriverIn", "DriverOut", "DriverSimulator", "driver_process",
    ),
    "events": ("Event",),
    "kernel": ("Simulator",),
    "module": ("Module",),
    "ports": ("In", "Out", "Port"),
    "primitives": ("SimFifo", "SimMutex", "SimSemaphore"),
    "processes": ("AllOf", "Process", "Timeout"),
    "signals": ("Signal",),
    "simtime": (
        "MS", "NS", "PS", "SEC", "US", "format_time", "ms", "ns", "ps", "sec",
        "us",
    ),
    "trace": ("VcdTracer", "trace_to_string"),
})
