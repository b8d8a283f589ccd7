"""An eCos-like real-time operating system on a virtual CPU.

Public surface::

    from repro.rtos import (
        RtosKernel, RtosConfig, Thread, Alarm,
        Semaphore, Mutex, Flag, Mailbox,
        Device, DeviceTable, immediate,
        CpuWork, Sleep, SleepUntil, YieldCpu, Suspend, ExitThread,
        SetPriority, GetTime,
        ISR_HANDLED, ISR_CALL_DSR, NORMAL, IDLE,
    )
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "alarm": ("Alarm", "AlarmQueue"),
    "config": ("RtosConfig",),
    "devices": ("Device", "DeviceTable", "immediate"),
    "interrupts": ("ISR_CALL_DSR", "ISR_HANDLED", "InterruptController"),
    "kernel": ("IDLE", "NORMAL", "RtosKernel"),
    "scheduler": ("MlqScheduler",),
    "sync": ("Flag", "Mailbox", "Mutex", "Semaphore", "Waitable"),
    "syscalls": (
        "CpuWork", "ExitThread", "GetTime", "Join", "SetPriority", "Sleep",
        "SleepUntil", "Suspend", "Syscall", "YieldCpu",
    ),
    "thread": ("Thread",),
})
