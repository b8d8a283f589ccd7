"""Every key of a checkpoint tree is required on restore.

Trees of checkpoint schema 3 carry every key their components write;
nothing fills in a missing one.  Dropping any key that older trees
could lack (access counters, priority-inheritance state, idle mode,
parking, ISS accounting, link counters) must raise the restoring
component's own typed error, never a ``KeyError`` and never a silent
default; so must dropping any plain counter of the RTOS kernel.
"""

import pytest

from repro.board.memory import Memory, MemoryError_
from repro.cosim.master import build_driver_sim
from repro.errors import IssError, RtosError, SimulationError, TransportError
from repro.iss import IssCpu, assemble
from repro.router import Router, RoutingTable, WorkloadStats
from repro.rtos import Mutex, RtosConfig, RtosKernel, Sleep
from repro.simkernel.kernel import Simulator
from repro.simkernel.signals import Signal
from repro.transport.channel import LinkStats


def _memory():
    memory = Memory(64)
    return memory, memory.snapshot, memory.restore


def _simkernel():
    sim = Simulator("t")
    Signal(sim, "s", init=False)
    sim.elaborate()
    sim.run_until(0)
    return sim, sim.snapshot, sim.restore


def _rtos():
    kernel = RtosKernel(RtosConfig(cycles_per_hw_tick=1000))
    mutex = Mutex(kernel, "m")

    def worker():
        while True:
            yield mutex.lock()
            yield Sleep(1)
            mutex.unlock()
            yield Sleep(1)

    thread = kernel.create_thread("w", worker, priority=10)
    kernel.run_ticks(4)
    return kernel, mutex, thread


def _kernel():
    kernel, _mutex, _thread = _rtos()
    return kernel, kernel.snapshot, kernel.restore


def _thread():
    _kernel, _mutex, thread = _rtos()
    return thread, thread.snapshot, thread.restore


def _scheduler():
    kernel, _mutex, _thread = _rtos()
    scheduler = kernel.scheduler
    threads = {t.name: t for t in kernel.threads}
    return (scheduler, scheduler.snapshot,
            lambda state: scheduler.restore(state, threads))


def _mutex():
    _kernel, mutex, _thread = _rtos()
    return mutex, mutex.snapshot, mutex.restore


def _cpu():
    cpu = IssCpu(assemble("ldi r1, 7\nhalt\n"), Memory(256))
    cpu.run()
    return cpu, cpu.snapshot, cpu.restore


def _router():
    sim, clock = build_driver_sim("required_keys")
    router = Router(sim, "router", clock, RoutingTable.uniform(4, 64),
                    WorkloadStats(), buffer_capacity=4)
    sim.elaborate()
    sim.settle()
    return router, router.snapshot, router.restore


def _link():
    stats = LinkStats()
    return stats, stats.snapshot, stats.restore


#: component -> (builder, typed error, keys older trees could lack).
COMPONENTS = {
    "memory": (_memory, MemoryError_, ("reads", "writes")),
    "simkernel": (_simkernel, SimulationError,
                  ("delta_count", "process_runs")),
    "thread": (_thread, RtosError,
               ("base_priority", "priority", "cycles_consumed",
                "dispatch_count", "syscall_count")),
    "kernel": (_kernel, RtosError,
               ("hw_ticks", "next_tick_at", "hw_tick_phase", "state",
                "state_switches", "idle_cycles", "kernel_cycles",
                "context_switches")),
    "scheduler": (_scheduler, RtosError, ("idle_mode",)),
    "mutex": (_mutex, RtosError, ("boosts",)),
    "cpu": (_cpu, IssError,
            ("instructions_retired", "cycles", "op_histogram")),
    "router": (_router, ValueError, ("parked",)),
    "link": (_link, TransportError, LinkStats.FIELDS),
}

CASES = [(component, key)
         for component, (_build, _error, keys) in COMPONENTS.items()
         for key in keys]


@pytest.mark.parametrize("component,key", CASES,
                         ids=[f"{c}-{k}" for c, k in CASES])
def test_missing_key_raises_typed_error(component, key):
    build, error, _keys = COMPONENTS[component]
    _obj, snapshot, restore = build()
    state = snapshot()
    restore(dict(state))  # the whole tree restores
    del state[key]
    with pytest.raises(error, match=f"missing.*{key}"):
        restore(state)
