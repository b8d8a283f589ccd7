"""Differential tests of the idle fast-forward under an ``irq_pump``.

Threaded windows poll the INT port through ``RtosKernel.irq_pump`` once
per hardware tick.  The idle fast-forward batches quiescent ticks but
must keep that polling exact: the reference below is the same kernel
with ``_fast_forward_idle`` disabled on the instance, which runs every
tick through the per-tick loop.  Both must see the same pump calls at
the same cycles, deliver every vector at the same cycle, and end with
the same tick and cycle accounting.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtos import (
    CpuWork,
    ISR_CALL_DSR,
    RtosConfig,
    RtosKernel,
    Semaphore,
    Sleep,
)


class ScriptedPump:
    """Returns the scripted vectors at chosen call indices and records
    the kernel cycle count at every call."""

    def __init__(self, kernel, script):
        self.kernel = kernel
        self.script = script
        self.seen = []

    def __call__(self):
        index = len(self.seen)
        self.seen.append(self.kernel.cycles)
        return list(self.script.get(index, ()))


def run_board(script, windows, fast_forward=True):
    """A board kernel with a DSR-woken worker, a periodic sleeper and a
    scheduled interrupt, run for *windows* tick grants."""
    kernel = RtosKernel(RtosConfig(cycles_per_hw_tick=100,
                                   hw_ticks_per_sw_tick=2,
                                   timer_isr_cycles=7,
                                   isr_entry_cycles=11, dsr_cycles=13))
    if not fast_forward:
        kernel._fast_forward_idle = lambda limit: False
    delivered = []
    work = Semaphore(kernel, "work")

    def isr(vector):
        delivered.append((vector, kernel.cycles))
        return ISR_CALL_DSR

    kernel.interrupts.attach(1, isr=isr, dsr=lambda v, count: work.post())
    kernel.interrupts.attach(2, isr=isr)

    def worker():
        while True:
            yield work.wait()
            yield CpuWork(250)

    def sleeper():
        while True:
            yield Sleep(9)
            yield CpuWork(30)

    kernel.create_thread("worker", worker, priority=3)
    kernel.create_thread("sleeper", sleeper, priority=5)
    kernel.interrupts.schedule_at_cycle(4321, 2)
    pump = ScriptedPump(kernel, script)
    kernel.irq_pump = pump
    for ticks in windows:
        kernel.run_ticks(ticks)
    return {
        "pump_cycles": pump.seen,
        "delivered": delivered,
        "cycles": kernel.cycles,
        "idle_cycles": kernel.idle_cycles,
        "kernel_cycles": kernel.kernel_cycles,
        "hw_ticks": kernel.hw_ticks,
        "sw_ticks": kernel.sw_ticks,
    }


scripts = st.dictionaries(
    st.integers(min_value=0, max_value=400),
    st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3),
    max_size=12,
)
grants = st.lists(st.integers(min_value=1, max_value=40),
                  min_size=1, max_size=8)


class TestPumpedFastForward:
    def test_matches_per_tick_loop_on_a_fixed_script(self):
        script = {0: [1], 3: [1], 4: [2, 1], 57: [1], 58: [1], 190: [1]}
        windows = [5, 30, 1, 17, 60, 3]
        fast = run_board(script, windows)
        exact = run_board(script, windows, fast_forward=False)
        assert fast == exact
        # One poll per hardware tick, and every vector landed: seven
        # scripted ones and the scheduled one.
        assert len(fast["pump_cycles"]) >= fast["hw_ticks"]
        assert len(fast["delivered"]) == 8

    def test_fast_forward_takes_the_idle_ticks(self):
        kernel = RtosKernel(RtosConfig(cycles_per_hw_tick=100))
        batches = []
        original = kernel._fast_forward_idle

        def counted(limit):
            skipped = original(limit)
            batches.append(skipped)
            return skipped

        kernel._fast_forward_idle = counted
        kernel.irq_pump = ScriptedPump(kernel, {})
        kernel.run_ticks(50)
        assert kernel.hw_ticks == 50
        # The idle ticks went through one batch, polled once each.
        assert batches.count(True) == 1
        assert len(kernel.irq_pump.seen) == 50

    @given(scripts, grants)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_tick_loop(self, script, windows):
        assert run_board(script, windows) == run_board(
            script, windows, fast_forward=False)
