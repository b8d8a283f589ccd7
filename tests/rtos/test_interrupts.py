"""Tests for the ISR/DSR interrupt controller."""

import pytest

from repro.errors import RtosError
from repro.rtos import (
    CpuWork,
    ISR_CALL_DSR,
    ISR_HANDLED,
    RtosConfig,
    RtosKernel,
    Semaphore,
)


@pytest.fixture
def kernel():
    return RtosKernel(RtosConfig(cycles_per_hw_tick=1000,
                                 isr_entry_cycles=15, dsr_cycles=25))


class TestAttachAndRaise:
    def test_isr_runs_on_raise(self, kernel):
        calls = []
        kernel.interrupts.attach(3, isr=lambda v: calls.append(v) or ISR_HANDLED)
        kernel.raise_interrupt(3)
        kernel.run_ticks(1)
        assert calls == [3]

    def test_dsr_runs_after_isr(self, kernel):
        order = []
        kernel.interrupts.attach(
            1,
            isr=lambda v: order.append("isr") or ISR_CALL_DSR,
            dsr=lambda v, c: order.append(("dsr", c)),
        )
        kernel.raise_interrupt(1)
        kernel.run_ticks(1)
        assert order == ["isr", ("dsr", 1)]

    def test_dsr_coalescing(self, kernel):
        counts = []
        kernel.interrupts.attach(1, dsr=lambda v, c: counts.append(c))
        kernel.raise_interrupt(1)
        kernel.raise_interrupt(1)
        kernel.raise_interrupt(1)
        kernel.run_ticks(1)
        assert counts == [3]

    def test_isr_handled_suppresses_dsr(self, kernel):
        dsr_calls = []
        kernel.interrupts.attach(1, isr=lambda v: ISR_HANDLED,
                                 dsr=lambda v, c: dsr_calls.append(c))
        kernel.raise_interrupt(1)
        kernel.run_ticks(1)
        assert dsr_calls == []

    def test_masked_vector_ignored(self, kernel):
        calls = []
        kernel.interrupts.attach(1, isr=lambda v: calls.append(v) or 0)
        kernel.interrupts.mask(1)
        kernel.raise_interrupt(1)
        kernel.run_ticks(1)
        assert calls == []
        kernel.interrupts.unmask(1)
        kernel.raise_interrupt(1)
        kernel.run_ticks(1)
        assert calls == [1]

    def test_unattached_vector_raises(self, kernel):
        kernel.raise_interrupt(9)
        with pytest.raises(RtosError, match="no handler"):
            kernel.run_ticks(1)

    def test_duplicate_attach_rejected(self, kernel):
        kernel.interrupts.attach(1)
        with pytest.raises(RtosError):
            kernel.interrupts.attach(1)

    def test_interrupt_costs_charged(self, kernel):
        kernel.interrupts.attach(1, dsr=lambda v, c: None)
        kernel.raise_interrupt(1)
        kernel.run_ticks(1)
        assert kernel.kernel_cycles >= 15 + 25


class TestScheduledInterrupts:
    def test_delivered_at_exact_cycle(self, kernel):
        seen = []
        kernel.interrupts.attach(
            2, isr=lambda v: seen.append(kernel.cycles) or ISR_HANDLED
        )
        kernel.interrupts.schedule_at_cycle(2500, 2)
        kernel.run_ticks(5)
        assert len(seen) == 1
        assert seen[0] >= 2500
        # Delivered promptly: well before the next tick boundary's end.
        assert seen[0] <= 2500 + 100

    def test_interrupt_preempts_running_thread(self, kernel):
        sem = Semaphore(kernel, "s")
        log = []
        kernel.interrupts.attach(2, dsr=lambda v, c: sem.post())

        def background():
            while True:
                yield CpuWork(10_000)

        def handler():
            yield sem.wait()
            log.append(kernel.cycles)

        kernel.create_thread("bg", background, priority=20)
        kernel.create_thread("h", handler, priority=1)
        kernel.interrupts.schedule_at_cycle(3500, 2)
        kernel.run_ticks(10)
        assert log and 3500 <= log[0] <= 4600

    def test_ordering_of_multiple_scheduled(self, kernel):
        seen = []
        kernel.interrupts.attach(
            1, isr=lambda v: seen.append(("a", kernel.cycles)) or 0
        )
        kernel.interrupts.attach(
            2, isr=lambda v: seen.append(("b", kernel.cycles)) or 0
        )
        kernel.interrupts.schedule_at_cycle(4000, 2)
        kernel.interrupts.schedule_at_cycle(1500, 1)
        kernel.run_ticks(6)
        assert [tag for tag, _ in seen] == ["a", "b"]
