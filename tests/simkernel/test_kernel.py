"""Tests for the simulation kernel's scheduling algorithm."""

import pytest

from repro.errors import DeltaOverflowError, SimulationError
from repro.simkernel import Clock, Event, Module, Signal, Simulator, ns


class TestRunControl:
    def test_run_until_advances_time(self):
        sim = Simulator()
        sim.run_until(ns(100))
        assert sim.now == ns(100)

    def test_run_until_past_raises(self):
        sim = Simulator()
        sim.run_until(ns(10))
        with pytest.raises(SimulationError):
            sim.run_until(ns(5))

    def test_run_duration_accumulates(self):
        sim = Simulator()
        sim.run(ns(10))
        sim.run(ns(10))
        assert sim.now == ns(20)

    def test_run_without_duration_stops_when_quiescent(self):
        sim = Simulator()
        event = Event(sim, "e")
        log = []

        class T(Module):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.thread(self._run)

            def _run(self):
                yield ns(7)
                log.append(sim.now)

        T(sim, "t")
        event.notify(ns(3))
        sim.run()
        assert log == [ns(7)]
        assert sim.now == ns(7)

    def test_stop_interrupts_run(self):
        sim = Simulator()

        class T(Module):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.thread(self._run)

            def _run(self):
                while True:
                    yield ns(1)
                    if sim.now >= ns(5):
                        sim.stop()

        T(sim, "t")
        sim.run(ns(100))
        assert sim.now == ns(5)

    def test_pending_activity(self):
        sim = Simulator()
        event = Event(sim, "e")
        assert not sim.pending_activity
        event.notify(ns(5))
        assert sim.pending_activity

    def test_cancelled_notification_is_not_pending_activity(self):
        # Cancellation is lazy: the heap keeps the stale entry.
        sim = Simulator()
        event = Event(sim, "e")
        event.notify(ns(5))
        event.cancel()
        assert not sim.pending_activity
        assert sim.time_of_next_activity() is None

    def test_time_of_next_activity(self):
        sim = Simulator()
        event = Event(sim, "e")
        assert sim.time_of_next_activity() is None
        event.notify(ns(5))
        assert sim.time_of_next_activity() == ns(5)


class TestDeltaCycles:
    def test_combinational_chain_settles_in_zero_time(self):
        sim = Simulator()
        a = Signal(sim, "a", init=0)
        b = Signal(sim, "b", init=0)
        c = Signal(sim, "c", init=0)

        class Stage(Module):
            def __init__(self, sim, name, src, dst):
                super().__init__(sim, name)
                self.src, self.dst = src, dst
                self.method(self._f, sensitive=[src.changed],
                            dont_initialize=True)

            def _f(self):
                self.dst.write(self.src.read() + 1)

        Stage(sim, "s1", a, b)
        Stage(sim, "s2", b, c)
        sim.elaborate()
        a.write(10)
        deltas = sim.settle()
        assert c.read() == 12
        assert deltas >= 2
        assert sim.now == 0

    def test_combinational_loop_detected(self):
        sim = Simulator(max_deltas=100)
        a = Signal(sim, "a", init=0)

        class Osc(Module):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.method(self._f, sensitive=[a.changed],
                            dont_initialize=True)

            def _f(self):
                a.write(a.read() + 1)  # oscillates forever

        Osc(sim, "osc")
        sim.elaborate()
        a.write(1)
        with pytest.raises(DeltaOverflowError):
            sim.settle()

    def test_max_deltas_must_allow_one_delta(self):
        with pytest.raises(ValueError, match="max_deltas"):
            Simulator(max_deltas=0)

    def test_method_initialization_runs_once_at_start(self):
        sim = Simulator()
        runs = []

        class M(Module):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.method(lambda: runs.append(1), sensitive=[])

        M(sim, "m")
        sim.run(ns(1))
        assert runs == [1]

    def test_dont_initialize_suppresses_initial_run(self):
        sim = Simulator()
        runs = []
        sig = Signal(sim, "s", init=0)

        class M(Module):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.method(lambda: runs.append(1),
                            sensitive=[sig.changed], dont_initialize=True)

        M(sim, "m")
        sim.run(ns(1))
        assert runs == []


class TestDeterminism:
    def _run_once(self):
        sim = Simulator()
        clock = Clock(sim, "clk", period=ns(10))
        trace = []

        class Worker(Module):
            def __init__(self, sim, name, tag):
                super().__init__(sim, name)
                self.tag = tag
                self.thread(self._run)

            def _run(self):
                while True:
                    yield clock.posedge
                    trace.append((self.tag, sim.now))

        for tag in "abc":
            Worker(sim, f"w{tag}", tag)
        sim.run(ns(55))
        return trace

    def test_identical_runs_produce_identical_traces(self):
        assert self._run_once() == self._run_once()

    def test_statistics_collected(self):
        sim = Simulator()
        Clock(sim, "clk", period=ns(10))
        sim.run(ns(100))
        assert sim.delta_count > 0
        assert sim.process_runs > 0
