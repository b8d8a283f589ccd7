"""The kernel's inline clock edges against the generic per-edge path.

A lone, free-running clock edge is applied by the run loop itself,
together with the quiet edges after it (``Simulator._clock_edges``),
instead of by firing the tick and running the clock's toggle process.
Clearing the tick's back-reference to its clock
(``clock._tick._clock = None``) sends every edge down the generic
path, which is the reference here: both runs of the same generated
netlist must agree on the snapshot tree, the counters, the activation
order and the observer calls at every ``run_until`` boundary.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeltaOverflowError
from repro.simkernel import Clock, Event, Module, Signal, Simulator, ns

clock_specs = st.tuples(
    st.integers(min_value=2, max_value=8),          # period (ns)
    st.sampled_from([0.25, 0.5, 0.75]),             # duty cycle
    st.integers(min_value=0, max_value=6),          # start time (ns)
)


def _netlists(steps, quiet: bool = False):
    """Generated netlists run to ``run_until`` boundaries *steps* ns
    apart.  *quiet* ones have long quiet stretches: one clock, every
    clocked method parks, and nothing is leapt."""
    park_after = st.integers(1, 12)
    if not quiet:
        park_after = st.one_of(st.none(), park_after)
    return st.fixed_dictionaries({
        "clocks": st.lists(clock_specs, min_size=1,
                           max_size=1 if quiet else 2),
        # (clock, edge, park after this many activations or never)
        "methods": st.lists(
            st.tuples(st.integers(0, 1),
                      st.sampled_from(["pos", "neg", "changed"]),
                      park_after),
            max_size=3),
        # (clock, posedges to wait for dynamically, then one timed wait)
        "edge_thread": st.one_of(
            st.none(), st.tuples(st.integers(0, 1), st.integers(1, 8),
                                 st.integers(1, 9))),
        "timed_waits": st.lists(st.integers(1, 12), max_size=6),
        # (clock, action, act on every k-th call)
        "observer": st.one_of(
            st.none(),
            st.tuples(st.integers(0, 1),
                      st.sampled_from(["log", "stop", "notify",
                                       "notify_delta", "notify_timed",
                                       "write"]),
                      st.integers(1, 9))),
        "boundaries": st.lists(steps, min_size=1, max_size=5),
        "snapshot_at": st.one_of(st.none(), st.integers(0, 4)),
        "leaping": st.just(False) if quiet else st.booleans(),
    })


netlists = _netlists(st.integers(1, 40))


class _Design:
    """One elaborated netlist built from a generated spec."""

    def __init__(self, spec: dict, generic: bool) -> None:
        self.sim = sim = Simulator("diff")
        self.log = []
        self.observed = []
        self.clocks = [
            Clock(sim, f"clk{i}", period=ns(period), duty=duty,
                  start_time=ns(start))
            for i, (period, duty, start) in enumerate(spec["clocks"])
        ]
        if generic:
            for clock in self.clocks:
                clock._tick._clock = None
        log = self.log

        def clock_at(index):
            return self.clocks[index % len(self.clocks)]

        outs = []
        for i, (index, edge, park_after) in enumerate(spec["methods"]):
            out = Signal(sim, f"out{i}", init=0)
            outs.append(out)
            _Stage(sim, f"m{i}", clock_at(index).signal, edge, park_after,
                   out, log)
        if outs:
            _Follower(sim, "follower", outs, log)
        if spec["edge_thread"] is not None:
            index, edges, delay = spec["edge_thread"]
            _EdgeWaiter(sim, "edge_waiter", clock_at(index), edges,
                        ns(delay), log)
        if spec["timed_waits"]:
            _Sleeper(sim, "sleeper", [ns(d) for d in spec["timed_waits"]],
                     log)
        if spec["observer"] is not None:
            index, action, every = spec["observer"]
            self._observe(clock_at(index), action, every)
        sim.elaborate()

    def _observe(self, clock, action, every) -> None:
        sim = self.sim
        wake = Event(sim, "wake")
        aux = Signal(sim, "aux", init=0)
        _Reactor(sim, "reactor", wake, aux, self.log)
        observed = self.observed

        def observer(signal, old, new):
            observed.append((sim.now, signal.name, old, new))
            if len(observed) % every:
                return
            if action == "stop":
                sim.stop()
            elif action == "notify":
                wake.notify()
            elif action == "notify_delta":
                wake.notify_delta()
            elif action == "notify_timed":
                # Lands on this clock's next edge, already re-armed:
                # same-time order then follows the heap push order.
                wake.notify(clock._tick._pending_time - sim.now)
            elif action == "write":
                aux.write(len(observed))

        clock.signal.observe(observer)

    def run_until(self, t_end: int, leaping: bool) -> None:
        if leaping:
            self.sim.run_until_leaping(t_end, clocks=self.clocks)
        else:
            self.sim.run_until(t_end)

    def state(self) -> dict:
        sim = self.sim
        return {
            "snapshot": sim.snapshot(),
            "now": sim.now,
            "delta_count": sim.delta_count,
            "process_runs": sim.process_runs,
            "cycles": [clock.cycles for clock in self.clocks],
            "activations": [(proc.full_name, proc.activations)
                            for proc in sim.processes],
            "log": list(self.log),
            "observed": list(self.observed),
        }


class _Stage(Module):
    def __init__(self, sim, name, clock_signal, edge, park_after, out, log):
        super().__init__(sim, name)
        self.out, self.log, self.park_after = out, log, park_after
        self.count = 0
        if edge == "changed":
            self.proc = self.method(self._tick, sensitive=[clock_signal],
                                    dont_initialize=True)
        else:
            self.proc = self.method(self._tick, sensitive=[clock_signal],
                                    edge=edge, dont_initialize=True)

    def _tick(self):
        self.count += 1
        self.log.append((self.name, self.sim.now))
        self.out.write(self.count)
        if self.park_after is not None and self.count >= self.park_after:
            self.proc.set_static_sensitivity([])


class _Follower(Module):
    def __init__(self, sim, name, signals, log):
        super().__init__(sim, name)
        self.log = log
        self.method(self._tick,
                    sensitive=[signal.changed for signal in signals],
                    dont_initialize=True)

    def _tick(self):
        self.log.append((self.name, self.sim.now))


class _EdgeWaiter(Module):
    def __init__(self, sim, name, clock, edges, delay, log):
        super().__init__(sim, name)
        self.clock, self.edges, self.delay, self.log = (clock, edges,
                                                        delay, log)
        self.thread(self._run)

    def _run(self):
        for _ in range(self.edges):
            yield self.clock.posedge
            self.log.append((self.name, self.sim.now))
        yield self.delay
        self.log.append((self.name, self.sim.now))


class _Sleeper(Module):
    def __init__(self, sim, name, delays, log):
        super().__init__(sim, name)
        self.delays, self.log = delays, log
        self.thread(self._run)

    def _run(self):
        for delay in self.delays:
            yield delay
            self.log.append((self.name, self.sim.now))


class _Reactor(Module):
    def __init__(self, sim, name, wake, aux, log):
        super().__init__(sim, name)
        self.wake, self.log = wake, log
        self.thread(self._run)
        self.method(self._on_aux, sensitive=[aux.changed],
                    dont_initialize=True)

    def _run(self):
        while True:
            yield self.wake
            self.log.append((self.name, self.sim.now))

    def _on_aux(self):
        self.log.append(("aux", self.sim.now))


def _run_both(spec: dict):
    """Yield the (inline, generic) states at every boundary."""
    inline, generic = _Design(spec, False), _Design(spec, True)
    designs = (inline, generic)
    snaps = None
    t_end = 0
    for index, step in enumerate(spec["boundaries"]):
        t_end += ns(step)
        for design in designs:
            design.run_until(t_end, spec["leaping"])
        yield inline.state(), generic.state()
        if index == spec["snapshot_at"]:
            snaps = [design.sim.snapshot() for design in designs]
    if snaps is not None:
        # Rewind to the snapshot and run on from there.
        for design, snap in zip(designs, snaps):
            design.sim.restore(snap)
        t_end = max(snap["now"] for snap in snaps) + ns(30)
        for design in designs:
            design.run_until(t_end, spec["leaping"])
        yield inline.state(), generic.state()


class TestInlineEdgeMatchesGenericPath:
    @given(netlists)
    @settings(max_examples=150, deadline=None)
    def test_states_agree_at_every_boundary(self, spec):
        for inline, generic in _run_both(spec):
            assert inline == generic

    @pytest.mark.slow
    @given(_netlists(st.integers(40, 400), quiet=True))
    @settings(max_examples=300, deadline=None)
    def test_states_agree_across_long_quiet_stretches(self, spec):
        # Boundaries 40-400 ns apart: runs of dozens of edges.
        for inline, generic in _run_both(spec):
            assert inline == generic


def _record_runs(sim, sink):
    """Pass *sink* the edge times of every run of edges the kernel
    applies inline (``Simulator._clock_edges``): a run starts at
    *when*, and the toggle activations it adds say how many edges it
    applied."""
    original = sim._clock_edges

    def recorded(clock, when, until):
        level = clock.signal._current
        before = clock._toggle_proc.activations
        original(clock, when, until)
        edges = []
        for _ in range(clock._toggle_proc.activations - before):
            edges.append(when)
            level = not level
            when += clock._gaps[level]
        sink(edges)

    sim._clock_edges = recorded


def _count_inline_edges(sim):
    calls = []
    _record_runs(sim, calls.extend)
    return calls


class TestSeam:
    def test_lone_edges_take_the_inline_path(self):
        sim = Simulator()
        clock = Clock(sim, "clk", period=ns(10), start_time=ns(10))
        calls = _count_inline_edges(sim)
        sim.run_until(ns(100))
        # Edges every 5 ns from 10 ns to 100 ns; rising on the tens.
        assert len(calls) == 19 and clock.cycles == 10
        assert clock._toggle_proc.activations == 19

    def test_cleared_back_reference_forces_the_generic_path(self):
        sim = Simulator()
        clock = Clock(sim, "clk", period=ns(10), start_time=ns(10))
        clock._tick._clock = None
        calls = _count_inline_edges(sim)
        sim.run_until(ns(100))
        assert calls == [] and clock.cycles == 10

    def test_coincident_notification_takes_the_generic_path(self):
        sim = Simulator()
        clock = Clock(sim, "clk", period=ns(10), start_time=ns(10))
        other = Event(sim, "other")
        calls = _count_inline_edges(sim)
        sim.elaborate()
        other.notify(ns(30))
        sim.run_until(ns(40))
        assert ns(30) not in calls and len(calls) == 6

    def test_dynamic_waiter_on_the_tick_takes_the_generic_path(self):
        sim = Simulator()
        clock = Clock(sim, "clk", period=ns(10), start_time=ns(10))
        woken = []

        class Waiter(Module):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.thread(self._run)

            def _run(self):
                yield clock._tick
                woken.append(sim.now)

        Waiter(sim, "waiter")
        calls = _count_inline_edges(sim)
        sim.run_until(ns(30))
        assert woken == [ns(10)]
        assert ns(10) not in calls and len(calls) == 4


class TestEdgeRuns:
    """Where a run of inline edges starts and stops."""

    @staticmethod
    def _clocked(generic=False):
        sim = Simulator()
        clock = Clock(sim, "clk", period=ns(10), start_time=ns(10))
        if generic:
            clock._tick._clock = None
        return sim, clock

    def test_run_stops_one_edge_before_a_coincident_notification(self):
        sim, clock = self._clocked()
        other = Event(sim, "other")
        runs = []
        _record_runs(sim, runs.append)
        sim.elaborate()
        other.notify(ns(30))
        sim.run_until(ns(50))
        # The 30 ns edge shares its timestamp with *other*: generic.
        assert runs == [[ns(10), ns(15), ns(20), ns(25)],
                        [ns(35), ns(40), ns(45), ns(50)]]
        assert clock.cycles == 5 and clock._toggle_proc.activations == 9

    def test_run_until_an_edge_time_applies_that_edge_only(self):
        sim, clock = self._clocked()
        runs = []
        _record_runs(sim, runs.append)
        sim.run_until(ns(35))
        assert runs == [[ns(10), ns(15), ns(20), ns(25), ns(30), ns(35)]]
        assert sim.now == ns(35) and clock.cycles == 3
        assert not clock.read()  # the 35 ns falling edge committed
        assert clock._tick._pending_time == ns(40)
        assert sim.delta_count == 6 and sim.process_runs == 6
        assert clock.signal.change_count == 6
        sim.run_until(ns(40))
        assert runs[-1] == [ns(40)] and clock.cycles == 4

    @pytest.mark.parametrize("generic", [False, True])
    def test_dynamic_posedge_waiter_wakes_on_the_next_rising_edge(
            self, generic):
        sim, clock = self._clocked(generic)
        woken = []

        class Waiter(Module):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.thread(self._run)

            def _run(self):
                yield ns(23)
                for _ in range(2):
                    yield clock.posedge
                    woken.append((sim.now, clock.cycles))

        Waiter(sim, "waiter")
        runs = []
        _record_runs(sim, runs.append)
        sim.run_until(ns(100))
        assert woken == [(ns(30), 3), (ns(40), 4)]
        assert clock.cycles == 10
        if not generic:
            # Each wake-up ends its run; the rest of the edges run on.
            assert runs == [[ns(10), ns(15), ns(20)], [ns(25), ns(30)],
                            [ns(35), ns(40)],
                            [ns(45) + i * ns(5) for i in range(12)]]

    def test_observer_stop_ends_the_run_at_that_edge(self):
        sim, clock = self._clocked()
        seen = []

        def observer(signal, old, new):
            seen.append(sim.now)
            if len(seen) == 3:
                sim.stop()

        clock.signal.observe(observer)
        runs = []
        _record_runs(sim, runs.append)
        sim.run_until(ns(100))
        assert seen == [ns(10), ns(15), ns(20)]
        assert runs == [[ns(10)], [ns(15)], [ns(20)]]
        assert sim.now == ns(20) and clock.cycles == 2
        assert clock._tick._pending_time == ns(25)

    def test_restore_mid_stretch_resumes_bit_identically(self):
        def design():
            sim, clock = self._clocked()
            woken = []

            class Sleeper(Module):
                def __init__(self, sim, name):
                    super().__init__(sim, name)
                    self.thread(self._run)

                def _run(self):
                    while True:
                        yield ns(170)
                        woken.append((sim.now, clock.cycles))

            Sleeper(sim, "sleeper")
            sim.settle()  # the sleeper's first wait
            return sim, clock, woken

        def state(sim, clock, woken):
            return (sim.snapshot(), sim.now, sim.delta_count,
                    sim.process_runs, clock.cycles, woken)

        sim, clock, woken = design()
        sim.run_until(ns(73))  # between the 70 and 75 ns edges
        snap = sim.snapshot()
        sim.run_until(ns(400))
        straight = state(sim, clock, woken)
        resumed = design()
        resumed[0].restore(snap)
        resumed[0].run_until(ns(400))
        assert state(*resumed) == straight
        # The sleeper's entries predate the tick's, so at a shared
        # timestamp it runs in the toggle's delta, before the edge.
        assert straight[-1] == [(ns(170), 16), (ns(340), 33)]


def _overflows(max_deltas: int, generic: bool) -> bool:
    """Whether a posedge followed by a four-stage signal chain (six
    deltas at the edge's timestamp) overflows *max_deltas*."""
    sim = Simulator(max_deltas=max_deltas)
    clock = Clock(sim, "clk", period=ns(10), start_time=ns(10))
    if generic:
        clock._tick._clock = None
    chain = [Signal(sim, f"s{i}", init=0) for i in range(5)]

    class Stage(Module):
        def __init__(self, sim, name, src, dst):
            super().__init__(sim, name)
            self.src, self.dst = src, dst
            self.method(self._tick, sensitive=[src.changed],
                        dont_initialize=True)

        def _tick(self):
            self.dst.write(self.src.read())

    class Head(Module):
        def __init__(self, sim, name):
            super().__init__(sim, name)
            self.method(self._tick, sensitive=[clock.signal], edge="pos",
                        dont_initialize=True)

        def _tick(self):
            chain[0].write(clock.cycles)

    Head(sim, "head")
    for i in range(4):
        Stage(sim, f"stage{i}", chain[i], chain[i + 1])
    try:
        sim.run_until(ns(10))
    except DeltaOverflowError:
        return True
    return False


@pytest.mark.parametrize("max_deltas", [1, 5, 6, 7])
def test_overflow_bound_counts_the_edge_delta(max_deltas):
    assert _overflows(max_deltas, False) == _overflows(max_deltas, True)
    assert _overflows(max_deltas, False) == (max_deltas < 6)
