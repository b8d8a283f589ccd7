"""The SystemC-side co-simulation master.

Wraps a :class:`~repro.simkernel.driver_ext.DriverSimulator` and a
master link endpoint, implementing the simulator half of the virtual
tick protocol.  Every window, on every link, runs in one order:

* the master simulates the window first, forwarding each rising edge
  of the model's interrupt signal on the INT port, stamped with the
  clock cycle at which it occurred (an adaptive window stops at the
  first edge);
* it then grants the board exactly the cycles it simulated;
* and serves DATA requests against the settled model state until every
  board's time report is in ("it waits an answer from the board").
  :meth:`CosimMaster.serve_data` is every link's ``data_server``: an
  in-process link calls it from the board's register access, a TCP
  link from inside its report wait (``recv_report``), so a threaded
  window waits with one ``recv_report`` per board.

The master owns that protocol for every kind of hardware: grants and
their fan-out to every board, report checks, the window FSM, DATA
service and its counters, interrupt sends and their counters, the
``master.simulate`` span and the snapshot counters.  What the hardware
itself does is a handful of operations — :meth:`CosimMaster.run_cycles`,
:meth:`~CosimMaster.run_cycles_leaping`,
:meth:`~CosimMaster.run_cycles_reactive`, :meth:`~CosimMaster.hw_read`,
:meth:`~CosimMaster.hw_write`, :meth:`~CosimMaster._activity` and the
hardware half of the snapshot — which this class implements on the
simkernel netlist and :class:`repro.fmi.adapter.FmuMasterAdapter` on a
plugin.
"""

from __future__ import annotations

from typing import Optional

from repro.cosim.config import CosimConfig
from repro.cosim.protocol import (
    MASTER_INITIAL,
    MASTER_WINDOW_TABLE,
    MasterProtocol,
    WindowFsm,
)
from repro.errors import ProtocolError, SimulationError, TransportError
from repro.obs.recorder import NULL_RECORDER
from repro.simkernel.clock import Clock
from repro.simkernel.driver_ext import DriverSimulator
from repro.simkernel.signals import Signal
from repro.transport.channel import MasterEndpoint
from repro.transport.messages import Interrupt, TimeReport


class CosimMaster:
    """Drives the hardware simulation as the master of co-simulated time."""

    #: Span recorder; replaced per-session when tracing is enabled.
    obs = NULL_RECORDER

    def __init__(
        self,
        sim: DriverSimulator,
        clock: Clock,
        endpoint: MasterEndpoint,
        config: CosimConfig,
        interrupt_signal: Optional[Signal] = None,
    ) -> None:
        self.sim = sim
        self.clock = clock
        self.endpoint = endpoint
        self.config = config
        self.protocol = MasterProtocol()
        #: Window-phase tracker; every phase change is validated against
        #: the declarative MASTER_WINDOW_TABLE (see repro.cosim.protocol).
        self.fsm = WindowFsm("master", MASTER_WINDOW_TABLE, MASTER_INITIAL)
        self.interrupts_sent = 0
        self.data_reads_served = 0
        self.data_writes_served = 0
        # Structural binding registry (vector -> endpoint of the board
        # owning the device), not simulated state; rebuilt by
        # construction, never by restore.
        self._irq_endpoints = {}
        #: When set, an interrupt edge stops the running window early
        #: (reactive windows, used by adaptive sessions).  Transient
        #: within one call (reset in a finally), never spans a boundary.
        self._stop_on_activity = False  # lint: disable=SNAP001
        if interrupt_signal is not None:
            self.bind_interrupt(config.remote_vector, interrupt_signal)

    # ------------------------------------------------------------------
    # Interrupt forwarding
    # ------------------------------------------------------------------
    def bind_interrupt(self, vector: int, signal: Signal,
                       endpoint: Optional[MasterEndpoint] = None) -> None:
        """Forward rising edges of *signal* as INT packets for *vector*.

        Multiple devices may each bind their own request line; the
        board dispatches on the vector carried by the packet.  In
        multi-board sessions pass the *endpoint* of the board that owns
        the device (defaults to the master's primary endpoint).
        """
        if vector in self._irq_endpoints:
            raise ProtocolError(f"interrupt vector {vector} already bound")
        self._irq_endpoints[vector] = endpoint or self.endpoint

        def on_commit(sig, old, new, vector=vector):
            if new and not old:
                self.send_interrupt(vector, self.clock.cycles)
                if self._stop_on_activity:
                    self.sim.stop()

        signal.observe(on_commit)

    def send_interrupt(self, vector: int, cycle: int) -> None:
        """Count one interrupt edge raised at master *cycle* and send it
        on the endpoint of the board bound to *vector* (the primary
        endpoint for an unbound vector)."""
        self.interrupts_sent += 1
        if self.obs.enabled:
            self.obs.event("master", "irq.send", sim=cycle, vector=vector)
        self._irq_endpoints.get(vector, self.endpoint).send_interrupt(
            Interrupt(vector=vector, master_cycle=cycle))

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    #: Keys of the hardware half of :meth:`snapshot`.
    HW_KEYS = ("sim",)

    def snapshot(self) -> dict:
        """Protocol state, service counters, and the hardware model."""
        return {
            "protocol": self.protocol.snapshot(),
            "interrupts_sent": self.interrupts_sent,
            "data_reads_served": self.data_reads_served,
            "data_writes_served": self.data_writes_served,
            **self._hw_snapshot(),
        }

    def restore(self, state: dict) -> None:
        for key in ("protocol", "interrupts_sent", "data_reads_served",
                    "data_writes_served") + self.HW_KEYS:
            if key not in state:
                raise ProtocolError(f"master snapshot missing {key!r}")
        self.protocol.restore(state["protocol"])
        # Restores happen at window boundaries, where the master sits in
        # the FSM's initial state; the phase is not serialized.
        self.fsm.reset()
        self.interrupts_sent = state["interrupts_sent"]
        self.data_reads_served = state["data_reads_served"]
        self.data_writes_served = state["data_writes_served"]
        self._hw_restore(state)

    def _hw_snapshot(self) -> dict:
        """Hardware operation: the hardware half of :meth:`snapshot`."""
        return {"sim": self.sim.snapshot()}

    def _hw_restore(self, state: dict) -> None:
        """Hardware operation: apply :meth:`_hw_snapshot`'s keys."""
        self.sim.restore(state["sim"])

    # ------------------------------------------------------------------
    # DATA servicing
    # ------------------------------------------------------------------
    def serve_data(self, op: str, address: int, value=None):
        """Serve one DATA request: the one path that counts and traces
        each request, installed as every link's ``data_server``."""
        if op == "read":
            self.data_reads_served += 1
            if self.obs.enabled:
                self.obs.event("master", "data.read",
                               sim=self.clock.cycles, address=address)
            return self.hw_read(address)
        if op == "write":
            self.data_writes_served += 1
            if self.obs.enabled:
                self.obs.event("master", "data.write",
                               sim=self.clock.cycles, address=address)
            self.hw_write(address, value)
            return None
        raise SimulationError(f"bad DATA operation {op!r}")

    def hw_read(self, address: int):
        """Hardware operation: read a mapped register."""
        return self.sim.external_read(address)

    def hw_write(self, address: int, value) -> None:
        """Hardware operation: write a mapped register."""
        self.sim.external_write(address, value)

    # ------------------------------------------------------------------
    # Window execution
    # ------------------------------------------------------------------
    def run_cycles(self, cycles: int) -> None:
        """Hardware operation: advance the hardware by *cycles* clock
        cycles."""
        self.sim.run_until(self.sim.now + cycles * self.clock.period)

    def run_cycles_leaping(self, cycles: int) -> int:
        """Hardware operation: :meth:`run_cycles`, analytically skipping
        stretches where the tick-rate clock is the only live activity
        (see :meth:`~repro.simkernel.kernel.Simulator.run_until_leaping`).
        Returns the number of clock edges applied analytically.  Used
        by speculation's catch-up, where whole windows are often pure
        clock ticking."""
        return self.sim.run_until_leaping(
            self.sim.now + cycles * self.clock.period,
            clocks=(self.clock,),
        )

    def run_cycles_reactive(self, max_ticks: int) -> int:
        """Hardware operation: advance the hardware at most *max_ticks*
        cycles, stopping at the first interrupt edge; returns the
        cycles run (at least one)."""
        start = self.clock.cycles
        period = self.clock.period
        self._stop_on_activity = True
        try:
            self.sim.run_until(self.sim.now + max_ticks * period)
        finally:
            self._stop_on_activity = False
        ticks = self.clock.cycles - start
        if ticks == 0:
            # An event fired in the settle phase before any clock
            # edge; the minimum legal grant is one tick.
            self.sim.run_until(self.sim.now + period)
            ticks = self.clock.cycles - start
        return ticks

    def _activity(self) -> dict:
        """Hardware operation: the activity counters whose growth a
        ``master.simulate`` span reports."""
        return {"deltas": self.sim.delta_count,
                "process_runs": self.sim.process_runs}

    def _begin_simulate(self, **attrs):
        """Open a ``master.simulate`` span (None when tracing is off)."""
        if not self.obs.enabled:
            return None
        token = self.obs.begin("master", "simulate", sim=self.clock.cycles,
                               **attrs)
        return token, self._activity()

    def _end_simulate(self, span, **attrs) -> None:
        """Close *span* with the hardware activity it covered."""
        if span is None:
            return
        token, before = span
        after = self._activity()
        self.obs.end(token, sim=self.clock.cycles,
                     **{name: after[name] - count
                        for name, count in before.items()},
                     **attrs)

    def simulate(self, ticks: int, leap: bool = False) -> int:
        """The master's half of one window: advance the hardware *ticks*
        cycles under a ``master.simulate`` span when tracing is on.
        With *leap* (speculation's catch-up) the clock leap of
        :meth:`run_cycles_leaping` is used; returns the edges leapt."""
        if not leap:
            span = self._begin_simulate(ticks=ticks)
            try:
                self.run_cycles(ticks)
            finally:
                self._end_simulate(span)
            return 0
        span = self._begin_simulate(ticks=ticks, catchup=1)
        leapt = 0
        try:
            leapt = self.run_cycles_leaping(ticks)
        finally:
            self._end_simulate(span, leapt=leapt)
        return leapt

    def _simulate_reactive(self, max_ticks: int) -> int:
        """:meth:`run_cycles_reactive` under a ``master.simulate``
        span; returns the cycles simulated."""
        span = self._begin_simulate(max_ticks=max_ticks, reactive=1)
        try:
            return self.run_cycles_reactive(max_ticks)
        finally:
            self._end_simulate(span)

    def _send_grant(self, ticks: int, endpoints) -> None:
        """Book and send one window's grant.  Every board's endpoint
        receives it (default: the primary endpoint), under a single
        send_grant phase change however many boards there are."""
        self.fsm.step("send_grant")
        grant = self.protocol.make_grant(ticks)
        if self.obs.enabled:
            self.obs.event("transport", "grant.send",
                           sim=self.clock.cycles, seq=grant.seq,
                           ticks=ticks)
        for endpoint in endpoints or (self.endpoint,):
            endpoint.send_grant(grant)

    def run_window_inproc(self, ticks: int, *endpoints,
                          reactive: bool = False) -> int:
        """The master's half of a window, on every link (named for the
        in-process order, which every link runs): simulate
        *ticks* cycles, then grant every board exactly the cycles
        simulated, so each interrupt of the window precedes its grant.
        A *reactive* window (adaptive sessions) stops at the first
        interrupt edge.  Returns the ticks granted; an in-process
        session then serves the boards and calls
        :meth:`finish_window_inproc`."""
        if reactive:
            ticks = self._simulate_reactive(ticks)
        else:
            self.simulate(ticks)
        self._send_grant(ticks, endpoints)
        return ticks

    def finish_window_inproc(self, *reports: TimeReport) -> None:
        """Check every board's time report: one logical exchange per
        window, however many boards answered."""
        exchanges = self.protocol.exchanges
        for report in reports:
            if self.obs.enabled:
                self.obs.event("transport", "report.recv",
                               sim=self.clock.cycles, seq=report.seq,
                               board_ticks=report.board_ticks)
            self.protocol.check_report(report, self.clock.cycles)
        self.protocol.exchanges = exchanges + 1
        self.fsm.step("recv_report")

    def run_window_threaded(self, ticks: int, *endpoints,
                            reactive: bool = False, boards=()) -> int:
        """A window over threaded (TCP) links: the same
        :meth:`run_window_inproc`, then wait for every board's time
        report (one endpoint per board; default: the primary) while
        each link serves its board's DATA, then
        :meth:`finish_window_inproc`.  *boards* are the session's board
        slots behind *endpoints*: a link failure on a board whose slot
        holds an error (a board thread that died and closed its end)
        is reported as that board stopping.  Returns the ticks
        granted."""
        endpoints = endpoints or (self.endpoint,)
        seq = self.protocol.seq + 1
        waiting = False
        try:
            ticks = self.run_window_inproc(ticks, *endpoints,
                                           reactive=reactive)
            waiting = True
            reports = self._await_reports(endpoints)
        except TransportError as exc:
            failure = exc
        else:
            self.finish_window_inproc(*reports)
            return ticks
        # Raised outside the handler, so that a dead board's own error
        # is the context of the run's (see CosimSession._serving).
        dead = next((slot for slot in boards if slot.error is not None),
                    None)
        if dead is not None:
            raise ProtocolError(
                f"board {dead.name!r} stopped serving before its time "
                f"report for grant seq {seq}")
        if not waiting:
            raise failure
        # A TCP endpoint raises when its CLOCK or DATA connection
        # fails; that is a protocol death.
        raise ProtocolError(
            f"link failed while waiting for report of grant seq {seq}: "
            f"{failure}") from failure

    def _await_reports(self, endpoints) -> list:
        """Each endpoint's time report, in endpoint order: one
        ``recv_report`` per endpoint, which serves the board's DATA
        until the report is in."""
        obs = self.obs
        wait_token = None
        if obs.enabled:
            wait_token = obs.begin("transport", "report_wait",
                                   sim=self.clock.cycles,
                                   seq=self.protocol.seq)
        timeout_s = self.config.report_timeout_s
        reports = []
        try:
            for endpoint in endpoints:
                report = endpoint.recv_report(timeout=timeout_s)
                if report is None:
                    raise ProtocolError(
                        f"no time report for grant seq {self.protocol.seq} "
                        f"within {timeout_s}s of the last sign of life"
                    )
                reports.append(report)
            return reports
        finally:
            if wait_token is not None:
                obs.end(wait_token, sim=self.clock.cycles)


def build_driver_sim(name: str = "cosim_hw",
                     clock_period_ps: Optional[int] = None,
                     config: Optional[CosimConfig] = None):
    """Convenience: a fresh DriverSimulator plus its tick-rate clock."""
    cfg = config or CosimConfig()
    period = clock_period_ps or cfg.clock_period_ps
    sim = DriverSimulator(name)
    clock = Clock(sim, f"{name}.clk", period=period, start_time=period)
    return sim, clock
