"""The SystemC-side co-simulation master.

Wraps a :class:`~repro.simkernel.driver_ext.DriverSimulator` and a
master link endpoint, implementing the simulator half of the virtual
tick protocol:

* every ``T_sync`` clock cycles it emits a clock grant and, once its
  own window is simulated, waits for the board's time report ("it waits
  an answer from the board");
* rising edges of the model's interrupt signal are forwarded on the INT
  port, stamped with the clock cycle at which they occurred;
* DATA requests from the board are serviced against the settled model
  state at any time — during the window and while waiting for the
  report — exactly as ``driver_simulate`` checks the DATA port on every
  loop iteration.

The master owns that protocol for every kind of hardware: grants and
their fan-out to every board, report checks, the window FSM, DATA
service and its counters, interrupt sends and their counters, the
``master.simulate`` span and the snapshot counters.  What the hardware
itself does is a handful of operations — :meth:`CosimMaster.run_cycles`,
:meth:`~CosimMaster.run_cycles_leaping`, :meth:`~CosimMaster.hw_read`,
:meth:`~CosimMaster.hw_write`, :meth:`~CosimMaster._activity` and the
hardware half of the snapshot — which this class implements on the
simkernel netlist and :class:`repro.fmi.adapter.FmuMasterAdapter` on a
plugin.
"""

from __future__ import annotations

import time
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
from repro.transport.messages import (
    ClockGrant,
    DataRead,
    DataWrite,
    Interrupt,
    TimeReport,
)

#: Initial CLOCK-port poll slice while waiting for a time report.
REPORT_POLL_S = 0.0005
#: The poll slice doubles while the link stays quiet (no DATA traffic,
#: no report) up to this cap, and snaps back to ``REPORT_POLL_S`` at
#: the first sign of traffic.
REPORT_POLL_MAX_S = 0.01
#: Threaded windows poll the DATA port every cycle only while requests
#: are arriving; on quiet cycles the stride between polls doubles up to
#: this many cycles (1 would poll every cycle, as the paper's
#: driver_simulate loop does).
DATA_POLL_STRIDE_MAX = 16


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
        #: (used by reactive/adaptive sessions).  Transient within
        #: one call (reset in a finally), never spans a boundary.
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
        self.sim.bind_interrupt_vector(vector, signal)
        if vector == self.config.remote_vector:
            # Keep the kernel-level single-signal view working too.
            self.sim.bind_interrupt(signal)

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
        each request, installed on in-process links and called by
        :meth:`_serve_pending_data` on threaded ones."""
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

    def _serve_pending_data(self, endpoints=None) -> int:
        """Drain queued DATA requests (threaded sessions); returns count.

        Requests are drained from the transport in batches and served in
        arrival order (a write must be visible to the read behind it).
        Multi-board sessions pass every board's endpoint; the default
        serves the master's primary endpoint.
        """
        served = 0
        for endpoint in endpoints or (self.endpoint,):
            while True:
                batch = endpoint.poll_data_batch()
                if not batch:
                    break
                served += len(batch)
                for request in batch:
                    if isinstance(request, DataRead):
                        endpoint.send_reply(
                            request.seq,
                            self.serve_data("read", request.address))
                    elif isinstance(request, DataWrite):
                        self.serve_data("write", request.address,
                                        request.value)
                    else:  # pragma: no cover - endpoint type-checks
                        raise ProtocolError(f"bad DATA request {request!r}")
        return served

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

    def _send_grant(self, ticks: int, endpoints) -> ClockGrant:
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
        return grant

    def run_window_inproc(self, ticks: int, *endpoints) -> None:
        """Deterministic sessions: grant, then simulate the window.

        The caller (the session) afterwards steps the boards and hands
        their time reports to :meth:`finish_window_inproc`.
        """
        self._send_grant(ticks, endpoints)
        self.simulate(ticks)
        self.fsm.step("window_simulated")

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

    def run_window_inproc_reactive(self, max_ticks: int, *endpoints) -> int:
        """Simulate up to *max_ticks* cycles, stopping at the first
        interrupt edge, then grant exactly the cycles simulated.

        In-process sessions simulate the master's half of a window
        before the board consumes it, so the grant can legally be sized
        *after* the fact.  Ending the window at the first sign of
        device activity lets the board react within one cycle of the
        event while quiet stretches still cost a single exchange — the
        mechanism behind :class:`repro.cosim.adaptive`.
        """
        start = self.clock.cycles
        period = self.clock.period
        span = self._begin_simulate(max_ticks=max_ticks, reactive=1)
        try:
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
        finally:
            self._end_simulate(span)
        # Reactive windows simulate first and size the grant after the
        # fact, so both phase changes land at the send.
        self._send_grant(ticks, endpoints)
        self.fsm.step("window_simulated")
        return ticks

    def run_window_threaded(self, ticks: int, *endpoints) -> None:
        """Threaded sessions: grant, simulate cycle by cycle while
        servicing every board's DATA port, then block for every time
        report (one endpoint per board; default: the primary)."""
        endpoints = endpoints or (self.endpoint,)
        grant = self._send_grant(ticks, endpoints)
        obs = self.obs
        span = self._begin_simulate(ticks=ticks)
        try:
            # Poll the DATA port every cycle only while a board is
            # actually talking; on quiet cycles the stride between
            # polls doubles (up to DATA_POLL_STRIDE_MAX) so long silent
            # stretches cost one Python iteration per stride rather
            # than one per cycle.  Wall-clock only — simulated timing
            # of the window is identical either way.
            stride = 1
            remaining = ticks
            while remaining > 0:
                if self._serve_pending_data(endpoints):
                    stride = 1
                elif stride < DATA_POLL_STRIDE_MAX:
                    stride = min(stride * 2, DATA_POLL_STRIDE_MAX)
                step = min(stride, remaining)
                self.run_cycles(step)
                remaining -= step
        finally:
            self._end_simulate(span)
        self.fsm.step("window_simulated")
        wait_token = None
        if obs.enabled:
            wait_token = obs.begin("transport", "report_wait",
                                   sim=self.clock.cycles, seq=grant.seq)
        polls = 0
        exchanges = self.protocol.exchanges
        timeout_s = self.config.report_timeout_s
        poll_s = REPORT_POLL_S
        # The deadline bounds *silence*, not total window duration: a
        # slow board that keeps issuing DATA requests is alive, so each
        # sign of progress pushes the deadline out again.
        deadline = time.monotonic() + timeout_s
        pending = list(endpoints)
        try:
            while pending:
                if self._serve_pending_data(endpoints):
                    deadline = time.monotonic() + timeout_s
                    poll_s = REPORT_POLL_S
                polls += 1
                try:
                    report = pending[0].recv_report(timeout=poll_s)
                except TransportError as exc:
                    # A TCP endpoint only raises once its reconnect /
                    # liveness budget is spent; that is a protocol
                    # death.
                    raise ProtocolError(
                        f"link failed while waiting for report of grant "
                        f"seq {grant.seq}: {exc}"
                    ) from exc
                if report is not None:
                    self.protocol.check_report(report, self.clock.cycles)
                    pending.pop(0)
                    deadline = time.monotonic() + timeout_s
                    poll_s = REPORT_POLL_S
                    continue
                poll_s = min(poll_s * 2, REPORT_POLL_MAX_S)
                if time.monotonic() > deadline:
                    raise ProtocolError(
                        f"no time report for grant seq {grant.seq} "
                        f"within {timeout_s}s of the last sign of life"
                    )
        finally:
            if wait_token is not None:
                obs.end(wait_token, sim=self.clock.cycles, polls=polls)
        # One logical exchange per window, however many boards answered.
        self.protocol.exchanges = exchanges + 1
        self.fsm.step("recv_report")


def build_driver_sim(name: str = "cosim_hw",
                     clock_period_ps: Optional[int] = None,
                     config: Optional[CosimConfig] = None):
    """Convenience: a fresh DriverSimulator plus its tick-rate clock."""
    cfg = config or CosimConfig()
    period = clock_period_ps or cfg.clock_period_ps
    sim = DriverSimulator(name)
    clock = Clock(sim, f"{name}.clk", period=period, start_time=period)
    return sim, clock
