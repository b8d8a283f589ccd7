"""Co-simulation sessions: the one window loop.

A session runs the paper's ``driver_simulate`` loop: simulate the
window, grant it, wait for the board's time report.
:meth:`CosimSession.run` is that loop, and the only one; what varies is
chosen from the session's features, and every feature combines with
every other, except that speculation refuses four of them (see
:func:`repro.cosim.optimistic.speculation_refusals`):

* **window sizing** — the fixed ``config.t_sync``, or an
  :class:`~repro.cosim.adaptive.AdaptiveController` with reactive,
  interrupt-terminated windows (:meth:`CosimSession.attach_adaptive`);
* **window execution** — simulate, or speculate ahead
  (``config.speculation_depth > 0``, see :mod:`repro.cosim.optimistic`);
* **topology** — a list of :class:`BoardSlot`; the paper's single board
  is one slot;
* **window exchange** — decided by the links:

  * in-process links (:class:`~repro.transport.inproc.InprocLink`) —
    master and boards interleaved window by window in one thread.
    Wall-clock cost is *modeled* (calibrated cost model).
  * TCP links (:class:`~repro.transport.tcp.TcpLink`) — each board
    runtime runs in its own OS thread, as in the paper's physical
    setup, from the first window until :meth:`CosimSession.close`.
    Wall-clock cost is *measured* (Figures 5 and 6).  An error a board
    thread raises is kept on its :class:`BoardSlot` and raised in the
    caller's thread by :meth:`CosimSession.close`, or as the context of
    the error that ends a failed :meth:`CosimSession.run`: a board
    thread that dies closes its end of the link, which ends the
    master's report wait at once.  ``config.report_timeout_s`` bounds
    the silence of a board that is alive.

  One session never mixes the two.  Either way the session points
  every link's ``data_server`` at the master's ``serve_data``.

Window ordering, on every link: the master simulates its half of the
window first, then grants it, and the board consumes the same window
with every interrupt delivered at its recorded in-window offset.  The
two sides never run at once, so every link gives the same
bit-for-bit deterministic run, and simulated-time behaviour — and
therefore the accuracy results of Figure 7 — is exact.  This is the
serialization of the paper's concurrent execution in which the board
observes hardware state loosely — the decoupling that *is* the source
of the accuracy loss the paper measures for large ``T_sync``.

With several boards every window grants the same tick budget to all
of them and waits for all time reports, so ``master cycles == board_i
ticks`` holds for every board at every exchange.  Boards share the
hardware through their own DATA ports; the master sends each bound
interrupt on the endpoint of the board that owns the device.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.cosim.board_runtime import CosimBoardRuntime
from repro.cosim.config import CosimConfig
from repro.cosim.master import CosimMaster
from repro.cosim.metrics import CosimMetrics
from repro.cosim.protocol import make_shutdown
from repro.errors import ProtocolError, ReproError, TransportError
from repro.obs.recorder import install_recorder, make_recorder
from repro.replay.snapshot import SnapshotError, require_keys
from repro.transport.channel import LinkStats
from repro.transport.inproc import InprocLink

if TYPE_CHECKING:  # pragma: no cover
    from repro.cosim.adaptive import AdaptivePolicy

DoneFn = Callable[[], bool]


class BoardSlot:
    """One board's attachment to a session: its *link* (``.master``,
    ``.board``, ``.stats`` and ``close()``, as every transport's link
    has) and the *runtime* serving the board side."""

    def __init__(self, name: str, link, runtime: CosimBoardRuntime) -> None:
        self.name = name
        self.link = link
        self.runtime = runtime
        #: The board's thread on a threaded link, serving from the
        #: session's first window until it closes.
        self.thread = None
        #: The exception that ended the board thread, if one did; the
        #: session raises it in its caller's thread.
        self.error: Optional[BaseException] = None
        self._closed = False

    def serve(self) -> None:
        """The board thread's body: serve every grant until shutdown.
        An error is kept for the session instead of escaping the
        thread, and closes the board's end of the link, so that the
        master's report wait reads EOF at once."""
        try:
            self.runtime.serve_forever()
        except BaseException as exc:  # noqa: BLE001 - handed to the session
            self.error = exc
            self.runtime.endpoint.close()

    def close(self) -> None:
        """Close the link and the runtime's endpoint (which may wrap the
        link's board end); closing twice is a no-op."""
        if self._closed:
            return
        self._closed = True
        try:
            self.link.close()
        finally:
            self.runtime.endpoint.close()


class CosimSession:
    """One master and its boards, run window by window.

    The master needs one link endpoint per board for grants and
    interrupts; its protocol object tracks the grant history once, and
    each board's protocol tracks its own sequence.  With several boards
    the master binds each device's interrupt signal to a vector and to
    the endpoint of the board owning the device, so give each board's
    devices distinct vectors.
    """

    def __init__(self, master: CosimMaster, slots: Sequence[BoardSlot],
                 config: CosimConfig) -> None:
        if not slots:
            raise ProtocolError("a session needs boards")
        names = [slot.name for slot in slots]
        if len(set(names)) != len(names):
            raise ProtocolError(f"duplicate board names: {names}")
        # In-process links are stepped window by window; every other
        # link gets a board thread.
        threaded = {not isinstance(slot.link, InprocLink) for slot in slots}
        if len(threaded) > 1:
            raise ProtocolError(
                "cannot mix in-process and threaded links in one session")
        self.master = master
        #: Every board of the session, the first one included.
        self.slots = list(slots)
        #: The first board's runtime and link counters.
        self.runtime = self.slots[0].runtime
        self.link_stats = self.slots[0].link.stats
        self.config = config
        #: Board runtimes serve in their own OS threads.
        self.threaded = threaded.pop()
        #: Every board's master endpoint: each grant fans out to all.
        self._fanout = tuple(slot.link.master for slot in self.slots)
        #: Optional per-window recorder (see repro.cosim.trace).
        # Attachment points (trace/checkpointer) are wiring, not
        # simulated state; checkpoints deliberately omit them.
        self.trace = None  # lint: disable=SNAP001
        #: Optional periodic checkpointer (see repro.replay.checkpoint).
        self.checkpointer = None  # lint: disable=SNAP001
        #: Extra checkpointed objects, name -> Snapshotable-like.
        self.snapshotables = {}
        #: Which half of the co-simulation owns each extra snapshotable
        #: ("master" or "board") — speculation rolls the two sides back
        #: independently.  Wiring, not simulated state.
        self.snapshotable_sides = {}  # lint: disable=SNAP001
        #: Span recorder (NULL_RECORDER unless config.tracing enables
        #: it), installed across master, board and transport wrappers.
        self.obs = make_recorder(getattr(config, "tracing", None))
        install_recorder(self.obs, master=master, runtime=self.runtime)
        for slot in self.slots[1:]:
            install_recorder(self.obs, runtime=slot.runtime)
        #: Windows completed over the session's lifetime (across runs).
        self.windows_completed = 0  # lint: disable=SNAP001
        #: The interrupts the boards had received at the last window
        #: boundary: a trace row counts those received since, as a
        #: replayed recording does (an interrupt lost on the way is in
        #: neither).  Reset by restore().
        self._interrupts_mark = self._interrupts_received()
        # Checkpoint/restore accounting, copied into the metrics.
        self.checkpoints_taken = 0
        self.restores = 0
        self.windows_replayed = 0
        #: Adaptive window controller (see attach_adaptive); its state
        #: is checkpointed as extra/adaptive_controller.
        self.controller = None  # lint: disable=SNAP001
        # Speculation accounting (zero unless speculating).
        self.windows_speculated = 0
        self.rollbacks = 0
        self.rollback_depth_max = 0
        #: The first board's trees (board_runtime, link, board-side
        #: extras) at a committed speculative boundary, read by
        #: snapshot() while that window is reported (speculation runs
        #: one board).  Transient within one window report.
        self._committed_board = None
        for slot in self.slots:
            slot.link.data_server = master.serve_data
        if config.speculation_depth > 0:
            # Compiled here, where the session is configured to
            # speculate, rather than inside a timed run().
            import repro.cosim.optimistic  # noqa: F401

    def attach_trace(self, trace) -> None:
        """Record every window into *trace* (a ProtocolTrace)."""
        self.trace = trace

    def attach_checkpointer(self, checkpointer) -> None:
        """Capture checkpoints at window boundaries via *checkpointer*
        (an object with an ``on_window(session)`` hook); the snapshot
        covers every board."""
        self.checkpointer = checkpointer

    def attach_adaptive(self, policy: Optional[AdaptivePolicy] = None) -> None:
        """Size windows with an :class:`AdaptiveController` for
        *policy*: each window ends early at the first interrupt edge,
        and the next budget shrinks after activity and grows after
        quiet windows.  The controller joins the checkpoint as
        ``extra/adaptive_controller``."""
        from repro.cosim.adaptive import AdaptiveController, AdaptivePolicy

        controller = AdaptiveController(policy or AdaptivePolicy())
        self.register_snapshotable("adaptive_controller", controller)
        self.controller = controller

    def register_snapshotable(self, name: str, obj,
                              side: str = "master") -> None:
        """Include *obj* (``snapshot()``/``restore(state)``) in session
        checkpoints under ``extra/<name>``.

        *side* says which half of the co-simulation mutates the object:
        ``"master"`` for state driven by the hardware simulation (e.g.
        workload stats fed by the model), ``"board"`` for state driven
        by board software (e.g. an application on the RTOS).  The
        conservative window ignores the distinction; speculation relies
        on it to checkpoint and roll back each side at its own point in
        time.
        """
        if not (callable(getattr(obj, "snapshot", None))
                and callable(getattr(obj, "restore", None))):
            raise ReproError(
                f"{name!r} does not implement snapshot()/restore(state)"
            )
        if name in self.snapshotables:
            raise ReproError(f"snapshotable {name!r} already registered")
        if side not in ("master", "board"):
            raise ReproError(
                f"snapshotable {name!r}: side must be 'master' or "
                f"'board', not {side!r}"
            )
        self.snapshotables[name] = obj
        self.snapshotable_sides[name] = side

    def aligned(self) -> bool:
        """Every board's tick counter equals the master's cycle count."""
        cycles = self.master.clock.cycles
        return all(slot.runtime.board.kernel.sw_ticks == cycles
                   for slot in self.slots)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Full-session state tree (only call at a window boundary):
        the master, one ``{"runtime", "link"}`` subtree per board keyed
        by board name, and the extra snapshotables.

        While a committed speculative window is reported the live board
        has already run ahead, so the first board's subtree and the
        board-side extras come from the speculation checkpoint of that
        boundary; the master half is live and exact.
        """
        board = self._committed_board
        boards = {slot.name: {"runtime": slot.runtime.snapshot(),
                              "link": slot.link.stats.snapshot()}
                  for slot in self.slots[1 if board else 0:]}
        if board:
            boards[self.slots[0].name] = {"runtime": board["board_runtime"],
                                          "link": board["link"]}
        return {
            "master": self.master.snapshot(),
            "boards": boards,
            "extra": {name: (board["extra"][name]
                             if board and self.snapshotable_sides[name]
                             == "board" else obj.snapshot())
                      for name, obj in sorted(self.snapshotables.items())},
        }

    def restore(self, state: dict) -> None:
        """Apply a tree produced by :meth:`snapshot`.

        Only plain data is applied; generator-backed state (RTOS thread
        frames, simkernel processes) must already match, which the
        re-execution restore path guarantees and verifies by digest.
        """
        require_keys(state, ("master", "boards", "extra"), "session")
        names = sorted(slot.name for slot in self.slots)
        if sorted(state["boards"]) != names:
            raise SnapshotError(
                f"session snapshot has boards {sorted(state['boards'])}, "
                f"the session has {names}")
        self.master.restore(state["master"])
        for slot in self.slots:
            subtree = state["boards"][slot.name]
            require_keys(subtree, ("runtime", "link"),
                         f"board {slot.name!r}")
            slot.runtime.restore(subtree["runtime"])
            slot.link.stats.restore(subtree["link"])
        for name, subtree in state["extra"].items():
            if name not in self.snapshotables:
                raise ReproError(
                    f"snapshot names unregistered snapshotable {name!r}"
                )
            self.snapshotables[name].restore(subtree)
        self._interrupts_mark = self._interrupts_received()

    def close(self) -> None:
        """Stop the board threads, if any — a shutdown grant each, then
        a join — and release transport resources on both ends of every
        link.  Raises the error a board thread ended with, or
        :class:`ProtocolError` if a board thread does not stop."""
        error = self._stop_boards()
        if error is not None:
            raise error

    def _stop_boards(self) -> Optional[BaseException]:
        """:meth:`close`, returning the error it would raise."""
        threads = [slot.thread for slot in self.slots if slot.thread]
        for slot in self.slots:
            slot.thread = None
        if threads:
            if self.master.fsm.state == "idle":
                # A mid-window failure leaves the FSM wherever the
                # error struck; only a window boundary claims a legal
                # idle -> closed shutdown transition.
                self.master.fsm.step("send_shutdown")
            shutdown = make_shutdown(self.master.protocol.seq + 1)
            for slot in self.slots:
                try:
                    slot.link.master.send_grant(shutdown)
                except TransportError:
                    pass  # the link is down; closing it below ends the thread
            for thread in threads:
                thread.join(timeout=self.config.report_timeout_s)
        for slot in self.slots:
            slot.close()
        for thread in threads:
            thread.join(timeout=1.0)
        if any(thread.is_alive() for thread in threads):
            return ProtocolError("board runtime failed to shut down")
        # Taken, so that closing again raises nothing.
        error = next((slot.error for slot in self.slots if slot.error), None)
        for slot in self.slots:
            slot.error = None
        return error

    # ------------------------------------------------------------------
    # The window loop
    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None,
            done: Optional[DoneFn] = None,
            max_windows: Optional[int] = None) -> CosimMetrics:
        """Run windows until *done()* holds, the master reaches
        *max_cycles*, or the session has completed *max_windows*.

        A speculating session runs every window conservatively when
        given *done*; a feature speculation refuses raises
        :class:`ProtocolError` before window 0."""
        if max_cycles is None and done is None and max_windows is None:
            raise ProtocolError(
                "need max_cycles, max_windows, and/or a done() condition"
            )
        step = self._simulate_window
        if self.config.speculation_depth > 0:
            from repro.cosim.optimistic import Speculator, speculation_refusals

            refusals = speculation_refusals(self)
            if refusals:
                raise ProtocolError(refusals[0])
            if done is None:
                step = Speculator(self)
        metrics = self._new_metrics()
        with self._serving(metrics):
            while self._should_continue(metrics.windows, done, max_cycles,
                                        max_windows):
                step(metrics, max_cycles, max_windows)
        return self._finalize(metrics)

    def _window_ticks(self, max_cycles: Optional[int]) -> int:
        """Window sizing: the fixed ``T_sync``, or the adaptive
        controller's next budget; never past *max_cycles*."""
        if self.controller is None:
            ticks = self.config.t_sync
        else:
            ticks = self.controller.next_window()
        if max_cycles is not None:
            remaining = max_cycles - self.master.clock.cycles
            ticks = min(ticks, remaining)
        return ticks

    def _should_continue(self, windows: int, done: Optional[DoneFn],
                         max_cycles: Optional[int],
                         max_windows: Optional[int] = None) -> bool:
        if windows >= self.config.max_windows:
            raise ProtocolError(
                f"exceeded max_windows={self.config.max_windows}; "
                "is the workload's done() condition reachable?"
            )
        if max_windows is not None and self.windows_completed >= max_windows:
            return False
        if done is not None and done():
            return False
        if max_cycles is not None and self.master.clock.cycles >= max_cycles:
            return False
        return True

    def _simulate_window(self, metrics: CosimMetrics,
                         max_cycles: Optional[int],
                         max_windows: Optional[int] = None) -> None:
        """Window execution "simulate": one grant/simulate/report
        exchange with every board, under a ``session.window`` span."""
        master = self.master
        ticks = self._window_ticks(max_cycles)
        ints_before = master.interrupts_sent
        data_before = self._data_messages()
        token = None
        if self.obs.enabled:
            token = self.obs.begin("session", "window",
                                   sim=master.clock.cycles,
                                   index=self.windows_completed,
                                   ticks=ticks)
        try:
            ticks = self._exchange(ticks)
        finally:
            if token is not None:
                self.obs.end(token, sim=master.clock.cycles)
        self._after_window(metrics, ticks, data_before)
        if self.controller is not None:
            self.controller.feedback(
                master.interrupts_sent > ints_before
                or self._data_messages() > data_before)

    def _exchange(self, ticks: int) -> int:
        """One window's exchange with every board; returns the ticks
        actually granted.  An adaptive session's window is reactive:
        it ends early at the first interrupt edge."""
        master = self.master
        reactive = self.controller is not None
        if self.threaded:
            return master.run_window_threaded(ticks, *self._fanout,
                                              reactive=reactive,
                                              boards=self.slots)
        ticks = master.run_window_inproc(ticks, *self._fanout,
                                         reactive=reactive)
        for slot in self.slots:
            slot.runtime.serve_window()
        reports = []
        for slot in self.slots:
            report = slot.link.master.recv_report()
            if report is None:
                raise ProtocolError(
                    f"no time report from board {slot.name!r}")
            reports.append(report)
        master.finish_window_inproc(*reports)
        return ticks

    def _data_messages(self) -> int:
        return sum(slot.link.stats.data_messages for slot in self.slots)

    def _interrupts_received(self) -> int:
        return sum(slot.runtime.interrupts_received for slot in self.slots)

    def _after_window(self, metrics: CosimMetrics, ticks: int,
                      data_before: int,
                      board_ticks: Optional[int] = None) -> None:
        """Window-boundary hook, the one place a completed window is
        counted: metrics, trace row, then checkpointer."""
        metrics.windows += 1
        metrics.sync_exchanges += len(self.slots)
        self.windows_completed += 1
        received = self._interrupts_received()
        interrupts = received - self._interrupts_mark
        self._interrupts_mark = received
        if self.trace is not None:
            if board_ticks is None:
                board_ticks = self.runtime.board.kernel.sw_ticks
            self.trace.record(
                ticks=ticks,
                master_cycles=self.master.clock.cycles,
                board_ticks=board_ticks,
                interrupts=interrupts,
                data_messages=self._data_messages() - data_before,
            )
        if self.checkpointer is not None:
            if self.obs.enabled:
                taken = self.checkpoints_taken
                token = self.obs.begin("session", "checkpoint",
                                       sim=self.master.clock.cycles,
                                       window=self.windows_completed)
                try:
                    self.checkpointer.on_window(self)
                finally:
                    # taken=0 marks the windows where the hook ran but
                    # the interval skipped the capture.
                    self.obs.end(token, sim=self.master.clock.cycles,
                                 taken=self.checkpoints_taken - taken)
            else:
                self.checkpointer.on_window(self)

    def _new_metrics(self) -> CosimMetrics:
        # Adaptive windows vary; see controller.trace.
        return CosimMetrics(
            t_sync=self.config.t_sync if self.controller is None else 0)

    def _finalize(self, metrics: CosimMetrics) -> CosimMetrics:
        metrics.master_cycles = self.master.clock.cycles
        metrics.board_ticks = self.runtime.board.kernel.sw_ticks
        kernels = [slot.runtime.board.kernel for slot in self.slots]
        metrics.board_cycles = sum(kernel.cycles for kernel in kernels)
        metrics.state_switches = sum(kernel.state_switches
                                     for kernel in kernels)
        metrics.checkpoints_taken = self.checkpoints_taken
        metrics.restores = self.restores
        metrics.windows_replayed = self.windows_replayed
        metrics.windows_speculated = self.windows_speculated
        metrics.rollbacks = self.rollbacks
        metrics.rollback_depth_max = self.rollback_depth_max
        combined = LinkStats()
        for name in LinkStats.FIELDS:
            setattr(combined, name, sum(getattr(slot.link.stats, name)
                                        for slot in self.slots))
        metrics.absorb_link_stats(combined)
        if self.obs.enabled:
            metrics.spans_recorded = self.obs.span_count
            metrics.span_events = self.obs.event_count
            metrics.spans_dropped = self.obs.dropped_spans
        metrics.finish_modeled(self.config.wall_cost)
        return metrics

    @contextlib.contextmanager
    def _serving(self, metrics: CosimMetrics):
        """The boards' side of one run.  In-process links need nothing.
        Threaded links: start every board thread at the session's first
        window (they serve every run until :meth:`close`), and close
        the session when a run fails, with a board thread's error as the
        context of the run's."""
        if not self.threaded:
            yield
            return
        for slot in self.slots:
            if slot.thread is None:
                slot.thread = threading.Thread(
                    target=slot.serve,
                    name=("cosim-board" if len(self.slots) == 1
                          else f"cosim-board-{slot.name}"),
                    daemon=True,
                )
                slot.thread.start()
        start = time.perf_counter()
        try:
            yield
        except BaseException as failure:
            # Stop the board threads and release the sockets, without
            # masking the error that ended the run.
            error = None
            with contextlib.suppress(Exception):
                error = self._stop_boards()
            if error is not None:
                while failure.__context__ is not None:
                    failure = failure.__context__
                failure.__context__ = error
            raise
        finally:
            metrics.wall_seconds = time.perf_counter() - start
