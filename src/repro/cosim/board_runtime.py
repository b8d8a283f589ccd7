"""The board-side co-simulation runtime.

Implements the OS half of the protocol (Sections 4 and 5.3): the board
freezes in the IDLE state between windows, wakes on a clock grant, runs
exactly the granted number of software ticks, then re-freezes and
reports its time.

The master simulates each window before it grants it, so every
interrupt of the window is on the INT port when the grant arrives; the
board schedules each one at its exact cycle offset inside the window.
One window body serves every link, in two drivers:

* :meth:`serve_window` — the session calls it once per window
  (in-process links, and replay);
* :meth:`serve_forever` — a blocking loop driven by the CLOCK port,
  run in its own OS thread against a TCP link until a shutdown grant
  arrives or the link closes.

Either way the board waits ``config.emulated_network_delay_s`` before
each time report, emulating the paper's Ethernet and physical-board
latency.
"""

from __future__ import annotations

import time

from repro.board.board import Board
from repro.cosim.config import CosimConfig
from repro.cosim.protocol import (
    BOARD_INITIAL,
    BOARD_WINDOW_TABLE,
    BoardProtocol,
    WindowFsm,
    is_shutdown,
)
from repro.errors import ProtocolError
from repro.obs.recorder import NULL_RECORDER
from repro.transport.channel import BoardEndpoint


class CosimBoardRuntime:
    """Drives a :class:`~repro.board.board.Board` as the protocol slave."""

    #: Span recorder; replaced per-session when tracing is enabled.
    obs = NULL_RECORDER

    def __init__(self, board: Board, endpoint: BoardEndpoint,
                 config: CosimConfig) -> None:
        self.board = board
        self.endpoint = endpoint
        self.config = config
        self.protocol = BoardProtocol()
        #: Window-phase tracker; every phase change is validated against
        #: the declarative BOARD_WINDOW_TABLE (see repro.cosim.protocol).
        self.fsm = WindowFsm("board", BOARD_WINDOW_TABLE, BOARD_INITIAL)
        self.windows_served = 0
        self.interrupts_received = 0
        # Boot directly into the frozen state: nothing runs before the
        # first clock grant ("the co-simulation is driven by the
        # simulated time").
        board.kernel.enter_idle_state()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Protocol state, serve counters, and the board itself."""
        return {
            "protocol": self.protocol.snapshot(),
            "windows_served": self.windows_served,
            "interrupts_received": self.interrupts_received,
            "board": self.board.snapshot(),
        }

    def restore(self, state: dict) -> None:
        for key in ("protocol", "windows_served", "interrupts_received",
                    "board"):
            if key not in state:
                raise ProtocolError(f"board runtime snapshot missing {key!r}")
        self.protocol.restore(state["protocol"])
        # Restores happen at window boundaries: the board is frozen.
        self.fsm.reset()
        self.windows_served = state["windows_served"]
        self.interrupts_received = state["interrupts_received"]
        self.board.restore(state["board"])

    # ------------------------------------------------------------------
    # Interrupt plumbing
    # ------------------------------------------------------------------
    def _schedule_window_interrupts(self, window_start_master: int) -> int:
        """Schedule queued INT packets at exact in-window offsets."""
        kernel = self.board.kernel
        cycles_per_tick = kernel.config.cycles_per_sw_tick
        window_start_cycle = kernel.cycles
        scheduled = 0
        while True:
            irq = self.endpoint.poll_interrupt()
            if irq is None:
                return scheduled
            self.interrupts_received += 1
            offset_ticks = max(0, irq.master_cycle - window_start_master - 1)
            deliver_at = (window_start_cycle
                          + offset_ticks * cycles_per_tick
                          + self.config.latency.interrupt_cycles)
            if self.obs.enabled:
                self.obs.event("board", "irq.schedule", sim=kernel.cycles,
                               vector=irq.vector, deliver_at=deliver_at)
            kernel.interrupts.schedule_at_cycle(deliver_at, irq.vector)
            scheduled += 1

    # ------------------------------------------------------------------
    # The window
    # ------------------------------------------------------------------
    def serve_window(self) -> None:
        """Serve the one pending grant: the session's per-window call
        on in-process links and in replay."""
        grant = self.endpoint.recv_grant()
        if grant is None:
            raise ProtocolError("no clock grant pending for the board")
        self._serve(grant)

    def serve_forever(self) -> None:
        """Serve every grant of the CLOCK port until a shutdown grant:
        a board thread's loop on a TCP link.

        The grant wait has no deadline: a session may idle for as long
        as it likes between two runs.  The thread ends on a shutdown
        grant, or with an error once the link is closed under it.
        """
        kernel = self.board.kernel
        while True:
            wait_token = None
            if self.obs.enabled:
                wait_token = self.obs.begin("transport", "grant_wait",
                                            sim=kernel.cycles)
            try:
                grant = self.endpoint.recv_grant()
            finally:
                if wait_token is not None:
                    self.obs.end(wait_token, sim=kernel.cycles)
            if is_shutdown(grant):
                self.fsm.step("recv_shutdown")
                return
            self._serve(grant)

    def _serve(self, grant) -> None:
        """The one window body: accept *grant*, thaw, schedule the
        window's interrupts, run its ticks, freeze, and report after
        the emulated network delay."""
        self.fsm.step("recv_grant")
        ticks = self.protocol.accept_grant(grant)
        kernel = self.board.kernel
        window_start_master = self.protocol.ticks_run - ticks
        token = None
        if self.obs.enabled:
            token = self.obs.begin("board", "window", sim=kernel.cycles,
                                   index=self.windows_served,
                                   ticks=ticks, seq=grant.seq)
        scheduled = 0
        try:
            kernel.exit_idle_state()
            scheduled = self._schedule_window_interrupts(
                window_start_master)
            kernel.run_ticks(ticks)
            kernel.enter_idle_state()
        finally:
            if token is not None:
                self.obs.end(token, sim=kernel.cycles,
                             interrupts=scheduled)
        self.fsm.step("window_done")
        self.windows_served += 1
        if self.config.emulated_network_delay_s > 0:
            time.sleep(self.config.emulated_network_delay_s)
        self.fsm.step("send_report")
        self.endpoint.send_report(self.protocol.make_report(kernel.sw_ticks))
