"""Deterministic fault injection for the remote IPC.

Wraps a board-side endpoint and tampers with the message streams
according to a :class:`FaultPlan` — dropped or duplicated clock grants,
dropped, corrupted or delayed time reports, dropped interrupt packets.
Used by the test-suite to demonstrate that the virtual-tick protocol
*detects* every synchronization-breaking fault (sequence/alignment
checks raise :class:`~repro.errors.ProtocolError`) and degrades
gracefully on non-fatal ones (lost interrupts delay service but never
corrupt accounting).

Faults act on messages, never on connections: a TCP link that loses a
connection fails the run with a :class:`~repro.errors.TransportError`
naming the port, which no fault plan is needed to show.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.obs.recorder import NULL_RECORDER
from repro.transport.channel import BoardEndpoint
from repro.transport.messages import ClockGrant, Interrupt, TimeReport, Value


@dataclass
class FaultPlan:
    """Which messages to tamper with (1-based indices / seq numbers)."""

    #: Grant seq numbers to swallow (board never sees them).
    drop_grants: Set[int] = field(default_factory=set)
    #: Grant seq numbers to deliver twice.
    duplicate_grants: Set[int] = field(default_factory=set)
    #: Report seq numbers to swallow (master never hears back).
    drop_reports: Set[int] = field(default_factory=set)
    #: Report seq numbers whose tick count is corrupted (+1).
    corrupt_reports: Set[int] = field(default_factory=set)
    #: 1-based interrupt indices to swallow.
    drop_interrupts: Set[int] = field(default_factory=set)
    #: Report seq -> extra wall seconds to stall before sending it.
    delay_reports: Dict[int, float] = field(default_factory=dict)

    # Statistics ---------------------------------------------------------
    grants_dropped: int = 0
    grants_duplicated: int = 0
    reports_dropped: int = 0
    reports_corrupted: int = 0
    interrupts_dropped: int = 0
    reports_delayed: int = 0

    def total_faults(self) -> int:
        return (self.grants_dropped + self.grants_duplicated
                + self.reports_dropped + self.reports_corrupted
                + self.interrupts_dropped + self.reports_delayed)


class FaultyBoardEndpoint(BoardEndpoint):
    """A board endpoint with a saboteur in the middle."""

    #: Span recorder; replaced per-session when tracing is enabled.
    obs = NULL_RECORDER

    def __init__(self, inner: BoardEndpoint, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._pending_duplicate: Optional[ClockGrant] = None
        self._interrupt_index = 0

    # ------------------------------------------------------------------
    def recv_grant(self, timeout: Optional[float] = None):
        if self._pending_duplicate is not None:
            grant, self._pending_duplicate = self._pending_duplicate, None
            return grant
        while True:
            grant = self.inner.recv_grant(timeout)
            if grant is None:
                return None
            if grant.seq in self.plan.drop_grants:
                self.plan.drop_grants.discard(grant.seq)
                self.plan.grants_dropped += 1
                if self.obs.enabled:
                    self.obs.event("fault", "grant.drop", seq=grant.seq)
                continue  # swallowed; look for the next one
            if grant.seq in self.plan.duplicate_grants:
                self.plan.duplicate_grants.discard(grant.seq)
                self.plan.grants_duplicated += 1
                if self.obs.enabled:
                    self.obs.event("fault", "grant.duplicate", seq=grant.seq)
                self._pending_duplicate = grant
            return grant

    def send_report(self, report: TimeReport) -> None:
        delay = self.plan.delay_reports.pop(report.seq, None)
        if delay is not None:
            self.plan.reports_delayed += 1
            if self.obs.enabled:
                self.obs.event("fault", "report.delay", seq=report.seq,
                               delay_s=delay)
            time.sleep(delay)
        if report.seq in self.plan.drop_reports:
            self.plan.drop_reports.discard(report.seq)
            self.plan.reports_dropped += 1
            if self.obs.enabled:
                self.obs.event("fault", "report.drop", seq=report.seq)
            return
        if report.seq in self.plan.corrupt_reports:
            self.plan.corrupt_reports.discard(report.seq)
            self.plan.reports_corrupted += 1
            if self.obs.enabled:
                self.obs.event("fault", "report.corrupt", seq=report.seq)
            report = TimeReport(seq=report.seq,
                                board_ticks=report.board_ticks + 1)
        self.inner.send_report(report)

    def poll_interrupt(self) -> Optional[Interrupt]:
        while True:
            irq = self.inner.poll_interrupt()
            if irq is None:
                return None
            self._interrupt_index += 1
            if self._interrupt_index in self.plan.drop_interrupts:
                self.plan.drop_interrupts.discard(self._interrupt_index)
                self.plan.interrupts_dropped += 1
                if self.obs.enabled:
                    self.obs.event("fault", "irq.drop",
                                   index=self._interrupt_index,
                                   vector=irq.vector)
                continue
            return irq

    # DATA passes through untouched --------------------------------------
    def data_read(self, address: int) -> Value:
        return self.inner.data_read(address)

    def data_write(self, address: int, value: Value) -> None:
        self.inner.data_write(address, value)

    def close(self) -> None:
        self.inner.close()


def find_fault_injector(endpoint) -> Optional[FaultyBoardEndpoint]:
    """The fault injector in *endpoint*'s wrapper chain (followed
    through ``inner``), or None."""
    while endpoint is not None:
        if isinstance(endpoint, FaultyBoardEndpoint):
            return endpoint
        endpoint = getattr(endpoint, "inner", None)
    return None
