"""Report-wait deadline semantics (the spurious-timeout bugfix).

The master's report deadline bounds *silence*, not total window
duration: a board that is slow to report but keeps issuing DATA
requests is alive, and every sign of progress pushes the deadline out.
These tests drive ``run_window_threaded`` through a scripted endpoint
so the wall-clock behaviour is exercised without a real board thread.
"""

import time

import pytest

from repro.cosim.config import CosimConfig
from repro.cosim.master import REPORT_POLL_S
from repro.errors import ProtocolError
from repro.router.testbench import RouterWorkload, build_router_cosim
from repro.router.router import REG_STATUS
from repro.transport.channel import MasterEndpoint
from repro.transport.messages import DataRead, TimeReport


class ScriptedEndpoint(MasterEndpoint):
    """Stays silent on the CLOCK port for *report_after_s* while
    (optionally) producing steady DATA traffic, then reports."""

    def __init__(self, ticks: int, report_after_s: float,
                 chatty: bool) -> None:
        self.ticks = ticks
        self.report_after_s = report_after_s
        self.chatty = chatty
        self.start = None
        self.data_seq = 0
        self.replies = 0

    def send_grant(self, grant) -> None:
        self.start = time.monotonic()

    def poll_data_batch(self, limit: int = 64):
        # One read per visit while the board is "working": alive but
        # never reporting until report_after_s has elapsed.
        if not self.chatty or self.start is None:
            return []
        if time.monotonic() - self.start >= self.report_after_s:
            return []
        self.data_seq += 1
        return [DataRead(seq=self.data_seq, address=REG_STATUS)]

    def poll_data(self):
        batch = self.poll_data_batch(limit=1)
        return batch[0] if batch else None

    def send_reply(self, seq, value) -> None:
        self.replies += 1

    def recv_report(self, timeout=None):
        if timeout:
            time.sleep(timeout)
        if time.monotonic() - self.start >= self.report_after_s:
            return TimeReport(seq=1, board_ticks=self.ticks)
        return None

    def send_interrupt(self, interrupt) -> None:  # pragma: no cover
        pass


def _master_with(endpoint, **config_kwargs):
    config = CosimConfig(t_sync=10, **config_kwargs)
    cosim = build_router_cosim(config, RouterWorkload(), mode="inproc")
    master = cosim.master
    master.endpoint = endpoint
    return master


class TestReportWait:
    def test_slow_but_chatty_board_does_not_time_out(self):
        # Silence never exceeds the 0.2s timeout (DATA arrives every
        # poll), even though the report takes 3x longer than that.
        endpoint = ScriptedEndpoint(ticks=10, report_after_s=0.6,
                                    chatty=True)
        master = _master_with(endpoint, report_timeout_s=0.2)
        master.run_window_threaded(10)
        assert master.protocol.exchanges == 1
        assert endpoint.replies > 0
        assert master.data_reads_served == endpoint.replies

    def test_silent_board_still_times_out(self):
        endpoint = ScriptedEndpoint(ticks=10, report_after_s=60.0,
                                    chatty=False)
        master = _master_with(endpoint, report_timeout_s=0.2)
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="last sign of life"):
            master.run_window_threaded(10)
        # The timeout fires promptly — poll backoff must not stretch
        # the 0.2s deadline into something much larger.
        assert time.monotonic() - start < 2.0


class TestPollConfigValidation:
    def test_poll_must_be_shorter_than_timeout(self):
        with pytest.raises(ProtocolError, match="poll slice"):
            CosimConfig(report_timeout_s=REPORT_POLL_S)
