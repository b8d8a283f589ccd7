"""Report-wait deadline semantics, over a real TCP link.

The master's report deadline bounds *silence*, not total window
duration: a board that is slow to report but keeps issuing DATA
requests is alive, and every request the link serves starts the
deadline again.  A board thread that dies closes its end of the link,
so the wait ends at once, however long the deadline.  These tests drive
``run_window_threaded`` against a scripted board thread on a
:class:`~repro.transport.tcp.TcpLink`.
"""

import threading
import time

import pytest

from repro.cosim.config import CosimConfig
from repro.errors import ProtocolError
from repro.router.router import REG_STATUS
from repro.router.testbench import RouterWorkload, build_router_cosim
from repro.transport import TcpLink
from repro.transport.messages import TimeReport

TICKS = 10


def _master_on(link, **config_kwargs):
    """A router master whose endpoint is *link*'s master end."""
    config = CosimConfig(t_sync=TICKS, **config_kwargs)
    cosim = build_router_cosim(config, RouterWorkload(), mode="inproc")
    master = cosim.master
    master.endpoint = link.master
    link.data_server = master.serve_data
    return master


class ScriptedBoard:
    """A board thread that takes one grant, then (optionally) reads a
    register every *read_every_s* for *report_after_s* seconds before it
    reports; a silent board never reports."""

    def __init__(self, link, report_after_s, chatty, read_every_s=0.02):
        self.board = link.board
        self.report_after_s = report_after_s
        self.chatty = chatty
        self.read_every_s = read_every_s
        self.reads = 0
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        grant = self.board.recv_grant(timeout=5.0)
        start = time.monotonic()
        while time.monotonic() - start < self.report_after_s:
            if self.stop.wait(self.read_every_s):
                return
            if self.chatty:
                self.board.data_read(REG_STATUS)
                self.reads += 1
        self.board.send_report(TimeReport(seq=grant.seq,
                                          board_ticks=grant.ticks))

    def join(self):
        self.stop.set()
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()


@pytest.fixture
def link():
    link = TcpLink()
    yield link
    link.close()


class TestReportWait:
    def test_slow_but_chatty_board_does_not_time_out(self, link):
        # Silence never exceeds the 0.2s timeout (a read every 20ms),
        # even though the report takes 3x longer than that.
        master = _master_on(link, report_timeout_s=0.2)
        board = ScriptedBoard(link, report_after_s=0.6, chatty=True)
        try:
            master.run_window_threaded(TICKS)
        finally:
            board.join()
        assert master.protocol.exchanges == 1
        assert board.reads > 0
        assert master.data_reads_served == board.reads

    def test_silent_board_still_times_out(self, link):
        master = _master_on(link, report_timeout_s=0.2)
        board = ScriptedBoard(link, report_after_s=60.0, chatty=False)
        start = time.monotonic()
        try:
            with pytest.raises(ProtocolError, match="last sign of life"):
                master.run_window_threaded(TICKS)
        finally:
            board.join()
        # The timeout fires promptly: 0.2s of silence, not much more.
        assert 0.2 <= time.monotonic() - start < 1.0


class TestDeadBoard:
    def test_board_that_raises_mid_window_fails_the_run_at_once(self):
        # The default report_timeout_s (60s) is far longer than the
        # failure may take: the board thread closes its end as it dies.
        assert CosimConfig().report_timeout_s >= 60
        cosim = build_router_cosim(CosimConfig(t_sync=200),
                                   RouterWorkload(), mode="tcp")
        kernel = cosim.runtime.board.kernel
        run_ticks = kernel.run_ticks
        windows = []

        def crashing_run_ticks(ticks):
            windows.append(ticks)
            if len(windows) == 3:
                raise RuntimeError("board software crashed")
            return run_ticks(ticks)

        kernel.run_ticks = crashing_run_ticks
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="'board' stopped serving "
                           "before its time report for grant seq 3") \
                as failure:
            cosim.run()
        assert time.monotonic() - start < 0.5
        chain = []
        error = failure.value
        while error is not None:
            chain.append(error)
            error = error.__context__
        assert any(isinstance(error, RuntimeError)
                   and "board software crashed" in str(error)
                   for error in chain), chain


class TestTimeoutValidation:
    def test_non_positive_timeout_is_refused(self):
        for timeout_s in (0, -1.0):
            with pytest.raises(ProtocolError, match="report_timeout_s "
                                                    "must be positive"):
                CosimConfig(report_timeout_s=timeout_s)
