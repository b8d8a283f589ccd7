"""The TCP link's fences: a grant waits for the interrupts sent before
it, and an INT disconnect loses none of them."""

import threading
import time

import pytest

from repro.cosim import CosimConfig, ProtocolTrace
from repro.errors import TransportError
from repro.router.testbench import RouterWorkload, build_router_cosim
from repro.transport import ClockGrant, Interrupt
from repro.transport.faults import FaultPlan
from repro.transport.messages import CLOCK_PORT, INT_PORT
from repro.transport.tcp import ResilienceConfig, TcpLinkServer, connect_board

FAST = ResilienceConfig(max_attempts=5, backoff_initial_s=0.005,
                        backoff_max_s=0.02, connect_timeout_s=1.0)


@pytest.fixture
def pair():
    server = TcpLinkServer(config=FAST)
    holder = {}
    thread = threading.Thread(target=lambda: holder.update(
        board=connect_board(server.addresses, FAST, stats=server.stats)))
    thread.start()
    master = server.accept(timeout=10)
    thread.join(timeout=10)
    yield master, holder["board"]
    master.close()
    holder["board"].close()


class TestInterruptFence:
    def test_grant_arrives_with_the_interrupts_sent_before_it(self, pair):
        master, board = pair
        master.send_interrupt(Interrupt(vector=1, master_cycle=3))
        master.send_interrupt(Interrupt(vector=2, master_cycle=4))
        master.send_grant(ClockGrant(seq=1, ticks=5))
        assert board.recv_grant(timeout=5) == ClockGrant(seq=1, ticks=5)
        # No waiting: the grant came only once both were read.
        assert board.poll_interrupt() == Interrupt(1, 3)
        assert board.poll_interrupt() == Interrupt(2, 4)
        assert board.poll_interrupt() is None

    def test_missing_interrupt_fails_within_the_connect_timeout(self, pair):
        from repro.transport.messages import Counted

        master, board = pair
        # A grant that counts an interrupt which was never sent.
        master._conns[CLOCK_PORT].send(Counted(1, ClockGrant(1, 5)))
        start = time.monotonic()
        with pytest.raises(TransportError, match="never arrived"):
            board.recv_grant(timeout=30)
        assert time.monotonic() - start < 2 * FAST.connect_timeout_s

    def test_resent_interrupts_are_dropped_by_number(self, pair):
        from repro.transport.messages import Counted

        master, board = pair
        master.send_interrupt(Interrupt(vector=1, master_cycle=3))
        master.send_grant(ClockGrant(seq=1, ticks=5))
        board.recv_grant(timeout=5)
        # A resend after a reconnect repeats frame 1 before frame 2.
        conn = master._conns[INT_PORT]
        conn.send(Counted(1, Interrupt(1, 3)))
        conn.send(Counted(2, Interrupt(1, 9)))
        master._interrupts_accepted = 2
        master.send_grant(ClockGrant(seq=2, ticks=5))
        assert board.recv_grant(timeout=5) == ClockGrant(seq=2, ticks=5)
        assert board.poll_interrupt() == Interrupt(1, 3)
        assert board.poll_interrupt() == Interrupt(1, 9)
        assert board.poll_interrupt() is None


def _trace_rows(mode, disconnect=None):
    config = CosimConfig(t_sync=300, resilience=FAST)
    workload = RouterWorkload(packets_per_producer=4, interval_cycles=300,
                              seed=11)
    plan = (FaultPlan(disconnect_after_grants={disconnect: INT_PORT})
            if disconnect else None)
    cosim = build_router_cosim(config, workload, mode=mode,
                               fault_plan=plan)
    trace = ProtocolTrace()
    cosim.session.attach_trace(trace)
    metrics = cosim.run()
    if plan is not None:
        assert plan.disconnects_injected == 1
    return [record.as_row() for record in trace.records], metrics


@pytest.mark.parametrize("after_grant", [1, 3])
def test_int_disconnect_loses_no_interrupt(after_grant):
    # Without the fence and the resend, INT frames sent into the
    # dropped connection are lost: after grant 3 the run drained in 230
    # windows with 2 interrupts, after grant 1 with none.
    reference, ref_metrics = _trace_rows("inproc")
    rows, metrics = _trace_rows("tcp", disconnect=after_grant)
    assert rows == reference
    assert metrics.int_packets == ref_metrics.int_packets == 4
    assert metrics.reconnects >= 1
