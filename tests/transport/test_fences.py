"""The TCP link's fences: a grant waits for the interrupts sent before
it, and interrupts arrive in number order or not at all."""

import threading
import time

import pytest

from repro.errors import TransportError
from repro.transport import ClockGrant, Interrupt, encode
from repro.transport.messages import CLOCK_PORT, INT_PORT
from repro.transport.tcp import TcpLinkServer, connect_board

#: The link's one timeout, kept short so a missing frame fails fast.
CONNECT_TIMEOUT_S = 1.0


@pytest.fixture
def pair():
    server = TcpLinkServer(connect_timeout_s=CONNECT_TIMEOUT_S)
    holder = {}
    thread = threading.Thread(target=lambda: holder.update(
        board=connect_board(server.addresses, CONNECT_TIMEOUT_S,
                            stats=server.stats)))
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
        master._conns[CLOCK_PORT].send_frame(
            encode(Counted(1, ClockGrant(1, 5))))
        start = time.monotonic()
        with pytest.raises(TransportError, match="never arrived"):
            board.recv_grant(timeout=30)
        assert time.monotonic() - start < 2 * CONNECT_TIMEOUT_S

    def test_repeated_interrupt_number_is_a_transport_error(self, pair):
        from repro.transport.messages import Counted

        master, board = pair
        master.send_interrupt(Interrupt(vector=1, master_cycle=3))
        master.send_grant(ClockGrant(seq=1, ticks=5))
        board.recv_grant(timeout=5)
        assert board.poll_interrupt() == Interrupt(1, 3)
        # Frame 1 again where frame 2 is due: nothing redelivers on
        # this link, so a repeat is a fault, not a duplicate to drop.
        for frame in (Counted(1, Interrupt(1, 3)), Counted(2, Interrupt(1, 9))):
            master._conns[INT_PORT].send_frame(encode(frame))
        master._interrupts_sent = 2
        master.send_grant(ClockGrant(seq=2, ticks=5))
        with pytest.raises(TransportError,
                           match="INT port: frame 1 arrived where frame 2"):
            board.recv_grant(timeout=5)
