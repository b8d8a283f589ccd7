"""A dropped TCP connection fails the run loudly.

Each port of the TCP link is one connection for the link's whole life:
nothing redials.  A socket shut down under a live session fails the
next ``run()`` at once, with an error whose message or context chain
names the port, and the failed run leaves no board thread behind.
"""

import socket
import time

import pytest

from repro.cosim import CosimConfig
from repro.errors import ProtocolError, TransportError
from repro.router.testbench import RouterWorkload, build_router_cosim
from repro.transport.messages import CLOCK_PORT, DATA_PORT

T_SYNC = 200


def _context_chain(exc):
    while exc is not None:
        yield exc
        exc = exc.__context__


@pytest.mark.parametrize("end,port", [("board", DATA_PORT),
                                      ("master", CLOCK_PORT)])
def test_dropped_port_fails_the_run_naming_it(end, port):
    workload = RouterWorkload(packets_per_producer=4,
                              interval_cycles=T_SYNC, seed=11)
    cosim = build_router_cosim(CosimConfig(t_sync=T_SYNC), workload,
                               mode="tcp")
    session = cosim.session
    try:
        assert session.run(max_cycles=3 * T_SYNC).windows == 3
        slot = session.slots[0]
        board_thread = slot.thread
        assert board_thread.is_alive()
        conn = getattr(slot.link, end)._conns[port]
        conn.sock.shutdown(socket.SHUT_RDWR)
        start = time.monotonic()
        with pytest.raises((ProtocolError, TransportError)) as failure:
            session.run(max_cycles=40 * T_SYNC, done=cosim.drained)
        assert time.monotonic() - start < 1.0
    finally:
        session.close()
    named = f"{port.upper()} port"
    chain = [str(exc) for exc in _context_chain(failure.value)]
    assert any(named in message for message in chain), chain
    board_thread.join(timeout=1.0)
    assert not board_thread.is_alive()
