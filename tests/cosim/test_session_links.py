"""The links decide how a session exchanges windows.

In-process links are stepped window by window, with the session
pointing their DATA server at the master; TCP links get a board
thread each; one session never mixes the two.
"""

import pytest

from repro.board import Board
from repro.cosim import (
    BoardSlot,
    CosimBoardRuntime,
    CosimConfig,
    CosimMaster,
    CosimSession,
    build_driver_sim,
)
from repro.devices import AcceleratorDriver, ChecksumAccelerator
from repro.errors import ProtocolError
from repro.router.checksum import checksum16
from repro.router.testbench import RouterWorkload, build_router_cosim
from repro.transport import InprocLink, TcpLink

BASE, VECTOR = 0x10, 2


def _rig(links):
    config = CosimConfig(t_sync=40)
    sim, clock = build_driver_sim("links_hw", config=config)
    accel = ChecksumAccelerator(sim, "accel", clock)
    accel.map_registers(sim, BASE)
    master = CosimMaster(sim, clock, links[0].master, config)
    master.bind_interrupt(VECTOR, accel.done_irq, endpoint=links[0].master)
    slots = [BoardSlot(f"b{index}", link,
                       CosimBoardRuntime(Board(name=f"board_{index}"),
                                         link.board, config))
             for index, link in enumerate(links)]
    return config, master, slots


@pytest.mark.parametrize("link_cls", [InprocLink, TcpLink])
def test_data_reads_are_served_without_wiring_by_hand(link_cls):
    link = link_cls()
    config, master, slots = _rig([link])
    kernel = slots[0].runtime.board.kernel
    driver = AcceleratorDriver(kernel, link.board, config.latency,
                               vector=VECTOR, base=BASE)
    results = {}

    def app():
        results["csum"] = yield from driver.checksum([b"links"],
                                                     wait_irq=True)

    thread = kernel.create_thread("app", app, 10)
    session = CosimSession(master, slots, config)
    assert session.threaded == (link_cls is TcpLink)
    try:
        metrics = session.run(max_cycles=2000,
                              done=lambda: not thread.alive)
    finally:
        session.close()
    assert results["csum"] == checksum16(b"links")
    assert master.data_reads_served > 0
    assert metrics.master_cycles == metrics.board_ticks


def test_mixed_links_refused_before_window_zero():
    config, master, slots = _rig([InprocLink(), TcpLink()])
    with pytest.raises(ProtocolError, match="cannot mix in-process and "
                                            "threaded links"):
        CosimSession(master, slots, config)
    slots[1].close()
    assert master.clock.cycles == 0
    assert slots[0].link.data_server is None


@pytest.mark.parametrize("iss_timing", [False, True])
def test_both_links_charge_the_same_counters(iss_timing):
    """Each link charges every message its encoded frame (TCP less its
    fence count): the same router run counts the same messages and
    bytes on both.  The run reads and writes int and bytes values."""
    counters = {}
    for mode in ("inproc", "tcp"):
        cosim = build_router_cosim(
            CosimConfig(t_sync=200),
            RouterWorkload(packets_per_producer=4, seed=7), mode=mode,
            iss_timing=iss_timing)
        try:
            metrics = cosim.run()
        finally:
            cosim.close()
        counters[mode] = (metrics.messages_total, metrics.bytes_total,
                          metrics.int_packets, metrics.data_messages)
    assert counters["tcp"] == counters["inproc"] == (176, 4496, 16, 112)
