"""Tests for the router hardware model, driven through its registers."""

import pytest

from repro.cosim.master import build_driver_sim
from repro.router import (
    Packet,
    REG_PACKET,
    REG_STATS,
    REG_STATUS,
    REG_VERDICT,
    Router,
    RoutingTable,
    VERDICT_BAD,
    VERDICT_OK,
    WorkloadStats,
)


@pytest.fixture
def rig():
    sim, clock = build_driver_sim("router_test")
    stats = WorkloadStats()
    table = RoutingTable.uniform(4, addresses_per_port=64)
    router = Router(sim, "router", clock, table, stats, buffer_capacity=4)
    sim.map_port(REG_STATUS, router.reg_status)
    sim.map_port(REG_PACKET, router.reg_packet)
    sim.map_port(REG_VERDICT, router.reg_verdict)
    sim.map_port(REG_STATS, router.reg_stats)
    sim.elaborate()
    sim.settle()
    return sim, clock, router, stats


def step(sim, clock, cycles=1):
    sim.run_until(sim.now + cycles * clock.period)


def rising_edges(signal):
    """A list that gains one entry per rising edge *signal* commits."""
    edges = []

    def on_commit(_signal, old, new):
        if new and not old:
            edges.append(new)

    signal.observe(on_commit)
    return edges


def inject(router, pkt, port=0):
    assert router.input_fifos[port].try_put(pkt)


class TestPacketPresentation:
    def test_packet_reaches_registers_and_raises_irq(self, rig):
        sim, clock, router, stats = rig
        pkt = Packet.build(0, 10, 1, b"abc")
        inject(router, pkt)
        edges = rising_edges(router.irq)
        step(sim, clock, 3)
        assert len(edges) == 1
        status = sim.external_read(REG_STATUS)
        assert status & 1
        assert Packet.from_bytes(bytes(sim.external_read(REG_PACKET))) == pkt

    def test_ok_verdict_forwards_by_destination(self, rig):
        sim, clock, router, stats = rig
        pkt = Packet.build(0, 70, 1, b"abc")  # dst 70 -> port 1
        inject(router, pkt)
        step(sim, clock, 3)
        sim.external_write(REG_VERDICT, VERDICT_OK)
        assert stats.forwarded == 1
        assert router.output_fifos[1].try_get() == pkt
        assert sim.external_read(REG_STATS) == 1

    def test_bad_verdict_drops(self, rig):
        sim, clock, router, stats = rig
        inject(router, Packet.build(0, 10, 1, b"abc"))
        step(sim, clock, 3)
        sim.external_write(REG_VERDICT, VERDICT_BAD)
        assert stats.dropped_checksum == 1
        assert stats.forwarded == 0
        assert not sim.external_read(REG_STATUS) & 1

    def test_verdict_chains_next_packet_without_clock(self, rig):
        sim, clock, router, stats = rig
        for i in range(3):
            inject(router, Packet.build(0, 10, i, b"x"), port=i)
        step(sim, clock, 4)
        served = []
        while sim.external_read(REG_STATUS) & 1:
            raw = bytes(sim.external_read(REG_PACKET))
            served.append(Packet.from_bytes(raw).pkt_id)
            sim.external_write(REG_VERDICT, VERDICT_OK)
        assert sorted(served) == [0, 1, 2]
        assert stats.forwarded == 3

    def test_spurious_verdict_ignored(self, rig):
        sim, clock, router, stats = rig
        sim.external_write(REG_VERDICT, VERDICT_OK)
        assert stats.forwarded == 0
        assert stats.checked_by_sw == 0


class TestOverflow:
    def test_buffer_overflow_drops_and_counts(self, rig):
        sim, clock, router, stats = rig
        # Buffer capacity 4, plus 1 in the current-packet register:
        # flood 10 packets with no software response.
        for i in range(10):
            for port in range(4):
                router.input_fifos[port].try_put(
                    Packet.build(0, 10, i * 4 + port, b"x")
                )
            step(sim, clock, 1)
        assert stats.dropped_overflow > 0
        assert len(router.buffer) == router.buffer.capacity

    def test_unroutable_destination_dropped(self, rig):
        sim, clock, router, stats = rig
        router.table._entries.clear()
        inject(router, Packet.build(0, 99, 1, b"x"))
        step(sim, clock, 3)
        sim.external_write(REG_VERDICT, VERDICT_OK)
        assert stats.dropped_unroutable == 1


class TestIrqPulse:
    def test_irq_is_a_pulse_not_a_level(self, rig):
        sim, clock, router, stats = rig
        inject(router, Packet.build(0, 10, 1, b"x"))
        levels = []
        for _ in range(5):
            step(sim, clock, 1)
            levels.append(bool(router.irq.read()))
        # Exactly one high cycle, then low again while the packet waits.
        assert levels.count(True) == 1
        assert not levels[-1]

    def test_new_pulse_per_wakeup(self, rig):
        sim, clock, router, stats = rig
        edges = rising_edges(router.irq)
        inject(router, Packet.build(0, 10, 1, b"x"))
        step(sim, clock, 4)
        sim.external_write(REG_VERDICT, VERDICT_OK)
        inject(router, Packet.build(0, 10, 2, b"x"))
        step(sim, clock, 4)
        assert len(edges) == 2
