"""Micro-benchmarks of the substrate engines.

Not a paper figure: throughput numbers for the discrete-event kernel,
the RTOS, the ISS, the wire codec and the TCP link, to track
performance regressions of the substrates every macro experiment sits
on.
"""

import threading

from repro.iss import IssCpu, checksum_program, run_program
from repro.board.memory import Memory
from repro.router import Packet, checksum16
from repro.rtos import CpuWork, RtosConfig, RtosKernel, YieldCpu
from repro.simkernel import Clock, Event, Module, Signal, Simulator, ns
from repro.transport import (
    ClockGrant,
    DataRead,
    DataReply,
    DataWrite,
    Interrupt,
    TcpLink,
    TimeReport,
    decode,
    encode,
)
from repro.transport.messages import Counted


def test_simkernel_clocked_methods(benchmark, quick, bench):
    """Events per second through a 4-module clocked design."""
    # Tier-1 series: full size even in --quick so the recorded timing
    # is stable enough for the 20% regression gate (still sub-second).
    cycles = 2000

    def run():
        sim = Simulator()
        clock = Clock(sim, "clk", period=ns(10))
        signals = [Signal(sim, f"s{i}", init=0) for i in range(4)]

        class Stage(Module):
            def __init__(self, sim, name, sig):
                super().__init__(sim, name)
                self.sig = sig
                self.count = 0
                self.method(self._tick, sensitive=[clock.signal],
                            edge="pos", dont_initialize=True)

            def _tick(self):
                self.count += 1
                self.sig.write(self.count)

        stages = [Stage(sim, f"m{i}", s) for i, s in enumerate(signals)]
        sim.run(ns(10) * cycles)
        return stages[0].count

    count = benchmark(bench.wrap(run))
    bench.series("simkernel_clocked", work=cycles, unit="cycles",
                 tier1=True)
    assert count == cycles + 1  # edges at t = 0, 10 ns, ..., 20 us inclusive


def test_simkernel_idle_clock(benchmark, quick, bench):
    """Idle clock edges: one free-running clock, the design parked."""
    # Tier-1 series: full size even in --quick (see simkernel_clocked).
    cycles = 20_000

    def run():
        sim = Simulator()
        clock = Clock(sim, "clk", period=ns(10), start_time=ns(10))

        class Parked(Module):
            """A clocked stage parked on a wake-up event that never
            fires: its edges reach no process."""

            def __init__(self, sim, name):
                super().__init__(sim, name)
                proc = self.method(self._tick, sensitive=[clock.signal],
                                   edge="pos", dont_initialize=True)
                proc.set_static_sensitivity([Event(sim, f"{name}.wake")])

            def _tick(self):
                pass

        Parked(sim, "stage")
        sim.run_until(ns(10) * cycles)
        return clock.cycles

    count = benchmark(bench.wrap(run))
    bench.series("simkernel_idle_clock", work=cycles, unit="cycles",
                 tier1=True)
    assert count == cycles


def test_simkernel_thread_pingpong(benchmark, quick, bench):
    """Thread-process wakeups through event ping-pong."""
    rounds = 2000

    def run():
        sim = Simulator()
        from repro.simkernel import Event
        ping, pong = Event(sim, "ping"), Event(sim, "pong")
        state = {"count": 0}

        class Ping(Module):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.thread(self._run)

            def _run(self):
                for _ in range(rounds):
                    ping.notify(ns(1))
                    yield pong

        class Pong(Module):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.thread(self._run)

            def _run(self):
                while True:
                    yield ping
                    state["count"] += 1
                    pong.notify()

        Ping(sim, "ping_m")
        Pong(sim, "pong_m")
        sim.run(ns(1) * 2 * rounds)
        return state["count"]

    count = benchmark(bench.wrap(run))
    bench.series("simkernel_pingpong", work=rounds, unit="wakeups",
                 tier1=True)
    assert count == rounds


def test_rtos_context_switching(benchmark, quick, bench):
    """RTOS round-robin context switches."""
    ticks = 50

    def run():
        kernel = RtosKernel(RtosConfig(cycles_per_hw_tick=1000))

        def spinner():
            while True:
                yield CpuWork(50)
                yield YieldCpu()

        for i in range(4):
            kernel.create_thread(f"t{i}", spinner, priority=10)
        kernel.run_ticks(ticks)
        return kernel.context_switches

    switches = benchmark(bench.wrap(run))
    bench.series("rtos_context_switch", work=switches, unit="switches",
                 tier1=True)
    assert switches > 2 * ticks


def test_iss_instruction_throughput(benchmark, quick, bench):
    """Warm ISS instructions per second on the checksum inner loop.

    The first call also assembles the program and generates its ISS
    blocks (both cached on first use); it runs untimed, and its seconds
    are kept as the series' ``cold_seconds``.
    """
    data = bytes(range(256)) * 4

    def run():
        memory = Memory(0x1000)
        memory.store_bytes(0x100, data)
        cpu = IssCpu(checksum_program(), memory)
        cpu.write_reg(1, 0x100)
        cpu.write_reg(2, len(data))
        cpu.run()
        return cpu.instructions_retired

    bench.measure(run)
    cold_seconds = bench.last_seconds
    retired = benchmark(bench.wrap(run))
    bench.series("iss_checksum", work=retired, unit="instructions",
                 tier1=True, cold_seconds=cold_seconds)
    assert retired > len(data)


def test_iss_chunked_throughput(benchmark, quick, bench):
    """Warm ISS instructions per second on the same checksum, drained
    through ``run_program`` in the 64-instruction chunks that every
    co-simulation workload runs, so a chunk starts mid-loop.

    The cold first call runs untimed, as above, and is kept as
    ``cold_seconds``.  Not tier-1: a single sample does not measure
    code under a 20% gate.
    """
    data = bytes(range(256)) * 4

    def run():
        memory = Memory(0x1000)
        memory.store_bytes(0x100, data)
        cpu = IssCpu(checksum_program(), memory)
        cpu.write_reg(1, 0x100)
        cpu.write_reg(2, len(data))
        for _work in run_program(cpu, 64):
            pass
        return cpu.instructions_retired

    bench.measure(run)
    cold_seconds = bench.last_seconds
    retired = benchmark(bench.wrap(run))
    bench.series("iss_checksum_chunked", work=retired, unit="instructions",
                 cold_seconds=cold_seconds)
    assert retired > len(data)


def test_checksum_throughput(benchmark, quick, bench):
    data = bytes(range(256)) * (2 if quick else 16)

    def run():
        return checksum16(data)

    value = benchmark(bench.wrap(run))
    bench.series("checksum16", work=len(data), unit="bytes")
    assert 0 <= value <= 0xFFFF


def test_codec_roundtrip_throughput(benchmark, quick, bench):
    """Messages encoded and decoded per second: per round, one message
    of every layout the TCP link sends, each with its own fence count
    where the link wraps it."""
    packet = Packet.build(1, 2, 3, bytes(64))
    messages = [
        Counted(3, ClockGrant(seq=7, ticks=200)),
        Counted(12, TimeReport(seq=7, board_ticks=1400)),
        Counted(4, Interrupt(vector=2, master_cycle=1234)),
        DataRead(seq=12, address=0x10),
        DataWrite(seq=13, address=0x14, value=1),
        DataReply(seq=12, value=0xBEEF),
        DataWrite(seq=14, address=0x18, value=packet.to_bytes()),
    ]
    rounds = 10 if quick else 100

    def run():
        for _ in range(rounds):
            decoded = [decode(encode(message)[4:]) for message in messages]
        return decoded

    decoded = benchmark(bench.wrap(run))
    bench.series("codec_roundtrip", work=rounds * len(messages),
                 unit="roundtrips")
    assert decoded == messages


def test_tcp_data_round_trip(benchmark, quick, bench):
    """DATA reads per second over a loopback :class:`TcpLink`: per
    window a board thread makes *reads* ``data_read`` round trips and
    reports, while the master serves them inside ``recv_report``, as a
    threaded window does.  Not tier-1: it times the host's loopback
    stack and thread wake-ups as much as the code."""
    reads = 20 if quick else 200
    link = TcpLink()
    link.data_server = lambda op, address, value: address
    board = link.board

    def board_loop():
        while True:
            grant = board.recv_grant()
            if grant.ticks == 0:
                return
            for address in range(reads):
                board.data_read(address)
            board.send_report(TimeReport(seq=grant.seq,
                                         board_ticks=grant.ticks))

    thread = threading.Thread(target=board_loop, daemon=True)
    thread.start()
    seq = [0]

    def run():
        seq[0] += 1
        link.master.send_grant(ClockGrant(seq=seq[0], ticks=1))
        return link.master.recv_report(timeout=5.0)

    try:
        report = benchmark(bench.wrap(run))
    finally:
        link.master.send_grant(ClockGrant(seq=seq[0] + 1, ticks=0))
        thread.join(timeout=5.0)
        link.close()
    bench.series("tcp_data_round_trip", work=reads, unit="round trips")
    assert report == TimeReport(seq=seq[0], board_ticks=1)


def test_packet_build_parse_throughput(benchmark, quick, bench):
    payload = bytes(range(64))
    rounds = 10 if quick else 100

    def run():
        for i in range(rounds):
            packet = Packet.build(1, 2, i, payload)
            Packet.from_bytes(packet.to_bytes())
        return packet

    packet = benchmark(bench.wrap(run))
    bench.series("packet_build_parse", work=rounds, unit="roundtrips")
    assert packet.is_valid()
