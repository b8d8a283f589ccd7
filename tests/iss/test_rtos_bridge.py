"""Tests for running ISS programs inside RTOS threads."""

import pytest

from repro.board.memory import Memory
from repro.cosim import CosimConfig
from repro.errors import IssError
from repro.iss import IssChecksumVerifier, IssCpu, assemble, run_program
from repro.iss.programs import fibonacci_program
from repro.router.checksum import checksum16
from repro.router.testbench import RouterWorkload, build_router_cosim
from repro.rtos import RtosConfig, RtosKernel


@pytest.fixture
def kernel():
    return RtosKernel(RtosConfig(cycles_per_hw_tick=500))


class TestRunProgram:
    def test_program_result_and_cycle_charge(self, kernel):
        results = []

        def thread_entry():
            cpu = IssCpu(fibonacci_program(), Memory(64))
            cpu.write_reg(1, 12)
            cpu = yield from run_program(cpu, chunk_instructions=8)
            results.append((cpu.read_reg(1), cpu.cycles))

        thread = kernel.create_thread("fib", thread_entry, priority=10)
        kernel.run_ticks(10)
        value, iss_cycles = results[0]
        assert value == 144
        # The thread was charged exactly the ISS-measured cycles.
        assert thread.cycles_consumed == iss_cycles

    def test_preemption_between_chunks(self, kernel):
        """A higher-priority thread interleaves with the ISS run."""
        order = []

        def iss_thread():
            # A long countdown: ~6000 ISS cycles, i.e. a dozen ticks.
            program = assemble("""
                ldi r1, 2000
            loop:
                addi r1, r1, -1
                bne r1, r0, loop
                halt
            """)
            cpu = IssCpu(program, Memory(64))
            yield from run_program(cpu, chunk_instructions=16)
            order.append("iss-done")

        def ticker():
            for _ in range(3):
                from repro.rtos.syscalls import Sleep
                yield Sleep(1)
                order.append("tick")

        kernel.create_thread("iss", iss_thread, priority=10)
        kernel.create_thread("tick", ticker, priority=2)
        kernel.run_ticks(20)
        # Ticks happen while the ISS program is still running.
        assert order.index("tick") < order.index("iss-done")

    def test_runaway_detection(self, kernel):
        def thread_entry():
            cpu = IssCpu(assemble("loop: jal r0, loop"), Memory(64))
            yield from run_program(cpu, max_instructions=100)

        kernel.create_thread("spin", thread_entry, priority=10)
        with pytest.raises(IssError, match="did not halt"):
            kernel.run_ticks(10)

    def test_preemption_points_sit_at_chunk_boundaries(self):
        cpu = IssCpu(assemble("nop\n" * 10 + "halt"), Memory(64))
        retired = [cpu.instructions_retired
                   for _work in run_program(cpu, chunk_instructions=4)]
        assert retired == [4, 8, 11]

    @pytest.mark.parametrize("budget", [8, 10])
    def test_runaway_error_fires_at_the_budget(self, budget):
        cpu = IssCpu(assemble("loop: jal r0, loop"), Memory(64))
        retired = []
        with pytest.raises(IssError, match=f"within {budget} instr"):
            for _work in run_program(cpu, chunk_instructions=4,
                                     max_instructions=budget):
                retired.append(cpu.instructions_retired)
        assert retired == [4, 8]
        assert cpu.instructions_retired == budget

    def test_invalid_chunk(self, kernel):
        def thread_entry():
            cpu = IssCpu(fibonacci_program(), Memory(64))
            yield from run_program(cpu, chunk_instructions=0)

        kernel.create_thread("bad", thread_entry, priority=10)
        with pytest.raises(IssError, match="chunk"):
            kernel.run_ticks(1)


class TestIssChecksumVerifier:
    def test_verifies_correct_and_corrupt(self, kernel):
        verifier = IssChecksumVerifier()
        body = b"some packet body"
        good = checksum16(body)
        outcomes = []

        def thread_entry():
            outcomes.append((yield from verifier.verify(body, good)))
            outcomes.append((yield from verifier.verify(body, good ^ 1)))

        kernel.create_thread("v", thread_entry, priority=10)
        kernel.run_ticks(20)
        assert outcomes == [True, False]
        assert verifier.packets_verified == 2
        assert verifier.cycles_executed > 0


class TestIssTimedCaseStudy:
    def test_router_cosim_with_iss_timing(self):
        workload = RouterWorkload(packets_per_producer=4,
                                  interval_cycles=300,
                                  payload_size=16, corrupt_rate=0.25,
                                  seed=21)
        cosim = build_router_cosim(CosimConfig(t_sync=200), workload,
                                   iss_timing=True)
        cosim.run()
        stats = cosim.stats
        assert stats.handled_fraction() == 1.0
        assert stats.dropped_checksum == stats.generated_corrupt
        verifier = cosim.app.verifier
        assert verifier.packets_verified == stats.generated
        assert verifier.cycles_executed > 0

    def test_iss_timing_functionally_equivalent_to_model(self):
        workload = RouterWorkload(packets_per_producer=4,
                                  interval_cycles=300,
                                  payload_size=16, corrupt_rate=0.25,
                                  seed=21)
        model = build_router_cosim(CosimConfig(t_sync=200), workload)
        model.run()
        iss = build_router_cosim(CosimConfig(t_sync=200), workload,
                                 iss_timing=True)
        iss.run()
        assert model.stats.forwarded == iss.stats.forwarded
        assert model.stats.dropped_checksum == iss.stats.dropped_checksum
