"""Tests for the ISS core."""

import pytest

from repro.board import Memory
from repro.board.bus import Bus
from repro.board.memory import MemoryError_
from repro.errors import IssError
from repro.iss import IssCpu, TimingModel, assemble, run_program
from repro.iss.isa import Instruction, Program


def run(source, regs=None, memory=None):
    cpu = IssCpu(assemble(source), memory or Memory(0x1000))
    for index, value in (regs or {}).items():
        cpu.write_reg(index, value)
    cpu.run()
    return cpu


class TestAlu:
    def test_arith(self):
        cpu = run("add r3, r1, r2\n sub r4, r1, r2\n halt",
                  regs={1: 10, 2: 3})
        assert cpu.read_reg(3) == 13
        assert cpu.read_reg(4) == 7

    def test_wrapping(self):
        cpu = run("add r3, r1, r2\n halt",
                  regs={1: 0xFFFFFFFF, 2: 2})
        assert cpu.read_reg(3) == 1

    def test_logic(self):
        cpu = run("and r3, r1, r2\n or r4, r1, r2\n xor r5, r1, r2\n halt",
                  regs={1: 0b1100, 2: 0b1010})
        assert cpu.read_reg(3) == 0b1000
        assert cpu.read_reg(4) == 0b1110
        assert cpu.read_reg(5) == 0b0110

    def test_shifts(self):
        cpu = run("shl r2, r1, 4\n shr r3, r1, 4\n sar r4, r1, 4\n halt",
                  regs={1: 0x80000010})
        assert cpu.read_reg(2) == 0x00000100
        assert cpu.read_reg(3) == 0x08000001
        assert cpu.read_reg(4) == 0xF8000001

    def test_compare(self):
        cpu = run("sltu r3, r1, r2\n slt r4, r1, r2\n halt",
                  regs={1: 0xFFFFFFFF, 2: 1})
        assert cpu.read_reg(3) == 0   # unsigned: max > 1
        assert cpu.read_reg(4) == 1   # signed: -1 < 1

    def test_r0_hardwired_to_zero(self):
        cpu = run("ldi r0, 99\n mov r1, r0\n halt")
        assert cpu.read_reg(0) == 0
        assert cpu.read_reg(1) == 0


class TestMemoryOps:
    def test_word_load_store(self):
        cpu = run("ldi r1, 0x100\n ldi r2, 0xCAFE\n st r2, 0(r1)\n"
                  " ld r3, 0(r1)\n halt")
        assert cpu.read_reg(3) == 0xCAFE

    def test_byte_and_half(self):
        cpu = run("ldi r1, 0x100\n ldi r2, 0x1234\n sth r2, 0(r1)\n"
                  " ldb r3, 0(r1)\n ldb r4, 1(r1)\n halt")
        assert cpu.read_reg(3) == 0x34  # little endian
        assert cpu.read_reg(4) == 0x12

    def test_data_image_preloaded(self):
        cpu = run("""
            ldi r1, table
            ld  r2, 4(r1)
            halt
            .org 0x200
            table: .word 10, 20, 30
        """)
        assert cpu.read_reg(2) == 20


class TestControlFlow:
    def test_countdown_loop(self):
        cpu = run("""
            ldi r1, 5
            ldi r2, 0
        loop:
            add r2, r2, r1
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        """)
        assert cpu.read_reg(2) == 15

    def test_jal_links_return_address(self):
        cpu = run("""
            jal r15, target
            halt
        target:
            ldi r1, 7
            jr r15
        """)
        assert cpu.read_reg(1) == 7
        assert cpu.halted

    def test_branch_variants(self):
        cpu = run("""
            ldi r1, 5
            ldi r2, 5
            beq r1, r2, eq_ok
            ldi r9, 1
        eq_ok:
            bge r1, r2, ge_ok
            ldi r9, 2
        ge_ok:
            halt
        """)
        assert cpu.read_reg(9) == 0


class TestTimingAndErrors:
    def test_cycle_accounting_with_branch_penalty(self):
        timing = TimingModel()
        cpu = IssCpu(assemble("ldi r1, 1\n beq r1, r1, skip\nskip: halt"),
                     Memory(64), timing)
        cpu.run()
        expected = (timing.cycles["ldi"]
                    + timing.cycles["beq"] + timing.branch_taken_penalty
                    + timing.cycles["halt"])
        assert cpu.cycles == expected

    def test_untaken_branch_has_no_penalty(self):
        timing = TimingModel()
        cpu = IssCpu(assemble("bne r0, r0, skip\nskip: halt"),
                     Memory(64), timing)
        cpu.run()
        assert cpu.cycles == timing.cycles["bne"] + timing.cycles["halt"]

    def test_op_histogram(self):
        cpu = run("ldi r1, 2\n ldi r2, 3\n add r3, r1, r2\n halt")
        assert cpu.op_histogram == {"ldi": 2, "add": 1, "halt": 1}

    def test_runaway_detection(self):
        cpu = IssCpu(assemble("loop: jal r0, loop"), Memory(64))
        with pytest.raises(IssError, match="did not halt"):
            cpu.run(max_instructions=100)

    def test_pc_out_of_range(self):
        cpu = IssCpu(assemble("jr r1\n halt"), Memory(64))
        cpu.write_reg(1, 99)
        with pytest.raises(IssError, match="outside the program"):
            cpu.run(max_instructions=10)

    def test_step_after_halt_rejected(self):
        cpu = IssCpu(assemble("halt"), Memory(64))
        cpu.run()
        with pytest.raises(IssError):
            cpu.step()

    def test_non_integer_immediate_rejected(self):
        program = Program(instructions=(
            Instruction("ldi", rd=1, imm="0; cpu.halted = True"),
            Instruction("halt")))
        cpu = IssCpu(program, Memory(64))
        with pytest.raises(IssError, match="not an integer"):
            cpu.run()
        assert cpu.pc == 0 and cpu.instructions_retired == 0

    def test_timing_model_validation(self):
        with pytest.raises(IssError):
            TimingModel(cycles={"add": 1})  # missing opcodes


class Device:
    """An MMIO device that logs every access and reads as 0xAB."""

    def __init__(self):
        self.log = []

    def load(self, address, width):
        self.log.append(("load", address, width))
        return 0xAB

    def store(self, address, value, width):
        self.log.append(("store", address, value, width))


class TestMemoryFaults:
    """A faulting access mid-block stops exactly at that instruction."""

    SOURCE = """
        ldi  r1, 5
        jal  r0, body
        halt
    body:
        ldi  r2, 0x7fffff00
        addi r3, r1, 1
        mov  r6, r3
        {access}
        addi r5, r1, 2
        halt
    """

    @pytest.mark.parametrize("access", ["ld r4, 0(r2)", "st r1, 8(r2)"])
    @pytest.mark.parametrize("chunk", [None, 1, 2, 3, 64])
    def test_fault_as_fourth_instruction_of_a_block(self, access, chunk):
        timing = TimingModel()
        cpu = IssCpu(assemble(self.SOURCE.format(access=access)),
                     Memory(64), timing)
        with pytest.raises(MemoryError_):
            if chunk is None:
                cpu.run()
            else:
                for _work in run_program(cpu, chunk_instructions=chunk):
                    pass
        # ldi, jal, then the block at 3 retires ldi, addi, mov and
        # faults on its fourth instruction.
        assert cpu.pc == 6
        assert cpu.instructions_retired == 5
        assert cpu.op_histogram == {"ldi": 2, "jal": 1, "addi": 1, "mov": 1}
        assert cpu.cycles == (2 * timing.cycles["ldi"]
                              + timing.cost("jal", True)
                              + timing.cycles["addi"] + timing.cycles["mov"])
        assert [cpu.read_reg(i) for i in range(1, 7)] == \
            [5, 0x7FFFFF00, 6, 0, 0, 6]
        assert not cpu.halted

    def test_every_access_reaches_the_bus(self):
        bus = Bus()
        device = Device()
        bus.map_region("dev", 0x1000, 0x100, device)
        cpu = IssCpu(assemble("""
            ldi  r1, 0x1000
            ld   r0, 4(r1)
            ldb  r2, 8(r1)
            sth  r2, 12(r1)
            halt
        """), bus)
        cpu.run()
        # The load into r0 still happens: MMIO reads have side effects.
        assert device.log == [("load", 0x1004, 4), ("load", 0x1008, 1),
                              ("store", 0x100C, 0xAB, 2)]
        assert bus.accesses == 3
        assert cpu.read_reg(0) == 0 and cpu.read_reg(2) == 0xAB

    @pytest.mark.parametrize("chunk", [None, 1, 3, 5, 64])
    def test_polling_loop_reaches_the_bus_every_iteration(self, chunk):
        # A loop region on a bus still makes one device access per load
        # or store, in program order.
        polls = 12
        bus = Bus()
        device = Device()
        bus.map_region("dev", 0x1000, 0x100, device)
        cpu = IssCpu(assemble(f"""
            ldi  r1, 0x1000
            ldi  r2, {polls}
        poll:
            ld   r0, 4(r1)
            ldb  r3, 8(r1)
            add  r4, r4, r3
            sth  r3, 12(r1)
            addi r2, r2, -1
            bne  r2, r0, poll
            halt
        """), bus)
        if chunk is None:
            cpu.run()
        else:
            for _work in run_program(cpu, chunk_instructions=chunk):
                pass
        # Some pc of the loop heads a region (a rotation of it: the pc a
        # chunk resumes at, not necessarily the loop label).
        assert any(entry is not None and entry[2] is not None
                   for entry in cpu._blocks.blocks[2:8])
        assert device.log == [("load", 0x1004, 4), ("load", 0x1008, 1),
                              ("store", 0x100C, 0xAB, 2)] * polls
        assert bus.accesses == 3 * polls
        assert cpu.read_reg(4) == 0xAB * polls
        assert cpu.instructions_retired == 2 + 6 * polls + 1
