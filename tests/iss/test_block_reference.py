"""The block-compiled ISS against an independent reference interpreter.

``Reference`` executes one instruction at a time, written straight from
the ISA's definition (``repro.iss.isa``) and the timing table.  Every
program runs on both, chunk by chunk through ``run_program``, and at
every chunk boundary registers, pc, cycles, retirement, the op
histogram and memory (contents and access counters) must agree.
"""

import operator
import sys
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.board import Memory  # noqa: E402
from repro.difftest.progbuilder import MAX_FRAGMENTS, build_program  # noqa: E402
from repro.errors import IssError, ReproError  # noqa: E402
from repro.iss import (  # noqa: E402
    IssCpu,
    TimingModel,
    assemble,
    checksum_program,
    fibonacci_program,
    memcpy_program,
    run_program,
)
from repro.iss.isa import (  # noqa: E402
    ACCESS_WIDTH,
    ALL_OPCODES,
    ALU2I,
    ALU3,
    BRANCHES,
    JUMPS,
    LOADS,
    NUM_REGS,
    STORES,
    Instruction,
    Program,
)

MASK = 0xFFFFFFFF
#: One checksum-loop iteration is 8 instructions: chunks of exactly
#: one iteration and of one more are both covered.
CHUNKS = (1, 3, 7, 8, 9, 64, None)


def signed(value):
    return value - (1 << 32) if value >> 31 else value


ALU = {
    "add": operator.add, "sub": operator.sub, "and": operator.and_,
    "or": operator.or_, "xor": operator.xor,
    "sltu": lambda a, b: int(a < b),
    "slt": lambda a, b: int(signed(a) < signed(b)),
    "shl": lambda a, imm: a << (imm & 31),
    "shr": lambda a, imm: a >> (imm & 31),
    "sar": lambda a, imm: signed(a) >> (imm & 31),
}
ALU.update(addi=ALU["add"], andi=ALU["and"], ori=ALU["or"], xori=ALU["xor"])
TAKEN = {
    "beq": operator.eq, "bne": operator.ne, "bltu": operator.lt,
    "bgeu": operator.ge,
    "blt": lambda a, b: signed(a) < signed(b),
    "bge": lambda a, b: signed(a) >= signed(b),
}


class Reference:
    """One instruction at a time, straight from the ISA definition."""

    def __init__(self, program, memory, timing):
        self.program, self.memory, self.timing = program, memory, timing
        self.regs = [0] * NUM_REGS
        self.pc = 0
        self.halted = False
        self.cycles = 0
        self.retired = 0
        self.histogram = Counter()
        for address, blob in program.data:
            memory.store_bytes(address, blob)

    def write(self, index, value):
        if index:
            self.regs[index] = value & MASK

    def step(self):
        if not 0 <= self.pc < len(self.program.instructions):
            raise IssError(f"pc {self.pc} outside the program")
        instr = self.program.instructions[self.pc]
        op, a, b = instr.op, self.regs[instr.ra], self.regs[instr.rb]
        next_pc, taken = self.pc + 1, False
        if op in ALU3:
            self.write(instr.rd, ALU[op](a, b))
        elif op in ALU2I:
            self.write(instr.rd, ALU[op](a, instr.imm))
        elif op in LOADS:
            self.write(instr.rd,
                       self.memory.load(a + instr.imm, ACCESS_WIDTH[op]))
        elif op in STORES:
            self.memory.store(b + instr.imm, a, ACCESS_WIDTH[op])
        elif op in BRANCHES:
            taken = TAKEN[op](a, b)
            if taken:
                next_pc = instr.imm
        elif op == "jal":
            self.write(instr.rd, self.pc + 1)
            next_pc, taken = instr.imm, True
        elif op == "jr":
            next_pc, taken = a, True
        elif op == "ldi":
            self.write(instr.rd, instr.imm)
        elif op == "mov":
            self.write(instr.rd, a)
        elif op == "halt":
            self.halted = True
        self.pc = next_pc
        self.cycles += self.timing.cost(op, taken)
        self.retired += 1
        self.histogram[op] += 1

    def run(self, limit):
        for _ in range(limit):
            if self.halted:
                return
            self.step()


def reference_chunks(ref, chunk, budget):
    """Yield after every chunk, at the points ``run_program`` yields."""
    spent = 0
    while not ref.halted:
        limit = min(chunk, budget - spent)
        before = ref.retired
        ref.run(limit)
        spent += ref.retired - before
        if not ref.halted and limit < chunk:
            raise IssError("did not halt")
        yield


def cpu_state(cpu, memory):
    return {"regs": list(cpu.regs), "pc": cpu.pc, "halted": cpu.halted,
            "cycles": cpu.cycles, "retired": cpu.instructions_retired,
            "histogram": cpu.op_histogram, "memory": memory.snapshot()}


def reference_state(ref):
    return {"regs": list(ref.regs), "pc": ref.pc, "halted": ref.halted,
            "cycles": ref.cycles, "retired": ref.retired,
            "histogram": dict(ref.histogram),
            "memory": ref.memory.snapshot()}


def record(chunks, state):
    """The state after every chunk, then the error that ended the run."""
    states, error = [], None
    try:
        for _ in chunks:
            states.append(state())
    except ReproError as exc:
        error = type(exc).__name__
    return states + [state()], error


def fresh(program, regs, memory_size, timing):
    memory, ref_memory = Memory(memory_size), Memory(memory_size)
    cpu = IssCpu(program, memory, timing)
    ref = Reference(program, ref_memory, timing)
    for index, value in regs.items():
        cpu.write_reg(index, value)
        ref.write(index, value)
    return cpu, memory, ref


def assert_lockstep(program, regs, chunk, memory_size=0x1000,
                    timing=None, budget=10_000_000, setup=None):
    timing = timing or TimingModel()
    cpu, memory, ref = fresh(program, regs, memory_size, timing)
    if setup is not None:
        setup(memory)
        setup(ref.memory)
    if chunk is None:
        def cpu_chunks():
            cpu.run(budget)
            yield

        def ref_chunks():
            ref.run(budget)
            if not ref.halted:
                raise IssError("did not halt")
            yield

        got, want = cpu_chunks(), ref_chunks()
    else:
        got = run_program(cpu, chunk, budget)
        want = reference_chunks(ref, chunk, budget)
    assert record(got, lambda: cpu_state(cpu, memory)) \
        == record(want, lambda: reference_state(ref))
    return cpu


PAYLOAD = bytes(range(7, 256, 3))

BUNDLED = {
    "checksum": (checksum_program, {1: 0x100, 2: len(PAYLOAD)}),
    "checksum-odd": (checksum_program, {1: 0x100, 2: len(PAYLOAD) - 1}),
    "memcpy": (memcpy_program, {1: 0x400, 2: 0x100, 3: len(PAYLOAD)}),
    "fibonacci": (fibonacci_program, {1: 24}),
}

#: Every opcode, r0 as a destination, signed and unsigned compares
#: both ways, sub-word memory and a ``jal``/``jr`` call.
EVERY_OP = """
    ldi   r1, -5
    ldi   r2, 3
    ldi   r0, 9
    add   r3, r1, r2
    sub   r4, r2, r1
    and   r5, r1, r2
    or    r6, r1, r2
    xor   r7, r1, r2
    sltu  r8, r1, r2
    slt   r9, r1, r2
    addi  r10, r1, -7
    andi  r11, r1, 0xf0
    ori   r12, r2, -16
    xori  r13, r1, 0x55
    shl   r14, r1, 35
    shr   r15, r1, 4
    sar   r3, r1, 4
    mov   r0, r1
    nop
    ldi   r4, 0x200
    st    r1, 0(r4)
    sth   r1, 4(r4)
    stb   r1, 6(r4)
    ld    r5, 0(r4)
    ldh   r6, 4(r4)
    ldb   r7, 6(r4)
    ld    r0, 0(r4)
    blt   r1, r2, signed_lt
    halt
signed_lt:
    bltu  r1, r2, wrong
    bge   r2, r1, signed_ge
    halt
signed_ge:
    bgeu  r1, r2, unsigned_ge
    halt
unsigned_ge:
    beq   r1, r1, equal
    halt
equal:
    bne   r1, r1, wrong
    jal   r15, callee
    addi  r1, r1, 1
    halt
callee:
    addi  r2, r2, 100
    jr    r15
wrong:
    ldi   r1, 0xbad
    halt
"""


def with_payload(memory):
    memory.store_bytes(0x100, PAYLOAD)


class TestBundledPrograms:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_matches_reference_at_every_boundary(self, name, chunk):
        build, regs = BUNDLED[name]
        assert_lockstep(build(), regs, chunk, setup=with_payload)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_every_opcode(self, chunk):
        cpu = assert_lockstep(assemble(EVERY_OP), {}, chunk)
        assert cpu.halted and cpu.read_reg(1) == (-5 + 1) & MASK
        assert set(cpu.op_histogram) == set(ALL_OPCODES)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_other_timing_model(self, chunk):
        timing = TimingModel(
            cycles={op: 1 + len(op) for op in ALL_OPCODES},
            branch_taken_penalty=3)
        build, regs = BUNDLED["checksum"]
        assert_lockstep(build(), regs, chunk, timing=timing,
                        setup=with_payload)


#: A checksum-style loop over the last bytes of a 0x1000-byte RAM: the
#: second load of its second block walks off the end after
#: ``{iterations}`` whole iterations (each reads 2 bytes, stores 1).
#: The setup jumps into the loop at pc ``{entry}``.
OFF_THE_END = """
    ldi   r4, {cursor}
    ldi   r5, 0x2000
    jal   r0, {entry}
loop:
    beq   r4, r5, done
    ldb   r7, 0(r4)
    stb   r7, 0(r4)
    ldb   r8, 1(r4)
    add   r3, r3, r8
    addi  r4, r4, 2
    jal   r0, loop
done:
    halt
"""

#: Loops that head no region.  ``cost``: its ``beq`` is taken into its
#: own fall-through, so it costs more taken than not.  ``jr``: the loop
#: closes through a register.
NO_REGION = {
    "cost": """
        ldi   r1, 9
    loop:
        addi  r1, r1, -1
        beq   r1, r0, next
    next:
        bne   r1, r0, loop
        halt
    """,
    "jr": """
        ldi   r1, 9
        ldi   r2, 2
    loop:
        addi  r1, r1, -1
        beq   r1, r0, done
        jr    r2
    done:
        halt
    """,
}


def chain_loop(blocks):
    """A loop whose path is *blocks* blocks, each closing in a branch
    that leaves it only after the last iteration."""
    body = "\n".join(f"    addi r2, r2, {n}\n    beq r1, r0, done"
                     for n in range(1, blocks))
    return f"""
        ldi   r1, 12
    loop:
        addi  r1, r1, -1
{body}
        jal   r0, loop
    done:
        halt
    """


def generated_calls(cpu, chunk):
    """The generated functions each ``run_program`` chunk called."""
    calls = [[]]

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith("<iss ") \
                and code.co_name != "<module>":
            calls[-1].append(code.co_name)

    sys.setprofile(profile)
    try:
        for _work in run_program(cpu, chunk):
            calls.append([])
    finally:
        sys.setprofile(None)
    return calls


class TestLoopRegions:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("iterations", [0, 1, 5, 20])
    def test_loop_walks_off_the_end_of_ram(self, iterations, chunk):
        # Entered at every pc of its path, the region settles the
        # completed runs and the faulting one's prefix like the
        # reference does.
        for offset in range(7):
            program = assemble(OFF_THE_END.format(
                cursor=0x1000 - 2 * iterations - 1, entry=3 + offset))
            loop = program.labels["loop"]
            cpu = assert_lockstep(program, {}, chunk)
            assert cpu._blocks.blocks[loop + offset][2] is not None
            assert program.instructions[cpu.pc].op in LOADS
            assert not cpu.halted
            if offset == 0:
                assert cpu.pc == loop + 3
                assert cpu.instructions_retired == 3 + 7 * iterations + 3

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("name", sorted(NO_REGION))
    def test_loops_without_a_region_run_as_blocks(self, name, chunk):
        cpu = assert_lockstep(assemble(NO_REGION[name]), {}, chunk)
        entered = [entry for entry in cpu._blocks.blocks if entry]
        assert entered and all(entry[2] is None for entry in entered)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("blocks", [8, 9])
    def test_a_region_path_has_at_most_eight_blocks(self, blocks, chunk):
        cpu = assert_lockstep(assemble(chain_loop(blocks)), {}, chunk)
        regions = [entry for entry in cpu._blocks.blocks
                   if entry and entry[2]]
        assert bool(regions) == (blocks == 8)

    @pytest.mark.parametrize("build, regs, rotations", [
        (checksum_program, {1: 0x100, 2: 1024}, 1),
        # memcpy's 6-instruction loop starts 64-instruction chunks at
        # changing pcs, each the head of its own rotation.
        (memcpy_program, {1: 0x800, 2: 0x100, 3: 1024}, 3),
    ])
    def test_steady_state_chunk_is_one_call(self, build, regs, rotations):
        memory = Memory(0x1000)
        memory.store_bytes(0x100, bytes(range(256)) * 4)
        cpu = IssCpu(build(), memory)
        for index, value in regs.items():
            cpu.write_reg(index, value)
        calls = generated_calls(cpu, 64)
        assert cpu.halted
        steady = calls[1:-2]
        assert len(steady) >= 60
        assert all(len(chunk) == 1 and chunk[0].startswith("loop_")
                   for chunk in steady), steady
        assert len({chunk[0] for chunk in steady}) == rotations


class TestGeneratedPrograms:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           fragments=st.integers(min_value=1, max_value=MAX_FRAGMENTS))
    def test_progbuilder_programs(self, seed, fragments):
        program = build_program(seed, num_fragments=fragments).program
        for chunk in CHUNKS:
            assert_lockstep(program, {}, chunk, memory_size=64 * 1024,
                            budget=1_000_000)


def instructions(size):
    """Random instructions whose memory accesses go through ``r0`` at
    valid addresses, or at one past the end of memory."""
    reg = st.integers(min_value=0, max_value=NUM_REGS - 1)
    imm = st.integers(min_value=-(1 << 33), max_value=1 << 33)
    target = st.integers(min_value=0, max_value=size)
    address = st.sampled_from([0x100, 0x104, 0x1F8, 0x1000])
    ops = [op for op in ALL_OPCODES if op != "jr"]

    def build(op):
        if op in LOADS:
            return st.builds(Instruction, st.just(op), rd=reg, imm=address)
        if op in STORES:
            return st.builds(Instruction, st.just(op), ra=reg, imm=address)
        if op in BRANCHES:
            return st.builds(Instruction, st.just(op), ra=reg, rb=reg,
                             imm=target)
        if op in JUMPS:
            return st.builds(Instruction, st.just(op), rd=reg, imm=target)
        return st.builds(Instruction, st.just(op), rd=reg, ra=reg, rb=reg,
                         imm=imm)

    return st.sampled_from(ops).flatmap(build)


random_programs = st.integers(min_value=1, max_value=24).flatmap(
    lambda size: st.lists(instructions(size), min_size=size, max_size=size))


class TestRandomPrograms:
    @settings(max_examples=100, deadline=None)
    @given(body=random_programs,
           regs=st.dictionaries(st.integers(1, NUM_REGS - 1),
                                st.integers(0, MASK), max_size=6))
    def test_random_programs(self, body, regs):
        # Loops, faults, falling off the end and budget exhaustion all
        # end both runs at the same instruction.
        program = Program(instructions=tuple(body))
        for chunk in CHUNKS:
            assert_lockstep(program, regs, chunk, budget=300)


class TestSnapshotInsideBlock:
    @pytest.mark.parametrize("chunk", [3, 7])
    def test_restore_mid_block_then_finish(self, chunk):
        program = checksum_program()
        regs = BUNDLED["checksum"][1]
        timing = TimingModel()
        cpu, memory, ref = fresh(program, regs, 0x1000, timing)
        with_payload(memory)
        with_payload(ref.memory)
        chunks = run_program(cpu, chunk)
        for _ in chunks:
            # Stop in the loop, where the straight-line run continues
            # through pc: this chunk ended inside a block.
            previous = program.instructions[cpu.pc - 1].op
            if cpu.instructions_retired > 40 \
                    and previous not in BRANCHES + JUMPS:
                break
        assert not cpu.halted
        state, image = cpu.snapshot(), memory.snapshot()

        restored_memory = Memory(0x1000)
        restored = IssCpu(program, restored_memory, timing)
        restored_memory.restore(image)
        restored.restore(state)
        for _ in chunks:
            pass
        for _ in run_program(restored, chunk):
            pass
        ref.run(10_000_000)
        want = reference_state(ref)
        assert cpu_state(cpu, memory) == want
        assert cpu_state(restored, restored_memory) == want
