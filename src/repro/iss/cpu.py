"""The instruction-set simulator core.

Programs are *pre-decoded*: :func:`_compile_program` turns every
:class:`~repro.iss.isa.Instruction` into a specialized closure with its
operand indices, immediate, successor pc and cycle cost already bound,
so the per-instruction hot path does no string comparison, no
``Instruction`` attribute access and no timing-table lookup.  Each
closure returns the next pc (``None`` after ``halt``) and bumps a
per-pc retired counter; ``instructions_retired`` and ``op_histogram``
are materialized from those counters on demand instead of being paid
per instruction.  The compiled form is cached on the
:class:`~repro.iss.isa.Program` (keyed by the timing model's contents)
— CPUs instantiated per packet reuse it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import IssError
from repro.iss.isa import ACCESS_WIDTH, BRANCHES, Instruction, NUM_REGS, Program
from repro.iss.timing import TimingModel
from repro.obs.recorder import NULL_RECORDER

_MASK32 = 0xFFFFFFFF


def _signed(value: int) -> int:
    value &= _MASK32
    return value - (1 << 32) if value >> 31 else value


class IssCpu:
    """Interprets a :class:`~repro.iss.isa.Program` with cycle accounting.

    Memory is any object with ``load(addr, width)`` and
    ``store(addr, value, width)`` — a :class:`repro.board.memory.Memory`
    or a :class:`repro.board.bus.Bus` with MMIO regions.
    """

    #: Span recorder; replaced per-session when tracing is enabled.
    obs = NULL_RECORDER

    def __init__(self, program: Program, memory,
                 timing: Optional[TimingModel] = None) -> None:
        self.program = program
        self.memory = memory
        self.timing = timing or TimingModel()
        self.regs: List[int] = [0] * NUM_REGS
        self.pc = 0
        self.halted = False
        self.cycles = 0
        #: Counter contributions carried across ``restore``.
        self._retired_base = 0
        self._histogram_base: Dict[str, int] = {}
        #: Retired count per program index; ``instructions_retired`` and
        #: ``op_histogram`` fold these on demand so the hot path pays
        #: one list increment, not a string-keyed dict update plus an
        #: attribute bump per instruction.
        self._pc_counts: List[int] = [0] * len(program.instructions)
        self._ops = _compile_program(program, self.timing)
        self._load_data()

    def _load_data(self) -> None:
        for address, blob in self.program.data:
            self.memory.store_bytes(address, blob) if hasattr(
                self.memory, "store_bytes"
            ) else self._store_blob(address, blob)

    def _store_blob(self, address: int, blob: bytes) -> None:
        for offset, byte in enumerate(blob):
            self.memory.store(address + offset, byte, 1)

    # ------------------------------------------------------------------
    # Register access (r0 hardwired to zero)
    # ------------------------------------------------------------------
    def read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = value & _MASK32

    # ------------------------------------------------------------------
    # Accounting (materialized from the per-pc counters)
    # ------------------------------------------------------------------
    @property
    def instructions_retired(self) -> int:
        return self._retired_base + sum(self._pc_counts)

    @property
    def op_histogram(self) -> Dict[str, int]:
        """op -> retired count (profiling / annotation extraction)."""
        histogram = dict(self._histogram_base)
        instructions = self.program.instructions
        for index, count in enumerate(self._pc_counts):
            if count:
                op = instructions[index].op
                histogram[op] = histogram.get(op, 0) + count
        return histogram

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Architectural + accounting state (registers, PC, counters).

        Memory is snapshotted by its owner (the board), not here, so a
        CPU sharing the system bus is not serialized twice.
        """
        return {
            "regs": list(self.regs),
            "pc": self.pc,
            "halted": self.halted,
            "instructions_retired": self.instructions_retired,
            "cycles": self.cycles,
            "op_histogram": self.op_histogram,
        }

    def restore(self, state: dict) -> None:
        for key in ("regs", "pc", "halted", "instructions_retired",
                    "cycles", "op_histogram"):
            if key not in state:
                raise IssError(f"cpu snapshot missing {key!r}")
        if len(state["regs"]) != NUM_REGS:
            raise IssError(
                f"cpu snapshot has {len(state['regs'])} registers, "
                f"expected {NUM_REGS}"
            )
        self.regs = [value & _MASK32 for value in state["regs"]]
        self.regs[0] = 0
        self.pc = state["pc"]
        self.halted = state["halted"]
        self._retired_base = state["instructions_retired"]
        self.cycles = state["cycles"]
        self._histogram_base = dict(state["op_histogram"])
        self._pc_counts = [0] * len(self.program.instructions)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> Instruction:
        """Execute one instruction; returns it."""
        if self.halted:
            raise IssError("stepping a halted CPU")
        pc = self.pc
        self._run(1, chunk=1)
        return self.program.instructions[pc]

    def run(self, max_instructions: int = 10_000_000) -> Tuple[int, int]:
        """Run until ``halt``; returns ``(instructions, cycles)``."""
        if not self.obs.enabled:
            self._run(max_instructions)
            return self.instructions_retired, self.cycles
        instructions = self.instructions_retired
        cycles = self.cycles
        token = self.obs.begin("iss", "run", sim=self.cycles)
        try:
            self._run(max_instructions)
        finally:
            self.obs.end(
                token, sim=self.cycles,
                instructions=self.instructions_retired - instructions,
                cycles=self.cycles - cycles,
            )
        return self.instructions_retired, self.cycles

    def _run(self, max_instructions: int, chunk: Optional[int] = None,
             spent: int = 0) -> int:
        """The one execution loop; returns how many instructions ran.

        Runs until ``halt`` or, with *chunk*, until that many
        instructions have run.  *spent* instructions of the
        *max_instructions* budget are already used; needing one past
        the budget raises.
        """
        if self.halted:
            return 0
        ops = self._ops
        size = len(ops)
        remaining = max_instructions - spent
        # Whether the chunk, not the budget, ends this call.
        bounded = chunk is not None and chunk <= remaining
        limit = chunk if bounded else remaining
        executed = 0
        pc: Optional[int] = self.pc
        try:
            while pc is not None and executed < limit:
                if not 0 <= pc < size:
                    raise IssError(f"pc {pc} outside the program")
                pc = ops[pc](self)
                executed += 1
        finally:
            # ``halt`` closures set pc themselves (and return None);
            # everything else leaves the loop-local pc to write back —
            # including mid-instruction faults, which must not advance.
            if pc is not None:
                self.pc = pc
        if pc is not None and not bounded:
            raise IssError(
                f"program did not halt within {max_instructions} "
                "instructions"
            )
        return executed


# ----------------------------------------------------------------------
# Pre-decode: Instruction -> specialized closure
# ----------------------------------------------------------------------

def _compile_instruction(index: int, instr: Instruction,
                         timing: TimingModel) -> Callable:
    """One instruction at program index *index* as a closure.

    Every closure charges its pre-looked-up cycle cost, bumps the
    per-pc retired counter and returns the next pc (``None`` for
    ``halt``, which also stores the final pc itself).
    """
    op = instr.op
    rd, ra, rb, imm = instr.rd, instr.ra, instr.rb, instr.imm
    cost = timing.cost(op, False)
    next_pc = index + 1

    # Register file invariant the closures rely on: every entry of
    # ``cpu.regs`` is already masked to 32 bits and ``regs[0]`` is 0
    # (writes to r0 are squashed, ``restore`` re-zeroes it).

    if op in ("add", "sub", "addi"):
        # The only ALU results that can leave the 32-bit range.
        if op == "add":
            def execute(cpu):
                regs = cpu.regs
                if rd:
                    regs[rd] = (regs[ra] + regs[rb]) & _MASK32
                cpu.cycles += cost
                cpu._pc_counts[index] += 1
                return next_pc
        elif op == "sub":
            def execute(cpu):
                regs = cpu.regs
                if rd:
                    regs[rd] = (regs[ra] - regs[rb]) & _MASK32
                cpu.cycles += cost
                cpu._pc_counts[index] += 1
                return next_pc
        else:
            def execute(cpu):
                regs = cpu.regs
                if rd:
                    regs[rd] = (regs[ra] + imm) & _MASK32
                cpu.cycles += cost
                cpu._pc_counts[index] += 1
                return next_pc

    elif op in ("and", "or", "xor"):
        if op == "and":
            def execute(cpu):
                regs = cpu.regs
                if rd:
                    regs[rd] = regs[ra] & regs[rb]
                cpu.cycles += cost
                cpu._pc_counts[index] += 1
                return next_pc
        elif op == "or":
            def execute(cpu):
                regs = cpu.regs
                if rd:
                    regs[rd] = regs[ra] | regs[rb]
                cpu.cycles += cost
                cpu._pc_counts[index] += 1
                return next_pc
        else:
            def execute(cpu):
                regs = cpu.regs
                if rd:
                    regs[rd] = regs[ra] ^ regs[rb]
                cpu.cycles += cost
                cpu._pc_counts[index] += 1
                return next_pc

    elif op in ("sltu", "slt"):
        if op == "sltu":
            def execute(cpu):
                regs = cpu.regs
                if rd:
                    regs[rd] = 1 if regs[ra] < regs[rb] else 0
                cpu.cycles += cost
                cpu._pc_counts[index] += 1
                return next_pc
        else:
            def execute(cpu):
                regs = cpu.regs
                if rd:
                    regs[rd] = (1 if _signed(regs[ra]) < _signed(regs[rb])
                                else 0)
                cpu.cycles += cost
                cpu._pc_counts[index] += 1
                return next_pc

    elif op in ("andi", "ori", "xori"):
        # imm is applied masked so the result stays in range.
        masked_imm = imm & _MASK32
        if op == "andi":
            def execute(cpu):
                regs = cpu.regs
                if rd:
                    regs[rd] = regs[ra] & masked_imm
                cpu.cycles += cost
                cpu._pc_counts[index] += 1
                return next_pc
        elif op == "ori":
            def execute(cpu):
                regs = cpu.regs
                if rd:
                    regs[rd] = regs[ra] | masked_imm
                cpu.cycles += cost
                cpu._pc_counts[index] += 1
                return next_pc
        else:
            def execute(cpu):
                regs = cpu.regs
                if rd:
                    regs[rd] = regs[ra] ^ masked_imm
                cpu.cycles += cost
                cpu._pc_counts[index] += 1
                return next_pc

    elif op in ("shl", "shr", "sar"):
        shift = imm & 31
        if op == "shl":
            def execute(cpu):
                regs = cpu.regs
                if rd:
                    regs[rd] = (regs[ra] << shift) & _MASK32
                cpu.cycles += cost
                cpu._pc_counts[index] += 1
                return next_pc
        elif op == "shr":
            def execute(cpu):
                regs = cpu.regs
                if rd:
                    regs[rd] = regs[ra] >> shift
                cpu.cycles += cost
                cpu._pc_counts[index] += 1
                return next_pc
        else:
            def execute(cpu):
                regs = cpu.regs
                if rd:
                    regs[rd] = (_signed(regs[ra]) >> shift) & _MASK32
                cpu.cycles += cost
                cpu._pc_counts[index] += 1
                return next_pc

    elif op in ("ld", "ldh", "ldb"):
        width = ACCESS_WIDTH[op]

        def execute(cpu):
            regs = cpu.regs
            # The load always happens (MMIO reads have side effects);
            # only the writeback is squashed for rd = r0.
            value = cpu.memory.load(regs[ra] + imm, width)
            if rd:
                regs[rd] = value & _MASK32
            cpu.cycles += cost
            cpu._pc_counts[index] += 1
            return next_pc

    elif op in ("st", "sth", "stb"):
        width = ACCESS_WIDTH[op]

        def execute(cpu):
            regs = cpu.regs
            cpu.memory.store(regs[rb] + imm, regs[ra], width)
            cpu.cycles += cost
            cpu._pc_counts[index] += 1
            return next_pc

    elif op in BRANCHES:
        cost_taken = timing.cost(op, True)
        if op == "beq":
            def execute(cpu):
                regs = cpu.regs
                cpu._pc_counts[index] += 1
                if regs[ra] == regs[rb]:
                    cpu.cycles += cost_taken
                    return imm
                cpu.cycles += cost
                return next_pc
        elif op == "bne":
            def execute(cpu):
                regs = cpu.regs
                cpu._pc_counts[index] += 1
                if regs[ra] != regs[rb]:
                    cpu.cycles += cost_taken
                    return imm
                cpu.cycles += cost
                return next_pc
        elif op == "bltu":
            def execute(cpu):
                regs = cpu.regs
                cpu._pc_counts[index] += 1
                if regs[ra] < regs[rb]:
                    cpu.cycles += cost_taken
                    return imm
                cpu.cycles += cost
                return next_pc
        elif op == "bgeu":
            def execute(cpu):
                regs = cpu.regs
                cpu._pc_counts[index] += 1
                if regs[ra] >= regs[rb]:
                    cpu.cycles += cost_taken
                    return imm
                cpu.cycles += cost
                return next_pc
        elif op == "blt":
            def execute(cpu):
                regs = cpu.regs
                cpu._pc_counts[index] += 1
                if _signed(regs[ra]) < _signed(regs[rb]):
                    cpu.cycles += cost_taken
                    return imm
                cpu.cycles += cost
                return next_pc
        else:  # bge
            def execute(cpu):
                regs = cpu.regs
                cpu._pc_counts[index] += 1
                if _signed(regs[ra]) >= _signed(regs[rb]):
                    cpu.cycles += cost_taken
                    return imm
                cpu.cycles += cost
                return next_pc

    elif op == "jal":
        cost_taken = timing.cost(op, True)
        link = (index + 1) & _MASK32

        def execute(cpu):
            if rd:
                cpu.regs[rd] = link
            cpu.cycles += cost_taken
            cpu._pc_counts[index] += 1
            return imm

    elif op == "jr":
        cost_taken = timing.cost(op, True)

        def execute(cpu):
            cpu.cycles += cost_taken
            cpu._pc_counts[index] += 1
            return cpu.regs[ra]

    elif op == "ldi":
        value = imm & _MASK32

        def execute(cpu):
            if rd:
                cpu.regs[rd] = value
            cpu.cycles += cost
            cpu._pc_counts[index] += 1
            return next_pc

    elif op == "mov":

        def execute(cpu):
            regs = cpu.regs
            if rd:
                regs[rd] = regs[ra]
            cpu.cycles += cost
            cpu._pc_counts[index] += 1
            return next_pc

    elif op == "nop":

        def execute(cpu):
            cpu.cycles += cost
            cpu._pc_counts[index] += 1
            return next_pc

    elif op == "halt":

        def execute(cpu):
            cpu.halted = True
            cpu.pc = next_pc
            cpu.cycles += cost
            cpu._pc_counts[index] += 1
            return None

    else:  # pragma: no cover - isa validation makes this unreachable
        raise IssError(f"unimplemented opcode {op!r}")

    return execute


def _timing_key(timing: TimingModel) -> tuple:
    return (tuple(sorted(timing.cycles.items())),
            timing.branch_taken_penalty)


def _compile_program(program: Program,
                     timing: TimingModel) -> Tuple[Callable, ...]:
    """Pre-decode *program*, cached on the program per timing model."""
    key = _timing_key(timing)
    cache = getattr(program, "_iss_compiled", None)
    if cache is None:
        cache = {}
        try:
            program._iss_compiled = cache
        except AttributeError:  # pragma: no cover - exotic Program stand-in
            cache = None
    if cache is not None and key in cache:
        return cache[key]
    ops = tuple(_compile_instruction(index, instr, timing)
                for index, instr in enumerate(program.instructions))
    if cache is not None:
        cache[key] = ops
    return ops
