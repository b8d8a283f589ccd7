"""The instruction-set simulator core: a basic-block compiler.

The CPU runs a program one *basic block* at a time.  A block is the
straight-line run of instructions from an entry pc through its first
control transfer (a branch, ``jal``, ``jr`` or ``halt``), or to the end
of the program.  :func:`_generate` emits a block as Python source, with
operand indices, immediates and cycle costs inlined and writes to ``r0``
dropped, and ``exec``s it once.  The generated function charges the
block's summed cycle cost (a closing branch adds its taken or untaken
cost) and returns the next pc.  Blocks are generated on first entry and
cached on the :class:`~repro.iss.isa.Program` per timing model, so CPUs
built per packet reuse them.

Timing stays exact at instruction granularity:

* A block runs whole only if it fits the instructions left in the
  current chunk and budget.  Otherwise the CPU runs the block's longest
  prefix that fits, from the same generator, cached per
  ``(pc, length)``.  A chunk therefore ends after exactly ``chunk``
  instructions, and :meth:`IssCpu.step` runs a prefix of length one.
* Memory is reached only through ``memory.load``/``store``, one call per
  access, so a bus with MMIO sees every access (a load into ``r0``
  included).  An access that raises leaves the instructions before it
  retired and charged, the faulting one neither, and ``pc`` at the
  faulting instruction.
* Retirement is counted once per block entry;
  ``instructions_retired`` and ``op_histogram`` fold those counts on
  demand.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import IssError
from repro.iss.isa import (ACCESS_WIDTH, BRANCHES, JUMPS, LOADS, NUM_REGS,
                           Instruction, Program)
from repro.iss.timing import TimingModel
from repro.obs.recorder import NULL_RECORDER

_MASK32 = 0xFFFFFFFF


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
        self._blocks = _program_blocks(program, self.timing)
        self._reset_counts()
        self._load_data()

    def _reset_counts(self) -> None:
        #: Whole-block entries per entry pc.
        self._block_counts: List[int] = [0] * len(self.program.instructions)
        #: ``(pc, length)`` -> runs of a block cut short, by a chunk
        #: boundary or by a faulting memory access.
        self._partial_counts: Dict[Tuple[int, int], int] = {}

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
    # Accounting (folded from the per-block counters)
    # ------------------------------------------------------------------
    def _retired_per_pc(self) -> List[int]:
        per_pc = [0] * len(self._block_counts)
        blocks = self._blocks.blocks
        runs = [(pc, blocks[pc][1], count)
                for pc, count in enumerate(self._block_counts) if count]
        runs.extend((pc, length, count)
                    for (pc, length), count in self._partial_counts.items())
        for pc, length, count in runs:
            for index in range(pc, pc + length):
                per_pc[index] += count
        return per_pc

    @property
    def instructions_retired(self) -> int:
        return self._retired_base + sum(self._retired_per_pc())

    @property
    def op_histogram(self) -> Dict[str, int]:
        """op -> retired count (profiling / annotation extraction)."""
        histogram = dict(self._histogram_base)
        instructions = self.program.instructions
        for index, count in enumerate(self._retired_per_pc()):
            if count:
                op = instructions[index].op
                histogram[op] = histogram.get(op, 0) + count
        return histogram

    def _count_partial(self, pc: int, length: int) -> None:
        key = (pc, length)
        self._partial_counts[key] = self._partial_counts.get(key, 0) + 1

    def _fault(self, pc: int, done: int, cycles: int) -> None:
        """The memory access at ``pc + done`` raised (generated code).

        The *done* instructions before it retire and their *cycles* are
        charged; ``pc`` stays at the faulting instruction.
        """
        self.cycles += cycles
        if done:
            self._count_partial(pc, done)
        self.pc = pc + done

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
        self._reset_counts()

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
        cache = self._blocks
        blocks = cache.blocks
        counts = self._block_counts
        size = len(blocks)
        remaining = max_instructions - spent
        # Whether the chunk, not the budget, ends this call.
        bounded = chunk is not None and chunk <= remaining
        limit = chunk if bounded else remaining
        left = limit
        pc = self.pc
        while left > 0:
            if not 0 <= pc < size:
                self.pc = pc
                raise IssError(f"pc {pc} outside the program")
            block, length = blocks[pc] or cache.block(pc)
            if length <= left:
                next_pc = block(self)
                counts[pc] += 1
            else:
                length = left
                next_pc = cache.prefix(pc, length)(self)
                self._count_partial(pc, length)
            left -= length
            if next_pc is None:  # halt stored its own pc
                return limit - left
            pc = next_pc
        self.pc = pc
        if not bounded:
            raise IssError(
                f"program did not halt within {max_instructions} "
                "instructions"
            )
        return limit


# ----------------------------------------------------------------------
# Block compiler
# ----------------------------------------------------------------------

#: Ops that end a block.
_CONTROL = frozenset(BRANCHES + JUMPS + ("halt",))

#: Result expression of each register-writing op without a memory
#: access, over operand expressions ``{a}``/``{b}``.  Every register
#: value is already masked to 32 bits and ``regs[0]`` is 0, so only
#: results that can leave the range are masked.  Signed comparisons
#: flip the sign bit to compare unsigned.
_RESULTS = {
    "add": "({a} + {b}) & 0xFFFFFFFF",
    "sub": "({a} - {b}) & 0xFFFFFFFF",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "sltu": "1 if {a} < {b} else 0",
    "slt": "1 if {a} ^ 0x80000000 < {b} ^ 0x80000000 else 0",
    "addi": "({a} + ({imm})) & 0xFFFFFFFF",
    "andi": "{a} & {uimm}",
    "ori": "{a} | {uimm}",
    "xori": "{a} ^ {uimm}",
    "shl": "({a} << {shift}) & 0xFFFFFFFF",
    "shr": "{a} >> {shift}",
    "sar": "(({a} ^ 0x80000000) - 0x80000000) >> {shift} & 0xFFFFFFFF",
    "ldi": "{uimm}",
    "mov": "{a}",
}

#: Taken condition of each branch.
_CONDITIONS = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "bltu": "{a} < {b}",
    "bgeu": "{a} >= {b}",
    "blt": "{a} ^ 0x80000000 < {b} ^ 0x80000000",
    "bge": "{a} ^ 0x80000000 >= {b} ^ 0x80000000",
}


def _generate(program: Program, cycles: Dict[str, int], penalty: int,
              start: int, length: int) -> Callable:
    """The *length* instructions from *start* as one function of the CPU.

    The function returns the next pc, or ``None`` after ``halt`` (which
    stores the final pc itself).
    """
    body: List[str] = []
    accessors = set()  # "load"/"store", bound once per call
    charged = 0  # cycles of the instructions emitted so far
    for index in range(start, start + length):
        instr = program.instructions[index]
        op, rd, imm = instr.op, instr.rd, instr.imm
        if not isinstance(imm, int):  # only integers reach the source
            raise IssError(f"instruction {index}: immediate {imm!r} "
                           "is not an integer")
        a, b = f"regs[{instr.ra}]", f"regs[{instr.rb}]"
        taken = charged + cycles[op] + penalty
        if op in _RESULTS:
            if rd:  # r0 is hardwired and no memory is touched
                body.append(f"regs[{rd}] = " + _RESULTS[op].format(
                    a=a, b=b, imm=imm, uimm=imm & _MASK32, shift=imm & 31))
        elif op in ACCESS_WIDTH:
            width = ACCESS_WIDTH[op]
            if op in LOADS:
                accessors.add("load")
                access = f"load({a} + ({imm}), {width})"
                if rd:
                    access = f"regs[{rd}] = {access} & 0xFFFFFFFF"
            else:
                accessors.add("store")
                access = f"store({b} + ({imm}), {a}, {width})"
            body += ["try:", f"    {access}", "except BaseException:",
                     f"    cpu._fault({start}, {index - start}, {charged})",
                     "    raise"]
        elif op in BRANCHES:
            body += [f"if {_CONDITIONS[op].format(a=a, b=b)}:",
                     f"    cpu.cycles += {taken}", f"    return {imm}"]
        elif op == "jal":
            if rd:
                body.append(f"regs[{rd}] = {(index + 1) & _MASK32}")
            body += [f"cpu.cycles += {taken}", f"return {imm}"]
        elif op == "jr":
            body += [f"cpu.cycles += {taken}", f"return {a}"]
        elif op == "halt":
            body += ["cpu.halted = True", f"cpu.pc = {index + 1}",
                     f"cpu.cycles += {charged + cycles[op]}", "return None"]
        elif op != "nop":  # pragma: no cover - isa validation
            raise IssError(f"unimplemented opcode {op!r}")
        charged += cycles[op]
    if program.instructions[start + length - 1].op not in JUMPS + ("halt",):
        # Falls through: a prefix, an untaken branch or the program end.
        body += [f"cpu.cycles += {charged}", f"return {start + length}"]
    name = f"block_{start}_{length}"
    source = "\n    ".join(
        [f"def {name}(cpu):", "regs = cpu.regs"]
        + [f"{accessor} = cpu.memory.{accessor}"
           for accessor in sorted(accessors)] + body)
    namespace: dict = {}
    exec(compile(source, f"<iss block {start}+{length}>", "exec"), namespace)
    return namespace[name]


class _BlockCache:
    """The generated blocks of one program under one timing model."""

    def __init__(self, program: Program, timing_key: tuple) -> None:
        self.program = program
        self.cycles = dict(timing_key[0])
        self.penalty = timing_key[1]
        #: Entry pc -> ``(function, length)`` of its whole block, filled
        #: on first entry.
        self.blocks: List[Optional[Tuple[Callable, int]]] = \
            [None] * len(program.instructions)
        self._prefixes: Dict[Tuple[int, int], Callable] = {}

    def block(self, pc: int) -> Tuple[Callable, int]:
        instructions = self.program.instructions
        end = pc
        while end < len(instructions) - 1 \
                and instructions[end].op not in _CONTROL:
            end += 1
        length = end - pc + 1
        entry = (_generate(self.program, self.cycles, self.penalty,
                           pc, length), length)
        self.blocks[pc] = entry
        return entry

    def prefix(self, pc: int, length: int) -> Callable:
        """The first *length* instructions of the block at *pc*."""
        key = (pc, length)
        function = self._prefixes.get(key)
        if function is None:
            function = self._prefixes[key] = _generate(
                self.program, self.cycles, self.penalty, pc, length)
        return function


def _program_blocks(program: Program, timing: TimingModel) -> _BlockCache:
    """The block cache of *program*, kept on it per timing model.

    Board threads share bundled programs without a lock: threads racing
    to build a cache, a block or a prefix build identical ones, and the
    last write wins harmlessly.
    """
    key = (tuple(sorted(timing.cycles.items())),
           timing.branch_taken_penalty)
    caches = vars(program).setdefault("_iss_blocks", {})
    cache = caches.get(key)
    if cache is None:
        cache = caches[key] = _BlockCache(program, key)
    return cache
