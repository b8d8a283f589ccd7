"""The instruction-set simulator core: a basic-block and loop compiler.

The CPU runs a program one *basic block* at a time.  A block is the
straight-line run of instructions from an entry pc through its first
control transfer (a branch, ``jal``, ``jr`` or ``halt``), or to the end
of the program.  :func:`_emit` writes a block as Python source, with
operand indices, immediates and cycle costs inlined and writes to ``r0``
dropped, and the block is ``exec``ed once as one function.  It charges
the block's summed cycle cost (a closing branch adds its taken or
untaken cost) and returns the next pc.

A pc on a *loop* (a single path back to itself: every block on it but
the last leaves it in one direction of its closing branch, and the last
one returns by its branch or ``jal``, or by falling into the pc) heads a
*loop region*: the whole path from that pc as one function from the
same emitter, so every pc of a loop heads its own rotation of it.  The
path is found statically and has at most eight runs; a loop through a
``jr``, or through a branch whose taken target is its fall-through
(whose cost varies), gets none and runs block by block.
``loop(cpu, left)`` runs whole iterations while one fits in the
instructions left, then the first instructions of one more, and returns
the next pc with how many instructions ran.  A chunk that starts
mid-loop is therefore one call.  Blocks and regions are generated on
first entry, one ``compile()`` each, and cached on the
:class:`~repro.iss.isa.Program` per timing model and memory kind, so
CPUs built per packet reuse them.

Timing stays exact at instruction granularity:

* A region stops after exactly the instructions left, checking the
  count between the instructions of its last iteration only.  A block
  runs whole only if it fits the instructions left in the current chunk
  and budget; otherwise the CPU runs the block's longest prefix that
  fits, from the same emitter, cached per ``(pc, length)``.  A chunk
  therefore ends after exactly ``chunk`` instructions, and
  :meth:`IssCpu.step` runs one instruction.
* A plain :class:`~repro.board.memory.Memory` is indexed directly by
  the generated code, with ``Memory.load``/``store``'s bounds check and
  error and its ``reads``/``writes`` counts (a load into ``r0``
  included).  Any other memory, such as a bus with MMIO, gets one
  ``load``/``store`` call per access, so a device sees every access.
  An access that raises leaves the instructions before it retired and
  charged, the faulting one neither, and ``pc`` at the faulting
  instruction.
* Retirement is counted per block run, not per instruction: one count
  for a block entry, *k* for each block on a region's path after *k*
  iterations, and one per ``(pc, length)`` for a run cut short (a
  prefix, a region's run that falls into its head, or the end of its
  last iteration).  ``instructions_retired`` and ``op_histogram`` fold
  those counts on demand.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.board.memory import Memory
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
    (indexed directly by the generated code) or a
    :class:`repro.board.bus.Bus` with MMIO regions (called per access).
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
        # The memory's kind is fixed for the CPU's life, and generated
        # code differs by kind, so it selects the cache.
        self._blocks = _program_blocks(program, self.timing,
                                       ram=type(memory) is Memory)
        self._reset_counts()
        self._load_data()

    def _reset_counts(self) -> None:
        #: Whole-block runs per entry pc.
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
        lengths = self._blocks.lengths
        runs = [(pc, lengths[pc], count)
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
            block, length, loop = blocks[pc] or cache.block(pc)
            if loop is not None:  # the loop region this pc heads
                pc, ran = loop(self, left)
                left -= ran
                continue
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
#: value is already masked to 32 bits and ``r0`` reads as 0, so only
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


#: Loaded value of each width, read from RAM at offset ``o``.
_RAM_LOADS = {
    1: "data[o]",
    2: 'int.from_bytes(data[o:o + 2], "little")',
    4: 'int.from_bytes(data[o:o + 4], "little")',
}

#: Store of register ``{a}`` at RAM offset ``o``, per width.
_RAM_STORES = {
    1: "data[o] = {a} & 0xFF",
    2: 'data[o:o + 2] = ({a} & 0xFFFF).to_bytes(2, "little")',
    4: 'data[o:o + 4] = ({a}).to_bytes(4, "little")',
}

#: Names a generated function binds on entry, in binding order.
_PRELUDE = (
    ("counts", "counts = cpu._block_counts"),
    ("partial", "partial = cpu._partial_counts"),
    ("load", "load = cpu.memory.load"),
    ("store", "store = cpu.memory.store"),
    ("memory", "memory = cpu.memory"),
    ("data", "data = memory.data"),
    ("base", "base = memory.base"),
    ("lim1", "lim1 = memory.size - 1"),
    ("lim2", "lim2 = memory.size - 2"),
    ("lim4", "lim4 = memory.size - 4"),
)

#: Most runs (blocks, the last one maybe cut short) on a loop region's
#: path.
_MAX_LOOP_BLOCKS = 8


class _Site(NamedTuple):
    """A point before instruction *done* of an emitted run, after the
    *cycles*, *loads* and *stores* of the instructions before it."""

    done: int
    cycles: int
    loads: int
    stores: int


class _Fault(_Site):
    """Where emitted code settles before a faulting access raises."""

    __slots__ = ()


class _Boundary(_Site):
    """An instruction boundary, where a loop region's last iteration
    may stop."""

    __slots__ = ()


class _Code(NamedTuple):
    """One straight-line run of instructions, emitted as source."""

    #: Lines up to the closing control transfer; a :class:`_Fault`
    #: stands for the indented lines that settle a faulting access, and
    #: a :class:`_Boundary` precedes every instruction.
    body: list
    #: How the run ends, as ``(condition, target, cycles)`` tested in
    #: order.  A ``None`` condition always holds; *target* is source
    #: (``"None"`` after ``halt``, which stores the final pc itself).
    exits: List[Tuple[Optional[str], str, int]]
    #: The :data:`_PRELUDE` names the body uses.
    names: Set[str]
    loads: int
    stores: int

    def lines(self, fault: Callable[[_Site], List[str]],
              boundary: Optional[Callable[[_Site], List[str]]] = None
              ) -> List[str]:
        """The body, each fault site settled by *fault*'s lines and each
        boundary replaced by *boundary*'s (dropped without it)."""
        out: List[str] = []
        for line in self.body:
            if isinstance(line, _Fault):
                out += _indent(fault(line))
            elif isinstance(line, _Boundary):
                out += boundary(line) if boundary else []
            else:
                out.append(line)
        return out


def _operand(index: int) -> str:
    """Source reading register *index* (``r0`` reads as 0)."""
    return f"regs[{index}]" if index else "0"


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


def _count(per: int, extra: int) -> Optional[str]:
    """Source of ``k * per + extra`` for ``k`` whole loop iterations,
    or ``None`` when it is always 0."""
    terms = [] if not per else ["k"] if per == 1 else [f"k * {per}"]
    if extra:
        terms.append(str(extra))
    return " + ".join(terms) or None


def _memory_counts(ram: bool, reads: Optional[str],
                   writes: Optional[str]) -> List[str]:
    """Lines adding to a RAM's access counters (a bus counts its own)."""
    if not ram:
        return []
    return ([f"memory.reads += {reads}"] if reads else []) \
        + ([f"memory.writes += {writes}"] if writes else [])


def _emit(program: Program, cycles: Dict[str, int], penalty: int,
          start: int, length: int, ram: bool) -> _Code:
    """The source of the *length* instructions from *start*; *ram*
    indexes a plain :class:`Memory` instead of calling it."""
    body: list = []
    exits: List[Tuple[Optional[str], str, int]] = []
    names: Set[str] = set()
    charged = 0  # cycles of the instructions emitted so far
    loads = stores = 0
    for index in range(start, start + length):
        instr = program.instructions[index]
        op, rd, imm = instr.op, instr.rd, instr.imm
        if not isinstance(imm, int):  # only integers reach the source
            raise IssError(f"instruction {index}: immediate {imm!r} "
                           "is not an integer")
        a, b = _operand(instr.ra), _operand(instr.rb)
        taken = charged + cycles[op] + penalty
        body.append(_Boundary(index - start, charged, loads, stores))
        if op in _RESULTS:
            if rd:  # r0 is hardwired and no memory is touched
                body.append(f"regs[{rd}] = " + _RESULTS[op].format(
                    a=a, b=b, imm=imm, uimm=imm & _MASK32, shift=imm & 31))
        elif op in ACCESS_WIDTH:
            width = ACCESS_WIDTH[op]
            fault = _Fault(index - start, charged, loads, stores)
            is_load = op in LOADS
            address = a if is_load else b
            if imm:
                address += f" + ({imm})"
            if ram:  # Memory.load/store's bounds check and error
                names.update(("memory", "data", "base", f"lim{width}"))
                body += [f"o = {address} - base",
                         f"if not 0 <= o <= lim{width}:", fault,
                         f"    memory._offset(o + base, {width})"]
                if not is_load:
                    body.append(_RAM_STORES[width].format(a=a))
                elif rd:
                    body.append(f"regs[{rd}] = {_RAM_LOADS[width]}")
            else:
                if is_load:
                    names.add("load")
                    access = f"load({address}, {width})"
                    if rd:
                        access = f"regs[{rd}] = {access} & 0xFFFFFFFF"
                else:
                    names.add("store")
                    access = f"store({address}, {a}, {width})"
                body += ["try:", f"    {access}", "except BaseException:",
                         fault, "    raise"]
            if is_load:
                loads += 1
            else:
                stores += 1
        elif op in BRANCHES:
            exits.append((_CONDITIONS[op].format(a=a, b=b), str(imm), taken))
        elif op == "jal":
            if rd:
                body.append(f"regs[{rd}] = {(index + 1) & _MASK32}")
            exits.append((None, str(imm), taken))
        elif op == "jr":
            exits.append((None, a, taken))
        elif op == "halt":
            body += ["cpu.halted = True", f"cpu.pc = {index + 1}"]
            exits.append((None, "None", charged + cycles[op]))
        elif op != "nop":  # pragma: no cover - isa validation
            raise IssError(f"unimplemented opcode {op!r}")
        charged += cycles[op]
    if program.instructions[start + length - 1].op not in JUMPS + ("halt",):
        # Falls through: a prefix, an untaken branch or the program end.
        exits.append((None, str(start + length), charged))
    return _Code(body, exits, names, loads, stores)


def _define(name: str, arguments: str, names: Set[str], body: List[str],
            filename: str) -> Callable:
    """Compile ``def name(arguments)`` over *body*, *names* bound first."""
    source = "\n    ".join(
        [f"def {name}({arguments}):", "regs = cpu.regs"]
        + [line for key, line in _PRELUDE if key in names] + body)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _generate(program: Program, cycles: Dict[str, int], penalty: int,
              start: int, length: int, ram: bool) -> Callable:
    """The *length* instructions from *start* as one function of the CPU.

    The function returns the next pc, or ``None`` after ``halt``.
    """
    code = _emit(program, cycles, penalty, start, length, ram)
    body = code.lines(lambda fault: _memory_counts(
        ram, _count(0, fault.loads), _count(0, fault.stores))
        + [f"cpu._fault({start}, {fault.done}, {fault.cycles})"])
    for condition, target, cost in code.exits:
        leave = [f"cpu.cycles += {cost}"] + _memory_counts(
            ram, _count(0, code.loads), _count(0, code.stores)) \
            + [f"return {target}"]
        body += [f"if {condition}:", *_indent(leave)] if condition \
            else leave
    return _define(f"block_{start}_{length}", "cpu", code.names, body,
                   f"<iss block {start}+{length}>")


def _generate_loop(program: Program, cycles: Dict[str, int], penalty: int,
                   path: List[Tuple[int, int]], ram: bool) -> Callable:
    """The loop region through the ``(start, length)`` runs of *path*.

    ``loop(cpu, left)`` runs *left* instructions along the path (whole
    iterations, then the first instructions of one more), or fewer when
    a branch leaves it; it charges and counts exactly what blocks and
    prefixes would, and returns ``(next_pc, instructions_run)``.  A run
    is a whole block, counted per entry pc, unless it is cut short where
    it falls into the head; a cut run counts as a partial run.
    """
    head = path[0][0]
    codes = [_emit(program, cycles, penalty, start, length, ram)
             for start, length in path]
    # Each run stays on the path through the exit to the next run; the
    # last one's returns to the head.
    stays = [str(start) for start, _ in path[1:]] + [str(head)]
    stay_cycles = [next(cost for _, target, cost in code.exits
                        if target == stay)
                   for code, stay in zip(codes, stays)]
    iteration = sum(length for _, length in path)
    per_loads = sum(code.loads for code in codes)
    per_stores = sum(code.stores for code in codes)

    def count(start: int, length: int, runs: str) -> str:
        """Source adding *runs* runs of the *length* instructions from
        *start*: a whole block's by its entry pc, a shorter run's as a
        partial run."""
        if program.instructions[start + length - 1].op in _CONTROL:
            return f"counts[{start}] += {runs}"
        return (f"partial[{start}, {length}] = "
                f"partial.get(({start}, {length}), 0) + {runs}")

    def settle(ran: int, spent: int, loads: int, stores: int,
               cut: int = 0) -> List[str]:
        """Charge ``k`` iterations plus *spent* cycles, *loads* and
        *stores*; the first *ran* runs of the path ran once more, and
        the first *cut* instructions of the next one."""
        charge = _count(sum(stay_cycles), spent)
        lines = ([f"cpu.cycles += {charge}"] if charge else []) \
            + [count(start, length, "k + 1" if position < ran else "k")
               for position, (start, length) in enumerate(path)]
        if cut:
            lines.append(count(path[ran][0], cut, "1"))
        return lines + _memory_counts(ram, _count(per_loads, loads),
                                      _count(per_stores, stores))

    def stop(ran: int, at: _Site, done: int, spent: int, loads: int,
             stores: int) -> List[str]:
        """Stop the last, partial iteration *at* a boundary in run *ran*
        once ``r`` instructions of it ran; the runs before *ran* took
        *done* instructions, *spent* cycles, *loads* and *stores*."""
        lines = settle(ran, spent + at.cycles, loads + at.loads,
                       stores + at.stores, at.done) \
            + [f"return {path[ran][0] + at.done}, "
               f"{_count(iteration, done + at.done)}"]
        if done + at.done < iteration - 1:
            return [f"if r == {done + at.done}:", *_indent(lines)]
        return lines + [None]  # r < iteration: the last boundary stops

    def iterate(last: bool) -> List[str]:
        """The path once; with *last*, stopping at the boundary where
        the instructions left run out."""
        body: List[str] = []
        done = spent = loads = stores = 0  # the runs before this one
        for position, ((start, length), code, stay) in enumerate(
                zip(path, codes, stays)):
            body += code.lines(
                lambda fault: settle(
                    position, spent, loads + fault.loads,
                    stores + fault.stores)
                + [f"cpu._fault({start}, {fault.done}, {fault.cycles})"],
                last and (lambda at: stop(position, at, done, spent,
                                          loads, stores)))
            condition = code.exits[0][0]
            for exit_condition, target, cost in code.exits:
                if target == stay:
                    continue
                # The other exit leaves: a branch's fall-through leaves
                # when its condition fails.
                test = exit_condition or f"not ({condition})"
                body += [f"if {test}:", *_indent(
                    settle(position + 1, spent + cost, loads + code.loads,
                           stores + code.stores)
                    + [f"return {target}, "
                       f"{_count(iteration, done + length)}"])]
            done += length
            spent += stay_cycles[position]
            loads += code.loads
            stores += code.stores
        return body[:body.index(None)] if last else body

    names = {"counts", "partial"}.union(*(code.names for code in codes))
    body = iterate(False)
    if body:
        body = [f"for k in range(left // {iteration}):", *_indent(body)]
    body += [f"k = left // {iteration}  # every whole iteration ran",
             f"r = left - k * {iteration}"] + iterate(True)
    return _define(f"loop_{head}", "cpu, left", names, body,
                   f"<iss loop {head}>")


class _BlockCache:
    """The generated blocks and loop regions of one program under one
    timing model and memory kind."""

    def __init__(self, program: Program, key: tuple) -> None:
        self.program = program
        self.cycles = dict(key[0])
        self.penalty = key[1]
        self.ram = key[2]
        instructions = program.instructions
        #: The length of the block at each pc: through its first control
        #: transfer, or to the end of the program.
        self.lengths: List[int] = [0] * len(instructions)
        length = 0
        for pc in reversed(range(len(instructions))):
            length = 1 if instructions[pc].op in _CONTROL else length + 1
            self.lengths[pc] = length
        #: Entry pc -> ``(block, length, loop)``, filled on first entry:
        #: the loop region the pc heads, or else (``loop`` ``None``) the
        #: function and length of its block.
        self.blocks: List[Optional[tuple]] = [None] * len(instructions)
        self._prefixes: Dict[Tuple[int, int], Callable] = {}

    def block(self, pc: int) -> tuple:
        path = self._loop_path(pc)
        if path is None:
            length = self.lengths[pc]
            entry = (_generate(self.program, self.cycles, self.penalty, pc,
                               length, self.ram), length, None)
        else:
            entry = (None, 0, _generate_loop(
                self.program, self.cycles, self.penalty, path, self.ram))
        self.blocks[pc] = entry
        return entry

    def _loop_path(self, head: int) -> Optional[List[Tuple[int, int]]]:
        """The ``(start, length)`` runs of the loop region headed at
        *head*, or ``None`` when *head* is on no single-path loop.

        Every run but the last ends in a branch that stays on the path
        one way and leaves it the other, or in a ``jal``; the last one
        returns to *head*, by its branch or ``jal`` or by falling into
        it, cut short there.  So every pc of a loop heads a rotation of
        it.
        """
        instructions = self.program.instructions

        def extend(path: List[Tuple[int, int]],
                   start: int) -> Optional[List[Tuple[int, int]]]:
            if path and start == head:
                return path
            if not 0 <= start < len(instructions) \
                    or any(start == run for run, _ in path) \
                    or len(path) == _MAX_LOOP_BLOCKS:
                return None
            end = start + self.lengths[start] - 1
            cut = start < head <= end  # falls into the head
            length = head - start if cut else end - start + 1
            if not all(isinstance(instr.imm, int)
                       for instr in instructions[start:start + length]):
                return None  # the block reports it when it runs
            path = path + [(start, length)]
            if cut:
                return path
            last = instructions[end]
            if last.op == "jal":
                return extend(path, last.imm)
            if last.op not in BRANCHES or last.imm == end + 1:
                return None  # no branch, or one whose cost varies
            return extend(path, end + 1) or extend(path, last.imm)

        return extend([], head)

    def prefix(self, pc: int, length: int) -> Callable:
        """The first *length* instructions of the block at *pc*."""
        key = (pc, length)
        function = self._prefixes.get(key)
        if function is None:
            function = self._prefixes[key] = _generate(
                self.program, self.cycles, self.penalty, pc, length,
                self.ram)
        return function


def _program_blocks(program: Program, timing: TimingModel,
                    ram: bool) -> _BlockCache:
    """The block cache of *program*, kept on it per timing model and
    memory kind (*ram*: a plain :class:`Memory`).

    Board threads share bundled programs without a lock: threads racing
    to build a cache, a block, a loop region or a prefix build
    identical ones, and the last write wins harmlessly.
    """
    key = (tuple(sorted(timing.cycles.items())),
           timing.branch_taken_penalty, ram)
    caches = vars(program).setdefault("_iss_blocks", {})
    cache = caches.get(key)
    if cache is None:
        cache = caches[key] = _BlockCache(program, key)
    return cache
