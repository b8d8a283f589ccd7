"""Control-flow graph and dataflow analyses over assembled programs.

The ISS lint pass is built on a classic basic-block CFG:

* leaders are the entry point, every branch/jump target and every
  instruction following a control transfer;
* ``halt`` blocks are terminal; conditional branches have a taken edge
  and a fall-through edge; ``jal`` has its target; ``jr`` is indirect —
  its successor set is conservatively every label-targeted block;
* falling past the last instruction (or branching to exactly
  ``len(program)``) reaches the synthetic :data:`EXIT` node, which the
  missing-``halt`` rule flags when reachable.

Two forward dataflow analyses run over the CFG:

* *maybe-undefined registers* (may-analysis, union meet) backs the
  use-before-def rule;
* *register constants* (must-analysis, intersection meet) lets the
  memory-bounds rule prove addresses for constant-base accesses.

:func:`block_cycle_bounds` and :func:`loop_free_wcet` derive static
cycle bounds from a :class:`~repro.iss.timing.TimingModel` — the
loop-free worst case is directly cross-checkable against measured ISS
cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.iss.isa import (
    ALU2I,
    ALU3,
    BRANCHES,
    Instruction,
    LOADS,
    NUM_REGS,
    Program,
    STORES,
)
from repro.iss.timing import TimingModel

#: Synthetic successor index meaning "control falls past the program".
EXIT = -1

_MASK32 = 0xFFFFFFFF

#: Opcodes that never fall through to the next instruction.
_NO_FALLTHROUGH = {"halt", "jal", "jr"}


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions."""

    index: int
    #: [start, end) instruction indices into the program.
    start: int
    end: int
    #: Successor block indices (:data:`EXIT` for fall-off-the-end).
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class Cfg:
    """The control-flow graph of one :class:`~repro.iss.isa.Program`."""

    program: Program
    blocks: List[BasicBlock]
    #: Instruction index -> owning block index.
    block_of: Dict[int, int]

    def block_at(self, pc: int) -> BasicBlock:
        return self.blocks[self.block_of[pc]]

    def reachable(self) -> Set[int]:
        """Block indices reachable from the entry block."""
        if not self.blocks:
            return set()
        seen: Set[int] = set()
        stack = [0]
        while stack:
            index = stack.pop()
            if index in seen or index == EXIT:
                continue
            seen.add(index)
            stack.extend(self.blocks[index].successors)
        return seen

    def exit_reachers(self) -> List[int]:
        """Reachable blocks with an edge to :data:`EXIT`."""
        reachable = self.reachable()
        return [b.index for b in self.blocks
                if b.index in reachable and EXIT in b.successors]

    def has_cycle(self) -> bool:
        """True when the reachable CFG contains a directed cycle."""
        reachable = self.reachable()
        state: Dict[int, int] = {}  # 1 = on stack, 2 = done

        def visit(index: int) -> bool:
            state[index] = 1
            for succ in self.blocks[index].successors:
                if succ == EXIT or succ not in reachable:
                    continue
                mark = state.get(succ)
                if mark == 1:
                    return True
                if mark is None and visit(succ):
                    return True
            state[index] = 2
            return False

        return any(visit(i) for i in sorted(reachable) if i not in state)


def _label_targets(program: Program) -> Set[int]:
    """Indices a ``jr`` could plausibly jump to (label positions)."""
    labels = program.labels or {}
    return {index for index in labels.values()
            if 0 <= index < len(program.instructions)}


def build_cfg(program: Program) -> Cfg:
    """Construct the basic-block CFG of *program*."""
    instrs = program.instructions
    count = len(instrs)
    if count == 0:
        return Cfg(program, [], {})

    leaders: Set[int] = {0}
    for pc, instr in enumerate(instrs):
        if instr.op in BRANCHES or instr.op == "jal":
            if 0 <= instr.imm < count:
                leaders.add(instr.imm)
            if pc + 1 < count:
                leaders.add(pc + 1)
        elif instr.op in ("jr", "halt") and pc + 1 < count:
            leaders.add(pc + 1)
    # jr targets are unknown; every label is a potential entry.
    has_jr = any(instr.op == "jr" for instr in instrs)
    label_targets = _label_targets(program) if has_jr else set()
    leaders |= label_targets

    starts = sorted(leaders)
    blocks: List[BasicBlock] = []
    block_of: Dict[int, int] = {}
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else count
        block = BasicBlock(index, start, end)
        blocks.append(block)
        for pc in range(start, end):
            block_of[pc] = index

    def block_index(pc: int) -> int:
        return block_of[pc] if 0 <= pc < count else EXIT

    jr_successors = sorted({block_of[t] for t in label_targets})
    for block in blocks:
        last = instrs[block.end - 1]
        if last.op == "halt":
            successors: List[int] = []
        elif last.op == "jal":
            successors = [block_index(last.imm)]
        elif last.op == "jr":
            successors = list(jr_successors)
        elif last.op in BRANCHES:
            successors = [block_index(last.imm), block_index(block.end)]
        else:
            successors = [block_index(block.end)]
        # Dedup while keeping order (beq x, x, next).
        seen: Set[int] = set()
        block.successors = [s for s in successors
                            if not (s in seen or seen.add(s))]
    for block in blocks:
        for succ in block.successors:
            if succ != EXIT:
                blocks[succ].predecessors.append(block.index)
    return Cfg(program, blocks, block_of)


# ----------------------------------------------------------------------
# Per-instruction register effects
# ----------------------------------------------------------------------
def registers_read(instr: Instruction) -> Tuple[int, ...]:
    """Register indices *read* by one instruction."""
    op = instr.op
    if op in ALU3:
        return (instr.ra, instr.rb)
    if op in ALU2I:
        return (instr.ra,)
    if op in LOADS:
        return (instr.ra,)
    if op in STORES:
        return (instr.ra, instr.rb)
    if op in BRANCHES:
        return (instr.ra, instr.rb)
    if op == "jr":
        return (instr.ra,)
    if op == "mov":
        return (instr.ra,)
    return ()


def register_written(instr: Instruction) -> Optional[int]:
    """The register index *written*, or None."""
    op = instr.op
    if op in ALU3 or op in ALU2I or op in LOADS or op in ("ldi", "mov",
                                                          "jal"):
        return instr.rd
    return None


# ----------------------------------------------------------------------
# Dataflow: maybe-undefined registers (may-analysis)
# ----------------------------------------------------------------------
def maybe_undefined_reads(cfg: Cfg,
                          assume_defined: Set[int]) -> List[Tuple[int, int]]:
    """``(pc, register)`` pairs read while possibly never written.

    *assume_defined* lists registers defined at entry (declared live-ins
    plus presets); ``r0`` is always defined.  The analysis is a forward
    may-analysis — a register counts as maybe-undefined at a point if
    *some* path from the entry reaches it without a write.
    """
    if not cfg.blocks:
        return []
    entry_undef = frozenset(
        r for r in range(NUM_REGS) if r != 0 and r not in assume_defined
    )
    reachable = cfg.reachable()
    in_sets: Dict[int, frozenset] = {
        index: frozenset() for index in reachable
    }
    in_sets[0] = entry_undef

    def transfer(block: BasicBlock, undef: frozenset) -> frozenset:
        live = set(undef)
        for pc in range(block.start, block.end):
            written = register_written(cfg.program.instructions[pc])
            if written is not None and written != 0:
                live.discard(written)
        return frozenset(live)

    changed = True
    while changed:
        changed = False
        for index in sorted(reachable):
            block = cfg.blocks[index]
            out = transfer(block, in_sets[index])
            for succ in block.successors:
                if succ == EXIT or succ not in reachable:
                    continue
                merged = in_sets[succ] | out
                if merged != in_sets[succ]:
                    in_sets[succ] = merged
                    changed = True

    findings: List[Tuple[int, int]] = []
    for index in sorted(reachable):
        block = cfg.blocks[index]
        undef = set(in_sets[index])
        for pc in range(block.start, block.end):
            instr = cfg.program.instructions[pc]
            for reg in registers_read(instr):
                if reg in undef:
                    findings.append((pc, reg))
            written = register_written(instr)
            if written is not None:
                undef.discard(written)
    return findings


# ----------------------------------------------------------------------
# Dataflow: register constants (must-analysis)
# ----------------------------------------------------------------------
_TOP = object()  # unknown value


def _const_transfer_instr(instr: Instruction, env: Dict[int, int],
                          pc: int) -> None:
    """Apply one instruction to a constants environment, in place."""

    def value(reg: int) -> Optional[int]:
        if reg == 0:
            return 0
        return env.get(reg)

    op = instr.op
    result: Optional[int] = None
    known = True
    if op == "ldi":
        result = instr.imm
    elif op == "mov":
        result = value(instr.ra)
        known = result is not None
    elif op == "jal":
        result = pc + 1
    elif op in ALU2I:
        ra = value(instr.ra)
        if ra is None:
            known = False
        else:
            imm = instr.imm
            result = {
                "addi": ra + imm, "andi": ra & imm, "ori": ra | imm,
                "xori": ra ^ imm, "shl": ra << (imm & 31),
                "shr": (ra & _MASK32) >> (imm & 31),
                "sar": _signed(ra) >> (imm & 31),
            }[op]
    elif op in ALU3:
        ra, rb = value(instr.ra), value(instr.rb)
        if ra is None or rb is None:
            known = False
        else:
            result = {
                "add": ra + rb, "sub": ra - rb, "and": ra & rb,
                "or": ra | rb, "xor": ra ^ rb,
                "sltu": 1 if (ra & _MASK32) < (rb & _MASK32) else 0,
                "slt": 1 if _signed(ra) < _signed(rb) else 0,
            }[op]
    else:
        written = register_written(instr)
        if written is not None and written != 0:
            env.pop(written, None)
        return
    if instr.rd != 0:
        if known and result is not None:
            env[instr.rd] = result & _MASK32
        else:
            env.pop(instr.rd, None)


def _signed(value: int) -> int:
    value &= _MASK32
    return value - (1 << 32) if value >> 31 else value


def constant_environments(cfg: Cfg,
                          entry_env: Optional[Dict[int, int]] = None
                          ) -> Dict[int, Dict[int, int]]:
    """Block index -> known register constants at block entry.

    A must-analysis: a register maps to a value only when *every* path
    to the block agrees on it.
    """
    if not cfg.blocks:
        return {}
    reachable = cfg.reachable()
    in_envs: Dict[int, object] = {index: _TOP for index in reachable}
    in_envs[0] = dict(entry_env or {})

    def transfer(block: BasicBlock, env: Dict[int, int]) -> Dict[int, int]:
        out = dict(env)
        for pc in range(block.start, block.end):
            _const_transfer_instr(cfg.program.instructions[pc], out, pc)
        return out

    def meet(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
        return {reg: val for reg, val in a.items() if b.get(reg) == val}

    changed = True
    while changed:
        changed = False
        for index in sorted(reachable):
            env = in_envs[index]
            if env is _TOP:
                continue
            out = transfer(cfg.blocks[index], env)  # type: ignore[arg-type]
            for succ in cfg.blocks[index].successors:
                if succ == EXIT or succ not in reachable:
                    continue
                old = in_envs[succ]
                new = dict(out) if old is _TOP else meet(old, out)
                if old is _TOP or new != old:
                    in_envs[succ] = new
                    changed = True
    return {index: (dict(env) if env is not _TOP else {})
            for index, env in in_envs.items()}


def constant_address_accesses(
    cfg: Cfg, entry_env: Optional[Dict[int, int]] = None,
) -> List[Tuple[int, Instruction, int, int]]:
    """Memory accesses with a provable address.

    Returns ``(pc, instruction, address, width)`` for every reachable
    load/store whose base register holds a known constant at that point.
    """
    from repro.iss.isa import ACCESS_WIDTH

    accesses: List[Tuple[int, Instruction, int, int]] = []
    envs = constant_environments(cfg, entry_env)
    for index, entry in envs.items():
        block = cfg.blocks[index]
        env = dict(entry)
        for pc in range(block.start, block.end):
            instr = cfg.program.instructions[pc]
            base: Optional[int] = None
            if instr.op in LOADS:
                base = instr.ra
            elif instr.op in STORES:
                base = instr.rb
            if base is not None:
                value = 0 if base == 0 else env.get(base)
                if value is not None:
                    address = _signed(value) + instr.imm
                    accesses.append((pc, instr, address,
                                     ACCESS_WIDTH[instr.op]))
            _const_transfer_instr(instr, env, pc)
    return accesses


# ----------------------------------------------------------------------
# Static cycle bounds
# ----------------------------------------------------------------------
def block_cycle_bounds(cfg: Cfg,
                       timing: Optional[TimingModel] = None
                       ) -> Dict[int, int]:
    """Worst-case cycles per basic block under *timing*.

    The bound charges every instruction its base cost and the terminal
    branch/jump its taken cost — the per-block static bound the paper's
    annotation-based related work attaches to software.
    """
    timing = timing or TimingModel()
    bounds: Dict[int, int] = {}
    for block in cfg.blocks:
        total = 0
        for pc in range(block.start, block.end):
            instr = cfg.program.instructions[pc]
            taken = instr.op in BRANCHES or instr.op in ("jal", "jr")
            total += timing.cost(instr.op, taken)
        bounds[block.index] = total
    return bounds


def loop_free_wcet(cfg: Cfg,
                   timing: Optional[TimingModel] = None) -> Optional[int]:
    """Worst-case execution time in cycles, or None when the CFG cycles.

    For acyclic (loop-free) programs this is the longest entry-to-exit
    path through :func:`block_cycle_bounds`; a measured ISS run of the
    same program can never exceed it.
    """
    if not cfg.blocks or cfg.has_cycle():
        return None
    bounds = block_cycle_bounds(cfg, timing)
    reachable = cfg.reachable()
    memo: Dict[int, int] = {}

    def longest_from(index: int) -> int:
        if index in memo:
            return memo[index]
        block = cfg.blocks[index]
        best = 0
        for succ in block.successors:
            if succ != EXIT and succ in reachable:
                best = max(best, longest_from(succ))
        memo[index] = bounds[index] + best
        return memo[index]

    return longest_from(0)
