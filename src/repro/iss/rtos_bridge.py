"""Running ISS programs as RTOS thread work.

Bridges the two timing worlds: an assembly routine executes on the
bundled ISS *inside* an RTOS thread, with every executed instruction's
cycle cost charged to the thread as preemptible
:class:`~repro.rtos.syscalls.CpuWork`.  The board's scheduler, ticks
and interrupts all interleave with the program exactly as they would on
the real CPU (at ``chunk`` granularity).

This gives the co-simulation a third software-timing fidelity level:

1. coarse ``WorkModel`` coefficients (fast, approximate);
2. ISS *annotations* replayed as delays (the [14,15] baseline);
3. ISS *execution* on the virtual CPU (this module) — the cycle cost is
   whatever the program actually does, data-dependent branches and all.
"""

from __future__ import annotations

from repro.errors import IssError
from repro.iss.cpu import IssCpu
from repro.obs.recorder import NULL_RECORDER
from repro.rtos.syscalls import CpuWork

def run_program(cpu: IssCpu, chunk_instructions: int = 64,
                max_instructions: int = 10_000_000):
    """Generator: execute *cpu* to completion inside an RTOS thread.

    Yields :class:`CpuWork` for each executed chunk so the kernel can
    preempt between chunks.  Use with ``yield from``; the return value
    is the CPU itself (registers readable afterwards)::

        def thread_entry():
            cpu = IssCpu(program, memory)
            cpu.write_reg(1, arg)
            cpu = yield from run_program(cpu)
            result = cpu.read_reg(1)
    """
    if chunk_instructions <= 0:
        raise IssError("chunk_instructions must be positive")
    spent = 0
    while not cpu.halted:
        cycles_before = cpu.cycles
        # Each chunk runs synchronously between preemption points, so a
        # span here never straddles a yield.
        token = None
        if cpu.obs.enabled:
            retired = cpu.instructions_retired
            token = cpu.obs.begin("iss", "chunk", sim=cpu.cycles)
        try:
            spent += cpu._run(max_instructions, chunk_instructions, spent)
        finally:
            if token is not None:
                cpu.obs.end(token, sim=cpu.cycles,
                            instructions=cpu.instructions_retired - retired)
        charged = cpu.cycles - cycles_before
        if charged > 0:
            yield CpuWork(charged)
    return cpu


class IssChecksumVerifier:
    """The checksum verification routine, executed (not annotated).

    A drop-in replacement for the coarse-model verdict computation in
    :class:`repro.router.app.ChecksumApp`: builds an ISS run per packet
    and charges the thread the *measured* cycles.
    """

    #: Span recorder; replaced per-session when tracing is enabled.
    obs = NULL_RECORDER

    def __init__(self, memory_size: int = 64 * 1024,
                 data_base: int = 0x100,
                 chunk_instructions: int = 64) -> None:
        from repro.board.memory import Memory
        from repro.iss.programs import checksum_program

        self._memory_cls = Memory
        self._program = checksum_program()
        self.memory_size = memory_size
        self.data_base = data_base
        self.chunk_instructions = chunk_instructions
        self.packets_verified = 0
        self.cycles_executed = 0

    def verify(self, body: bytes, stored_checksum: int):
        """Generator: True iff *stored_checksum* matches (ISS-timed)."""
        memory = self._memory_cls(
            max(self.memory_size, self.data_base + len(body) + 16)
        )
        memory.store_bytes(self.data_base, body)
        cpu = IssCpu(self._program, memory)
        cpu.obs = self.obs
        cpu.write_reg(1, self.data_base)
        cpu.write_reg(2, len(body))
        cpu = yield from run_program(cpu, self.chunk_instructions)
        self.packets_verified += 1
        self.cycles_executed += cpu.cycles
        return cpu.read_reg(1) == (stored_checksum & 0xFFFF)
