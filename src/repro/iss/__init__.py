"""A small RISC instruction-set simulator with timing annotations."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "assembler": ("Assembler", "assemble"),
    "cpu": ("IssCpu",),
    "isa": ("Instruction", "NUM_REGS", "Program"),
    "rtos_bridge": ("IssChecksumVerifier", "run_program"),
    "programs": (
        "CHECKSUM_ASM", "FIBONACCI_ASM", "MEMCPY_ASM", "checksum_program",
        "fibonacci_program", "memcpy_program", "run_checksum", "run_fibonacci",
        "run_memcpy",
    ),
    "timing": ("DEFAULT_CYCLES", "TimingModel"),
})
