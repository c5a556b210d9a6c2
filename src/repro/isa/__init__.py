"""A small RISC instruction set (ALPHA-flavoured) used by the simulator.

The B-Fetch mechanism speculates on *register transformations across basic
blocks*, so the reproduction needs programs with genuine register dataflow
rather than bare address traces.  This package defines:

* :mod:`repro.isa.opcodes` -- the opcode space and classification helpers,
* :mod:`repro.isa.instructions` -- the static instruction record,
* :mod:`repro.isa.program` -- programs, labels, basic blocks and CFGs,
* :mod:`repro.isa.assembler` -- a tiny textual assembler for tests/examples.
"""

from repro._lazy import lazy_exports

NUM_REGS = 32
ZERO_REG = 31  # r31 reads as zero, ALPHA-style
WORD_SIZE = 8  # bytes
MASK64 = (1 << 64) - 1

__all__ = [
    "Op",
    "Instr",
    "Program",
    "BasicBlock",
    "extract_basic_blocks",
    "assemble",
    "AssemblerError",
    "is_branch",
    "is_cond_branch",
    "is_load",
    "is_store",
    "is_mem",
    "NUM_REGS",
    "ZERO_REG",
    "WORD_SIZE",
    "MASK64",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "opcodes": (
        "Op",
        "is_branch",
        "is_cond_branch",
        "is_load",
        "is_mem",
        "is_store",
    ),
    "instructions": ("Instr",),
    "program": ("BasicBlock", "Program", "extract_basic_blocks"),
    "assembler": ("AssemblerError", "assemble"),
})
