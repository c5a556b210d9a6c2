"""Property-style fuzz tests for the textual assembler and the
programmatic builder.

The contract under test (DESIGN.md section 7): *every* rejection of a
malformed program is a typed error -- :class:`AssemblerError` or
:class:`ProgramError`, both ``ValueError`` subclasses -- never a deep
traceback (``TypeError``/``IndexError``/``KeyError``/``AttributeError``)
out of the guts of the parser or validator.  The fuzzers are seeded,
so failures reproduce exactly.
"""

import random

import pytest

from repro.isa.assembler import AssemblerError, assemble
from repro.isa.instructions import Instr
from repro.isa.opcodes import Op
from repro.isa.program import Program, ProgramError
from repro.workloads.builder import ProgramBuilder

# the only exception types an invalid program may surface
TYPED = (AssemblerError, ProgramError, ValueError)

_VALID_KERNEL = """\
start:  li    r1, 100
loop:   load  r2, 8(r3)        ; stream
        add   r4, r4, r2
        addi  r3, r3, 8
        subi  r1, r1, 1
        bnez  r1, loop
        halt
"""

# token soup skewed towards *almost*-valid fragments: real mnemonics,
# registers just outside the file, malformed memory operands, stray
# punctuation, giant and non-numeric immediates
_TOKENS = [
    "load", "store", "add", "sub", "mul", "addi", "subi", "li", "mov",
    "beqz", "bnez", "bltz", "bgez", "br", "jr", "halt", "nop", "cmplt",
    "slli", "frobnicate",
    "r0", "r1", "r15", "r31", "r32", "r-1", "r", "rx", "x5",
    "0", "1", "-8", "100", "0x10", "0xg", "9999999999999999",
    "8(r3)", "-16(r31)", "(r3)", "8(r40)", "8(x3)", "8(r3", "r3)",
    "loop", "loop:", "loop::", "1bad:", ",", ",,", ":", ";", "# note",
]


def _soup(rng, max_lines=8, max_tokens=6):
    lines = []
    for _ in range(rng.randrange(0, max_lines)):
        count = rng.randrange(0, max_tokens)
        lines.append(" ".join(rng.choice(_TOKENS) for _ in range(count)))
    return "\n".join(lines)


def test_assembler_fuzz_token_soup():
    """Random token soup either assembles or raises a typed error."""
    rng = random.Random(0x5EED)
    rejected = assembled = 0
    for _ in range(500):
        text = _soup(rng)
        try:
            program = assemble(text)
        except TYPED:
            rejected += 1
            continue
        assembled += 1
        assert len(program) > 0
    # the soup must actually exercise the error paths, not dodge them
    assert rejected > 100


def test_assembler_fuzz_mutated_kernel():
    """Byte-level mutations of a valid kernel never escape TYPED."""
    rng = random.Random(0xBF)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 ,():;#\n-"
    for _ in range(500):
        text = list(_VALID_KERNEL)
        for _ in range(rng.randrange(1, 6)):
            pos = rng.randrange(len(text))
            text[pos] = rng.choice(alphabet)
        try:
            assemble("".join(text))
        except TYPED:
            pass


def test_assembler_errors_carry_line_numbers():
    """Every AssemblerError names the offending source line."""
    bad = [
        "li r1",                      # operand count
        "load r2, 8(r40)",            # register out of range
        "load r2, banana",            # malformed memory operand
        "frobnicate r1, r2",          # unknown mnemonic
        "addi r1, r2, 0xgg",          # bad immediate
        "bnez r1, nowhere\nhalt",     # undefined label
        "li rx, 5",                   # bad register token
    ]
    for text in bad:
        with pytest.raises(AssemblerError) as excinfo:
            assemble(text)
        assert "line " in str(excinfo.value)


def test_assembler_rejects_empty_program():
    with pytest.raises(ProgramError):
        assemble("")
    with pytest.raises(ProgramError):
        assemble("; nothing but comments\n# here either")


_REG_CHOICES = [-3, -1, 0, 1, 7, 15, 30, 31, 32, 40, 99, "r5", 2.5, True]
_IMM_CHOICES = [0, 1, -8, 64, 10**9, "8", 1.5, None]


def _random_builder(rng):
    """Emit a random instruction sequence, valid and invalid alike."""
    builder = ProgramBuilder(name="fuzz")
    defined = []

    def reg():
        # mostly-valid registers so a healthy fraction of programs builds
        if rng.random() < 0.8:
            return rng.randrange(0, 32)
        return rng.choice(_REG_CHOICES)

    def imm_value():
        if rng.random() < 0.8:
            return rng.randrange(-64, 1024)
        return rng.choice(_IMM_CHOICES)

    for _ in range(rng.randrange(1, 12)):
        roll = rng.random()
        rd = reg()
        ra = reg()
        rb = reg()
        imm = imm_value()
        if roll < 0.15:
            label = builder.unique("blk")
            builder.label(label)
            defined.append(label)
        if roll < 0.3:
            builder.add(rd, ra, rb)
        elif roll < 0.45:
            builder.addi(rd, ra, imm)
        elif roll < 0.55:
            builder.li(rd, imm)
        elif roll < 0.7:
            builder.load(rd, imm, ra)
        elif roll < 0.8:
            builder.store(rb, imm, ra)
        elif roll < 0.9:
            target = (rng.choice(defined) if defined and rng.random() < 0.6
                      else rng.choice(["nowhere", 3, -1, 2.5]))
            builder.bnez(ra, target)
        else:
            builder.nop()
    if rng.random() < 0.8:
        builder.halt()
    return builder


def test_builder_fuzz_random_programs():
    """Random builder programs either validate or raise a typed error."""
    rng = random.Random(0xB1D)
    rejected = built = 0
    for _ in range(500):
        builder = _random_builder(rng)
        try:
            program = builder.build()
        except TYPED:
            rejected += 1
            continue
        built += 1
        # build() validates, so everything that survives is well-formed
        for instr in program.instrs:
            for reg in (instr.rd, instr.ra, instr.rb):
                assert reg is None or 0 <= reg < 32
            if instr.target is not None:
                assert 0 <= instr.target < len(program)
    assert rejected > 100
    assert built > 10


def test_program_fuzz_raw_targets():
    """Raw Program construction rejects junk targets with ProgramError."""
    for target in ("nowhere", -1, 10, 1.5, True, [0]):
        instrs = [Instr(Op.BR, target=target), Instr(Op.HALT)]
        with pytest.raises(ProgramError):
            Program(instrs, labels={"here": 0})


class _Reg(int):
    """An ``int`` subclass register: validate() checks it like an int."""


def test_program_validate_rejects_junk_fields():
    """validate() rejects junk register/immediate payloads, typed."""
    bad_instrs = [
        Instr(Op.ADD, rd="r1", ra=1, rb=2),
        Instr(Op.ADD, rd=1, ra=True, rb=2),
        Instr(Op.LI, rd=1, imm="five"),
        Instr(Op.LI, rd=1, imm=2.5),
        Instr(Op.LOAD, rd=1, ra=64, imm=0),
        Instr(Op.LI, rd=1, imm=True),
        Instr(Op.ADD, rd=32, ra=1, rb=2),
        Instr(Op.ADD, rd=1, ra=2, rb=_Reg(32)),
        Instr(Op.BEQZ, ra=1),
    ]
    for instr in bad_instrs:
        with pytest.raises(ProgramError):
            Program([instr, Instr(Op.HALT)]).validate()
    # an int subclass in range is a register, as a plain int is
    assert Program([Instr(Op.ADD, rd=_Reg(3), ra=1, rb=2),
                    Instr(Op.HALT)]).validate()


def test_builder_duplicate_labels_are_typed():
    builder = ProgramBuilder()
    builder.label("top")
    with pytest.raises(ValueError):
        builder.label("top")
    other = ProgramBuilder()
    other.label("top")
    other.halt()
    builder.halt()
    with pytest.raises(ValueError):
        builder.append_builder(other)
