"""Functional (architectural) interpreter for the reproduction ISA.

The simulator is trace-driven: the :class:`Machine` executes the program in
architectural order and the timing model consumes the resulting dynamic
instruction stream.  This mirrors how gem5's O3 model is driven in the paper
at the fidelity level we need -- the timing core re-creates fetch, ROB,
operand-latency and flush behaviour on top of the architecturally-correct
stream.

The hot loop is :meth:`Machine.step`.  Historically it dispatched with a
25-arm ``if``-chain over ``instr.op`` that re-read every ``Instr`` slot on
every dynamic execution.  The interpreter now *pre-decodes* each static
instruction once into a flat tuple ``(kind, rd, ra, rb, imm, target)`` of
plain ints (see :func:`decode_program`):

* ``kind`` is a dense dispatch code ordered by dynamic frequency, so the
  hot arms (load / addi / add / branches) are reached after one or two
  integer compares against locals (bound via default args -- no global or
  enum-attribute lookups per step);
* writes to the hardwired zero register are folded away at decode time
  (an ALU op targeting r31 decodes to ``NOP``; a load targeting r31 keeps
  its effective-address side channel but skips the write), which also
  removes the per-step ``regs[ZERO] = 0`` repair write;
* per-instruction fields arrive as locals from one tuple unpack instead of
  five attribute loads.

The decoded program is cached on the :class:`~repro.isa.Program` object so
every :class:`Machine` over the same program (CMP cores, variability
re-runs) shares one decode.  :meth:`Machine.step_reference` keeps the
original if-chain implementation; ``tests/test_functional_dispatch.py``
checks the two produce bit-identical architectural streams.
"""

from repro.isa import MASK64, ZERO_REG
from repro.isa.opcodes import Op

_SIGN_BIT = 1 << 63


def _to_signed(value):
    value &= MASK64
    return value - (1 << 64) if value & _SIGN_BIT else value


# ----------------------------------------------------------------------
# dispatch kinds (dense ints, roughly ordered by dynamic frequency)

K_LOAD = 0
K_ADDI = 1
K_ADD = 2
K_BNEZ = 3
K_BEQZ = 4
K_SUBI = 5
K_SUB = 6
K_STORE = 7
K_LI = 8
K_MOV = 9
K_BR = 10
K_BLTZ = 11
K_BGEZ = 12
K_JR = 13
K_MUL = 14
K_XOR = 15
K_AND = 16
K_OR = 17
K_ANDI = 18
K_SLL = 19
K_SRL = 20
K_SLLI = 21
K_SRLI = 22
K_CMPEQ = 23
K_CMPLT = 24
K_NOP = 25
K_HALT = 26
K_LOAD_NODEST = 27  # load with rd == r31: ea side channel, no write

_OP_TO_KIND = {
    Op.LOAD: K_LOAD,
    Op.ADDI: K_ADDI,
    Op.ADD: K_ADD,
    Op.BNEZ: K_BNEZ,
    Op.BEQZ: K_BEQZ,
    Op.SUBI: K_SUBI,
    Op.SUB: K_SUB,
    Op.STORE: K_STORE,
    Op.LI: K_LI,
    Op.MOV: K_MOV,
    Op.BR: K_BR,
    Op.BLTZ: K_BLTZ,
    Op.BGEZ: K_BGEZ,
    Op.JR: K_JR,
    Op.MUL: K_MUL,
    Op.XOR: K_XOR,
    Op.AND: K_AND,
    Op.OR: K_OR,
    Op.ANDI: K_ANDI,
    Op.SLL: K_SLL,
    Op.SRL: K_SRL,
    Op.SLLI: K_SLLI,
    Op.SRLI: K_SRLI,
    Op.CMPEQ: K_CMPEQ,
    Op.CMPLT: K_CMPLT,
    Op.NOP: K_NOP,
    Op.HALT: K_HALT,
}

# kinds whose only architectural effect is a register write (so a r31
# destination makes them architectural no-ops)
_REG_WRITE_KINDS = frozenset({
    K_ADDI, K_ADD, K_SUBI, K_SUB, K_LI, K_MOV, K_MUL, K_XOR, K_AND,
    K_OR, K_ANDI, K_SLL, K_SRL, K_SLLI, K_SRLI, K_CMPEQ, K_CMPLT,
})


def decode_instr(instr):
    """Decode one static :class:`~repro.isa.Instr` into a dispatch tuple.

    Returns ``(kind, rd, ra, rb, imm, target)`` with unused register
    fields left as 0 so every element is a plain int.
    """
    op = instr.op
    try:
        kind = _OP_TO_KIND[op]
    except KeyError:  # pragma: no cover - opcode space is closed
        raise RuntimeError("unknown opcode %r" % (op,))
    rd = instr.rd if instr.rd is not None else 0
    ra = instr.ra if instr.ra is not None else 0
    rb = instr.rb if instr.rb is not None else 0
    imm = instr.imm
    target = instr.target if instr.target is not None else 0
    # fold hardwired-zero destinations away at decode time
    if rd == ZERO_REG:
        if kind in _REG_WRITE_KINDS:
            kind = K_NOP
        elif kind == K_LOAD:
            kind = K_LOAD_NODEST
    return (kind, rd, ra, rb, imm, target)


def decode_program(program):
    """Pre-decode every instruction of *program* (cached on the program).

    The cache is invalidated if the instruction count changes (programs
    are finalised at construction, so this is a conservative guard).
    """
    cached = getattr(program, "_step_decoded", None)
    if cached is not None and len(cached) == len(program.instrs):
        return cached
    decoded = [decode_instr(instr) for instr in program.instrs]
    try:
        program._step_decoded = decoded
    except AttributeError:  # pragma: no cover - Program has a plain dict
        pass
    return decoded


class HaltError(RuntimeError):
    """Raised by :meth:`Machine.step` when the program halts and restarts
    are disabled."""


class Machine:
    """Architectural state plus an interpreter for one hardware context.

    :param program: the :class:`~repro.isa.Program` to run.
    :param memory: initial memory image as a dict of 8-byte-aligned byte
        address -> integer word.  Mutated in place by stores.
    :param restart_on_halt: when True (the default for workload runs), a
        ``HALT`` resets the PC to the program entry with registers and
        memory preserved, so runs of any length are possible.
    """

    __slots__ = (
        "program",
        "regs",
        "memory",
        "index",
        "halted",
        "restart_on_halt",
        "instret",
        "restarts",
        "_decoded",
        "_instrs",
        "_index_of",
    )
    # the program is immutable and re-supplied by the workload; register
    # values travel raw (they may exceed 64 bits between writes)
    STATE = ("regs", "memory", "index", "halted", "instret", "restarts")

    def __init__(self, program, memory=None, restart_on_halt=True):
        self.program = program
        self.regs = [0] * 32
        self.memory = memory if memory is not None else {}
        self.index = 0
        self.halted = False
        self.restart_on_halt = restart_on_halt
        self.instret = 0
        self.restarts = 0
        self._decoded = decode_program(program)
        self._instrs = program.instrs
        self._index_of = program.index_of

    @property
    def pc(self):
        """Current architectural PC."""
        return self.program.pc_of(self.index)

    def step(
        self,
        # dispatch codes bound as locals (module/global lookups are ~30%
        # of the old per-step cost); never pass arguments to step().
        _K_LOAD=K_LOAD,
        _K_ADDI=K_ADDI,
        _K_ADD=K_ADD,
        _K_BNEZ=K_BNEZ,
        _K_BEQZ=K_BEQZ,
        _K_SUBI=K_SUBI,
        _K_SUB=K_SUB,
        _K_STORE=K_STORE,
        _K_LI=K_LI,
        _K_MOV=K_MOV,
        _K_BR=K_BR,
        _K_BLTZ=K_BLTZ,
        _K_BGEZ=K_BGEZ,
        _K_JR=K_JR,
        _K_MUL=K_MUL,
        _K_XOR=K_XOR,
        _K_AND=K_AND,
        _K_OR=K_OR,
        _K_ANDI=K_ANDI,
        _K_SLL=K_SLL,
        _K_SRL=K_SRL,
        _K_SLLI=K_SLLI,
        _K_SRLI=K_SRLI,
        _K_CMPEQ=K_CMPEQ,
        _K_CMPLT=K_CMPLT,
        _K_NOP=K_NOP,
        _K_HALT=K_HALT,
        _K_LOAD_NODEST=K_LOAD_NODEST,
        _MASK64=MASK64,
        _signed=_to_signed,
    ):
        """Execute one instruction.

        Returns ``(instr, taken, ea)`` where *taken* is the branch outcome
        (False for non-branches) and *ea* is the effective address (None
        for non-memory instructions).  Raises :class:`HaltError` if the
        program halts with ``restart_on_halt`` disabled.
        """
        index = self.index
        regs = self.regs
        kind, rd, ra, rb, imm, target = self._decoded[index]
        next_index = index + 1
        taken = False
        ea = None

        if kind == _K_LOAD:
            ea = (regs[ra] + imm) & _MASK64
            regs[rd] = self.memory.get(ea & ~7, 0)
        elif kind == _K_ADDI:
            regs[rd] = regs[ra] + imm
        elif kind == _K_ADD:
            regs[rd] = regs[ra] + regs[rb]
        elif kind == _K_BNEZ:
            taken = regs[ra] != 0
            if taken:
                next_index = target
        elif kind == _K_BEQZ:
            taken = regs[ra] == 0
            if taken:
                next_index = target
        elif kind == _K_SUBI:
            regs[rd] = regs[ra] - imm
        elif kind == _K_SUB:
            regs[rd] = regs[ra] - regs[rb]
        elif kind == _K_STORE:
            ea = (regs[ra] + imm) & _MASK64
            self.memory[ea & ~7] = regs[rb] & _MASK64
        elif kind == _K_LI:
            regs[rd] = imm
        elif kind == _K_MOV:
            regs[rd] = regs[ra]
        elif kind == _K_BR:
            taken = True
            next_index = target
        elif kind == _K_BLTZ:
            taken = _signed(regs[ra]) < 0
            if taken:
                next_index = target
        elif kind == _K_BGEZ:
            taken = _signed(regs[ra]) >= 0
            if taken:
                next_index = target
        elif kind == _K_JR:
            taken = True
            next_index = self._index_of(regs[ra])
        elif kind == _K_MUL:
            regs[rd] = (regs[ra] * regs[rb]) & _MASK64
        elif kind == _K_XOR:
            regs[rd] = (regs[ra] ^ regs[rb]) & _MASK64
        elif kind == _K_AND:
            regs[rd] = regs[ra] & regs[rb]
        elif kind == _K_OR:
            regs[rd] = regs[ra] | regs[rb]
        elif kind == _K_ANDI:
            regs[rd] = regs[ra] & imm
        elif kind == _K_SLL:
            regs[rd] = (regs[ra] << (regs[rb] & 63)) & _MASK64
        elif kind == _K_SRL:
            regs[rd] = (regs[ra] & _MASK64) >> (regs[rb] & 63)
        elif kind == _K_SLLI:
            regs[rd] = (regs[ra] << (imm & 63)) & _MASK64
        elif kind == _K_SRLI:
            regs[rd] = (regs[ra] & _MASK64) >> (imm & 63)
        elif kind == _K_CMPEQ:
            regs[rd] = 1 if regs[ra] == regs[rb] else 0
        elif kind == _K_CMPLT:
            regs[rd] = 1 if _signed(regs[ra]) < _signed(regs[rb]) else 0
        elif kind == _K_NOP:
            pass
        elif kind == _K_LOAD_NODEST:
            ea = (regs[ra] + imm) & _MASK64
        else:  # _K_HALT (kind space is closed by the decoder)
            if not self.restart_on_halt:
                self.halted = True
                raise HaltError(
                    "program halted after %d instructions" % self.instret
                )
            self.restarts += 1
            next_index = 0

        self.index = next_index
        self.instret += 1
        return self._instrs[index], taken, ea

    # ------------------------------------------------------------------

    def step_reference(self):
        """Reference if-chain interpreter (the pre-decode-table semantics).

        Kept as the differential-testing oracle for :meth:`step`: it
        re-derives every field from the :class:`~repro.isa.Instr` record on
        each step exactly as the original implementation did.  Slower;
        never used by the timing models.
        """
        instrs = self.program.instrs
        regs = self.regs
        instr = instrs[self.index]
        op = instr.op
        next_index = self.index + 1
        taken = False
        ea = None

        if op == Op.LOAD:
            ea = (regs[instr.ra] + instr.imm) & MASK64
            if instr.rd != ZERO_REG:
                regs[instr.rd] = self.memory.get(ea & ~7, 0)
        elif op == Op.ADDI:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = regs[instr.ra] + instr.imm
        elif op == Op.ADD:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = regs[instr.ra] + regs[instr.rb]
        elif op == Op.SUBI:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = regs[instr.ra] - instr.imm
        elif op == Op.SUB:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = regs[instr.ra] - regs[instr.rb]
        elif op == Op.BNEZ:
            taken = regs[instr.ra] != 0
            if taken:
                next_index = instr.target
        elif op == Op.BEQZ:
            taken = regs[instr.ra] == 0
            if taken:
                next_index = instr.target
        elif op == Op.BLTZ:
            taken = _to_signed(regs[instr.ra]) < 0
            if taken:
                next_index = instr.target
        elif op == Op.BGEZ:
            taken = _to_signed(regs[instr.ra]) >= 0
            if taken:
                next_index = instr.target
        elif op == Op.STORE:
            ea = (regs[instr.ra] + instr.imm) & MASK64
            self.memory[ea & ~7] = regs[instr.rb] & MASK64
        elif op == Op.LI:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = instr.imm
        elif op == Op.MOV:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = regs[instr.ra]
        elif op == Op.BR:
            taken = True
            next_index = instr.target
        elif op == Op.JR:
            taken = True
            next_index = self.program.index_of(regs[instr.ra])
        elif op == Op.MUL:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = (regs[instr.ra] * regs[instr.rb]) & MASK64
        elif op == Op.XOR:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = (regs[instr.ra] ^ regs[instr.rb]) & MASK64
        elif op == Op.AND:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = regs[instr.ra] & regs[instr.rb]
        elif op == Op.OR:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = regs[instr.ra] | regs[instr.rb]
        elif op == Op.ANDI:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = regs[instr.ra] & instr.imm
        elif op == Op.SLL:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = (regs[instr.ra] << (regs[instr.rb] & 63)) & MASK64
        elif op == Op.SRL:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = (regs[instr.ra] & MASK64) >> (regs[instr.rb] & 63)
        elif op == Op.SLLI:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = (regs[instr.ra] << (instr.imm & 63)) & MASK64
        elif op == Op.SRLI:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = (regs[instr.ra] & MASK64) >> (instr.imm & 63)
        elif op == Op.CMPEQ:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = 1 if regs[instr.ra] == regs[instr.rb] else 0
        elif op == Op.CMPLT:
            if instr.rd != ZERO_REG:
                regs[instr.rd] = (
                    1 if _to_signed(regs[instr.ra]) < _to_signed(regs[instr.rb]) else 0
                )
        elif op == Op.NOP:
            pass
        elif op == Op.HALT:
            if not self.restart_on_halt:
                self.halted = True
                raise HaltError("program halted after %d instructions" % self.instret)
            self.restarts += 1
            next_index = 0
        else:  # pragma: no cover - opcode space is closed
            raise RuntimeError("unknown opcode %r" % (op,))

        regs[ZERO_REG] = 0
        self.index = next_index
        self.instret += 1
        return instr, taken, ea

    def run(self, max_instructions):
        """Run up to *max_instructions*, returning the list of dynamic records.

        Convenience for tests and analyses; the timing models call
        :meth:`step` directly to avoid materialising traces.
        """
        records = []
        append = records.append
        step = self.step
        for _ in range(max_instructions):
            try:
                append(step())
            except HaltError:
                break
        return records
