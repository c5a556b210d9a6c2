"""Static instruction record.

``Instr`` is deliberately a ``__slots__`` class rather than a dataclass: the
functional interpreter touches every field of every dynamic instruction, and
slot access is measurably faster than ``__dict__`` lookups at simulation
scale.
"""

from repro.isa.opcodes import (
    ALU_OPS,
    BRANCHES,
    COND_BRANCHES,
    IMM_ALU,
    MEM_OPS,
    Op,
)

_OP_NAMES = {op: op.name.lower() for op in Op}


class Instr:
    """One static instruction.

    Fields not meaningful for an opcode are left at their defaults
    (register index ``None``, immediate ``0``, target ``None``).

    :param op: opcode (:class:`repro.isa.Op`)
    :param rd: destination register index
    :param ra: first source register index (base register for memory ops,
        condition register for branches, jump register for ``JR``)
    :param rb: second source register index (store data register)
    :param imm: immediate / memory displacement
    :param target: static instruction index of the branch target
    """

    __slots__ = ("op", "rd", "ra", "rb", "imm", "target", "index", "pc")

    def __init__(self, op, rd=None, ra=None, rb=None, imm=0, target=None):
        self.op = op
        self.rd = rd
        self.ra = ra
        self.rb = rb
        self.imm = imm
        self.target = target
        # assigned when the instruction is placed into a Program
        self.index = None
        self.pc = None

    @property
    def is_branch(self):
        return self.op in BRANCHES

    @property
    def is_cond_branch(self):
        return self.op in COND_BRANCHES

    @property
    def is_load(self):
        return self.op == Op.LOAD

    @property
    def is_store(self):
        return self.op == Op.STORE

    @property
    def is_mem(self):
        return self.op in MEM_OPS

    def sources(self):
        """Return the tuple of source register indices this instruction reads."""
        op = self.op
        if op in MEM_OPS:
            if op == Op.STORE:
                return (self.ra, self.rb)
            return (self.ra,)
        if op in COND_BRANCHES or op == Op.JR:
            return (self.ra,)
        if op in IMM_ALU:
            if op == Op.LI:
                return ()
            return (self.ra,)
        if op in ALU_OPS:
            return (self.ra, self.rb)
        return ()

    def __repr__(self):
        name = _OP_NAMES[self.op]
        parts = []
        if self.rd is not None:
            parts.append("r%d" % self.rd)
        if self.op == Op.LOAD:
            return "load r%d, %d(r%d)" % (self.rd, self.imm, self.ra)
        if self.op == Op.STORE:
            return "store r%d, %d(r%d)" % (self.rb, self.imm, self.ra)
        if self.ra is not None:
            parts.append("r%d" % self.ra)
        if self.rb is not None:
            parts.append("r%d" % self.rb)
        if self.op in IMM_ALU and self.op != Op.MOV:
            parts.append(str(self.imm))
        if self.target is not None:
            parts.append("@%s" % self.target)
        return "%s %s" % (name, ", ".join(parts))
