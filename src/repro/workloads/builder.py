"""Programmatic assembly of ISA programs.

:class:`ProgramBuilder` offers one emit method per opcode plus label
management, so kernel generators read like the assembly they produce.
"""

from repro.isa.instructions import Instr
from repro.isa.opcodes import Op
from repro.isa.program import Program

# opcodes bound once: reading an IntEnum member off its class costs about
# ten times a module global, and a server workload emits ~20k instructions
_ADD, _SUB, _MUL, _XOR, _AND = Op.ADD, Op.SUB, Op.MUL, Op.XOR, Op.AND
_OR, _SLL, _SRL, _CMPEQ, _CMPLT = Op.OR, Op.SLL, Op.SRL, Op.CMPEQ, Op.CMPLT
_ADDI, _SUBI, _ANDI, _SLLI = Op.ADDI, Op.SUBI, Op.ANDI, Op.SLLI
_SRLI, _LI, _MOV = Op.SRLI, Op.LI, Op.MOV
_LOAD, _STORE = Op.LOAD, Op.STORE
_BEQZ, _BNEZ, _BLTZ, _BGEZ = Op.BEQZ, Op.BNEZ, Op.BLTZ, Op.BGEZ
_BR, _JR, _NOP, _HALT = Op.BR, Op.JR, Op.NOP, Op.HALT


class ProgramBuilder:
    """Accumulates instructions and labels, then builds a Program."""

    def __init__(self, name="generated"):
        self.name = name
        self.instrs = []
        self.labels = {}
        self._uid = 0

    # ------------------------------------------------------------------

    def unique(self, stem):
        """Return a label name guaranteed unique within this builder."""
        self._uid += 1
        return "%s_%d" % (stem, self._uid)

    def label(self, name):
        """Bind *name* to the next emitted instruction."""
        if name in self.labels:
            raise ValueError("duplicate label %r" % name)
        self.labels[name] = len(self.instrs)
        return name

    def here(self):
        """Current instruction index."""
        return len(self.instrs)

    # ------------------------------------------------------------------
    # ALU

    # emitters pass Instr's fields by position, (op, rd, ra, rb, imm,
    # target): keywords cost twice as much per instruction

    def _emit(self, instr):
        self.instrs.append(instr)
        return instr

    def li(self, rd, imm):
        return self._emit(Instr(_LI, rd, None, None, imm))

    def mov(self, rd, ra):
        return self._emit(Instr(_MOV, rd, ra))

    def add(self, rd, ra, rb):
        return self._emit(Instr(_ADD, rd, ra, rb))

    def sub(self, rd, ra, rb):
        return self._emit(Instr(_SUB, rd, ra, rb))

    def mul(self, rd, ra, rb):
        return self._emit(Instr(_MUL, rd, ra, rb))

    def xor(self, rd, ra, rb):
        return self._emit(Instr(_XOR, rd, ra, rb))

    def and_(self, rd, ra, rb):
        return self._emit(Instr(_AND, rd, ra, rb))

    def or_(self, rd, ra, rb):
        return self._emit(Instr(_OR, rd, ra, rb))

    def sll(self, rd, ra, rb):
        return self._emit(Instr(_SLL, rd, ra, rb))

    def srl(self, rd, ra, rb):
        return self._emit(Instr(_SRL, rd, ra, rb))

    def cmpeq(self, rd, ra, rb):
        return self._emit(Instr(_CMPEQ, rd, ra, rb))

    def cmplt(self, rd, ra, rb):
        return self._emit(Instr(_CMPLT, rd, ra, rb))

    def addi(self, rd, ra, imm):
        return self._emit(Instr(_ADDI, rd, ra, None, imm))

    def subi(self, rd, ra, imm):
        return self._emit(Instr(_SUBI, rd, ra, None, imm))

    def andi(self, rd, ra, imm):
        return self._emit(Instr(_ANDI, rd, ra, None, imm))

    def slli(self, rd, ra, imm):
        return self._emit(Instr(_SLLI, rd, ra, None, imm))

    def srli(self, rd, ra, imm):
        return self._emit(Instr(_SRLI, rd, ra, None, imm))

    # ------------------------------------------------------------------
    # memory

    def load(self, rd, imm, ra):
        return self._emit(Instr(_LOAD, rd, ra, None, imm))

    def store(self, rb, imm, ra):
        return self._emit(Instr(_STORE, None, ra, rb, imm))

    # ------------------------------------------------------------------
    # control flow (targets are label strings resolved at build())

    def beqz(self, ra, target):
        return self._emit(Instr(_BEQZ, None, ra, None, 0, target))

    def bnez(self, ra, target):
        return self._emit(Instr(_BNEZ, None, ra, None, 0, target))

    def bltz(self, ra, target):
        return self._emit(Instr(_BLTZ, None, ra, None, 0, target))

    def bgez(self, ra, target):
        return self._emit(Instr(_BGEZ, None, ra, None, 0, target))

    def br(self, target):
        return self._emit(Instr(_BR, None, None, None, 0, target))

    def jr(self, ra):
        return self._emit(Instr(_JR, None, ra))

    def nop(self):
        return self._emit(Instr(_NOP))

    def halt(self):
        return self._emit(Instr(_HALT))

    # ------------------------------------------------------------------

    def append_builder(self, other):
        """Append another builder's instructions, shifting its labels.

        Branch targets are stored as label names until :meth:`build`, so
        concatenation only needs the label table merged with an offset.
        """
        offset = len(self.instrs)
        for name, index in other.labels.items():
            if name in self.labels:
                raise ValueError("label %r defined in both builders" % name)
            self.labels[name] = index + offset
        for instr in other.instrs:
            if instr.target is not None and not isinstance(instr.target, str):
                raise ValueError(
                    "append_builder requires label-name targets, got %r"
                    % (instr.target,)
                )
        self.instrs.extend(other.instrs)
        return self

    def build(self, base_pc=0x1000):
        """Resolve labels and return the finished Program."""
        program = Program(self.instrs, labels=self.labels,
                          base_pc=base_pc, name=self.name)
        program.validate()
        return program
