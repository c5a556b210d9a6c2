"""Programs, labels, and basic-block / CFG extraction.

A :class:`Program` is an ordered list of :class:`~repro.isa.Instr` plus a
label table.  Each instruction gets a 4-byte-spaced PC starting at
``base_pc``, mirroring a real text segment so that PC-indexed predictor and
prefetcher structures hash realistic addresses.
"""

from repro.isa.opcodes import BRANCHES, COND_BRANCHES, Op

INSTR_BYTES = 4

# read once per instruction by validate(): module constants, not Op.X
_HALT = Op.HALT
_DIRECT_BRANCHES = BRANCHES - {Op.JR}


class ProgramError(ValueError):
    """Raised for malformed programs (bad targets, missing halt, ...)."""


class Program:
    """An executable program for the reproduction ISA.

    :param instrs: list of :class:`~repro.isa.Instr`; targets may be label
        strings (resolved against *labels*) or integer instruction indices.
    :param labels: mapping of label name -> instruction index.
    :param base_pc: PC of the first instruction.
    :param name: human-readable name (used in reports).
    """

    def __init__(self, instrs, labels=None, base_pc=0x1000, name="program"):
        if not instrs:
            raise ProgramError("a program needs at least one instruction")
        self.instrs = list(instrs)
        self.labels = dict(labels or {})
        self.base_pc = base_pc
        self.name = name
        self._finalize()

    def _finalize(self):
        n = len(self.instrs)
        for index, instr in enumerate(self.instrs):
            instr.index = index
            instr.pc = self.base_pc + index * INSTR_BYTES
            if instr.target is None:
                continue
            target = instr.target
            if isinstance(target, str):
                if target not in self.labels:
                    raise ProgramError("undefined label %r" % target)
                target = self.labels[target]
                instr.target = target
            if not isinstance(target, int) or isinstance(target, bool):
                raise ProgramError(
                    "branch target must be a label or instruction index, "
                    "got %r" % (target,)
                )
            if not 0 <= target < n:
                raise ProgramError(
                    "branch target %d out of range [0, %d)" % (target, n)
                )

    def __len__(self):
        return len(self.instrs)

    def __getitem__(self, index):
        return self.instrs[index]

    def pc_of(self, index):
        """Return the PC of the instruction at *index*."""
        return self.base_pc + index * INSTR_BYTES

    def index_of(self, pc):
        """Return the instruction index for *pc*."""
        offset = pc - self.base_pc
        if offset % INSTR_BYTES or not 0 <= offset // INSTR_BYTES < len(self.instrs):
            raise ProgramError("pc 0x%x is not inside this program" % pc)
        return offset // INSTR_BYTES

    def validate(self):
        """Check structural invariants; raise :class:`ProgramError` on failure.

        Validates that every register index is in range and that the program
        can terminate (contains a HALT or an obvious backstop).
        """
        has_halt = False
        for instr in self.instrs:
            rd, ra, rb = instr.rd, instr.ra, instr.rb
            # fast path: exact ints in range need none of the checks below
            if not ((rd is None or type(rd) is int and 0 <= rd < 32)
                    and (ra is None or type(ra) is int and 0 <= ra < 32)
                    and (rb is None or type(rb) is int and 0 <= rb < 32)
                    and type(instr.imm) is int):
                _check_fields(instr)
            op = instr.op
            if op == _HALT:
                has_halt = True
            if op in _DIRECT_BRANCHES and instr.target is None:
                raise ProgramError("direct branch without target: %r" % instr)
        if not has_halt:
            raise ProgramError("program has no HALT instruction")
        return True


def _check_fields(instr):
    """Raise :class:`ProgramError` unless every register of *instr* is
    None or an in-range ``int`` and its immediate an ``int`` (``bool``
    is neither)."""
    for reg in (instr.rd, instr.ra, instr.rb):
        if reg is None:
            continue
        if not isinstance(reg, int) or isinstance(reg, bool) \
                or not 0 <= reg < 32:
            raise ProgramError("register index %r out of range" % (reg,))
    if not isinstance(instr.imm, int) or isinstance(instr.imm, bool):
        raise ProgramError("immediate must be an integer, got %r"
                           % (instr.imm,))


class BasicBlock:
    """A maximal straight-line sequence of instructions.

    :ivar start: index of the first instruction.
    :ivar end: index one past the last instruction.
    :ivar successors: indices of successor blocks' *start* instructions.
    """

    __slots__ = ("start", "end", "successors")

    def __init__(self, start, end):
        self.start = start
        self.end = end
        self.successors = []

    def __len__(self):
        return self.end - self.start

    def __repr__(self):
        return "BasicBlock(%d..%d -> %s)" % (self.start, self.end, self.successors)


def extract_basic_blocks(program):
    """Partition *program* into basic blocks and link successors.

    Returns a list of :class:`BasicBlock` ordered by start index.  Used by
    the workload validators and the Fig. 3 variation analysis; the simulator
    itself discovers blocks dynamically like the hardware would.
    """
    n = len(program)
    leaders = {0}
    for index, instr in enumerate(program.instrs):
        if instr.op in BRANCHES:
            if instr.target is not None:
                leaders.add(instr.target)
            if index + 1 < n:
                leaders.add(index + 1)
        elif instr.op == Op.HALT and index + 1 < n:
            leaders.add(index + 1)
    starts = sorted(leaders)
    blocks = []
    block_of_start = {}
    for position, start in enumerate(starts):
        end = starts[position + 1] if position + 1 < len(starts) else n
        block = BasicBlock(start, end)
        block_of_start[start] = block
        blocks.append(block)
    for block in blocks:
        last = program.instrs[block.end - 1]
        if last.op in COND_BRANCHES:
            block.successors.append(last.target)
            if block.end < n:
                block.successors.append(block.end)
        elif last.op == Op.BR:
            block.successors.append(last.target)
        elif last.op == Op.JR:
            pass  # indirect: unknowable statically
        elif last.op == Op.HALT:
            pass
        elif block.end < n:
            block.successors.append(block.end)
    return blocks
