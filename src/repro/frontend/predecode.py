"""Predecode stage: shadow-branch discovery on L1-I fills.

Whenever a line enters the L1-I (demand miss or prefetch issue) the
predecoder scans its instructions in the static program image -- the
model's stand-in for the predecode bits a real front end extracts from
the incoming cache line -- and installs the taken targets of *shadow
branches* into the BTB.  A shadow branch is a branch present in the
fetched block that is not the entry point of the fetch ("Exposing
Shadow Branches"): without the early fill the BPU run-ahead walker
cannot see it until it first executes, so the walker sails past it and
the FTQ flushes when the branch is actually taken.

Only direct branches (conditional + ``BR``) are installed -- their taken
target is static; ``JR`` targets stay last-target-predicted by the
normal execution-time BTB update.

The same static view, :func:`branch_tables` (every branch's position,
kind and taken target, built once per program), is the BPU walker's
branch index: it visits only the branch slots of a fetch block.
"""

from bisect import bisect_left

from repro.isa.opcodes import COND_BRANCHES, Op

_OP_JR = int(Op.JR)
_OP_BR = int(Op.BR)
_COND_OPS = frozenset(int(op) for op in COND_BRANCHES)


def branch_tables(program):
    """Static branch tables of *program* (cached on the program).

    Returns ``(branches, kinds, targets)``: the ascending instruction
    indices of every branch and, per branch, its kind (``"c"``
    conditional, ``"u"`` ``BR``/``JR``) and its static taken-target PC
    (None for ``JR``).  Branch positions are static, so the tables are
    built once per program and shared by every front end that runs it
    (``build_workload`` memoizes programs), as
    :func:`~repro.cpu.functional.decode_program` shares its decode.
    """
    cached = getattr(program, "_branch_tables", None)
    if cached is not None:
        return cached
    base = program.base_pc
    branches = []
    kinds = []
    targets = []
    for index, instr in enumerate(program.instrs):
        op = int(instr.op)
        if op in _COND_OPS:
            kind, target = "c", base + 4 * instr.target
        elif op == _OP_BR:
            kind, target = "u", base + 4 * instr.target
        elif op == _OP_JR:
            kind, target = "u", None
        else:
            continue
        branches.append(index)
        kinds.append(kind)
        targets.append(target)
    program._branch_tables = (branches, kinds, targets)
    return program._branch_tables


class Predecoder:
    """Scans filled L1-I blocks and fills the BTB with shadow branches.

    :param program: the static :class:`~repro.isa.Program` image.
    :param btb: the pipeline's shared
        :class:`~repro.branch.BranchTargetBuffer`.
    :param block_bytes: L1-I line size (fetch-block geometry).
    """

    # the BTB installs themselves are the BTB's state
    STATE = ("_scanned", "_shadow", "blocks", "shadow_fills", "shadow_hits")

    def __init__(self, program, btb, block_bytes):
        shift = block_bytes.bit_length() - 1
        if 1 << shift != block_bytes:
            raise ValueError("block size must be a power of two, got %r"
                             % (block_bytes,))
        self.program = program
        self.btb = btb
        self.block_bytes = block_bytes
        self.block_shift = shift
        self._base_pc = program.base_pc
        # the program's static branch tables (shared, never mutated):
        # the fill scan visits only a block's branch slots
        self._branches, self._kinds, self._targets = branch_tables(program)
        self._scanned = set()   # block numbers already predecoded
        self._shadow = set()    # shadow-installed branch PCs not yet seen
        # counters
        self.blocks = 0         # blocks predecoded
        self.shadow_fills = 0   # BTB entries installed ahead of execution
        self.shadow_hits = 0    # walker discoveries through a shadow fill

    # ------------------------------------------------------------------
    # static queries (the BPU walker's view)

    def branch_kind(self, pc):
        """``"c"``/``"u"``/None for the instruction at *pc* (None when
        *pc* is outside the program or not a branch)."""
        index = (pc - self._base_pc) >> 2
        branches = self._branches
        slot = bisect_left(branches, index)
        if slot < len(branches) and branches[slot] == index:
            return self._kinds[slot]
        return None

    def note_hit(self, pc):
        """The walker found the branch at *pc* through the BTB; credit
        the shadow fill if it was never executed before."""
        shadow = self._shadow
        if pc in shadow:
            shadow.discard(pc)
            self.shadow_hits += 1

    # ------------------------------------------------------------------
    # fill-time scan

    def on_fill(self, addr, entry_pc=None):
        """A line entered the L1-I; scan it once and install shadow
        branches.

        :param entry_pc: the demanded PC for demand fills (the one
            non-shadow instruction); None for prefetched lines, whose
            branches are all shadow.
        """
        block = addr >> self.block_shift
        scanned = self._scanned
        if block in scanned:
            return
        scanned.add(block)
        self.blocks += 1
        base = self._base_pc
        branches = self._branches
        targets = self._targets
        first_pc = block << self.block_shift
        first = bisect_left(branches, (first_pc - base) >> 2)
        stop = bisect_left(branches,
                           (first_pc + self.block_bytes - base) >> 2, first)
        btb_update = self.btb.update
        shadow = self._shadow
        for slot in range(first, stop):
            target = targets[slot]
            if target is None:
                continue  # indirect: no static taken target
            pc = base + branches[slot] * 4
            if pc == entry_pc:
                continue  # the entry point is not a shadow branch
            btb_update(pc, target)
            shadow.add(pc)
            self.shadow_fills += 1
