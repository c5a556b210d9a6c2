"""Tango-style branch-directed prefetcher (Pinter & Yoaz, MICRO 1996).

Tango, like B-Fetch, is triggered by branches rather than misses, but it
speculates the next effective address of each load in the upcoming basic
block from the load's *previous effective address plus a learned delta* --
not from current register state.  The paper (Section III-C) credits this
difference for B-Fetch's accuracy advantage; this implementation exists to
back that claim with an ablation (``benchmarks/test_ablations.py``).

Model: a direct-mapped table keyed by (branch PC, direction, target)
holding up to three (load PC, last EA, delta) tuples for the basic block
the branch leads to.  On branch decode the predicted-path entry's loads
are prefetched at ``last_ea + delta``; training happens at commit.
"""

from repro.prefetchers.base import Prefetcher

_MAX_LOADS = 3


class _BlockEntry:
    __slots__ = ("tag", "loads")
    STATE = __slots__  # a checkpoint record

    def __init__(self, tag):
        self.tag = tag
        self.loads = {}  # load pc -> [last_ea, delta]


class TangoPrefetcher(Prefetcher):
    """Branch-directed prefetching from effective-address history."""

    name = "tango"
    STATE = Prefetcher.STATE + ("table", "_last_branch_key")

    def __init__(self, entries=256, block_bytes=64):
        super().__init__(block_bytes=block_bytes)
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.table = [None] * entries
        self._mask = entries - 1
        self._last_branch_key = None

    # ------------------------------------------------------------------

    @staticmethod
    def _key(pc, taken, target):
        return (pc >> 2) ^ ((0x9E3779B1 * target) & 0xFFFFFFFF) ^ (
            0x55555555 if taken else 0
        )

    def _entry(self, key, allocate):
        index = key & self._mask
        entry = self.table[index]
        if entry is None or entry.tag != key:
            if not allocate:
                return None
            entry = _BlockEntry(key)
            self.table[index] = entry
        return entry

    # ------------------------------------------------------------------

    def on_branch_decode(self, pc, pred_taken, target, now):
        fallthrough = pc + 4
        key = self._key(pc, pred_taken, target if pred_taken else fallthrough)
        entry = self._entry(key, allocate=False)
        if entry is None:
            return
        for load_pc, (last_ea, delta) in entry.loads.items():
            self.push(last_ea + delta, load_pc & 0x3FF)

    def on_commit(self, instr, ea, taken, next_pc, regs, now):
        if instr.is_branch:
            self._last_branch_key = self._key(instr.pc, taken, next_pc)
            return
        if not instr.is_load or self._last_branch_key is None:
            return
        entry = self._entry(self._last_branch_key, allocate=True)
        record = entry.loads.get(instr.pc)
        if record is None:
            if len(entry.loads) >= _MAX_LOADS:
                return
            entry.loads[instr.pc] = [ea, 0]
        else:
            record[1] = ea - record[0]
            record[0] = ea

    def storage_bits(self):
        # tag(32) + 3 x (pc tag 10 + ea 32 + delta 16)
        return self.entries * (32 + _MAX_LOADS * (10 + 32 + 16))
