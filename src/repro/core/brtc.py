"""Branch Trace Cache (BrTC).

"The BrTC captures the dynamic control flow sequence of a program and
constructs future lookahead paths across multiple BBs" (Section IV-B1).
Indexed by the :func:`~repro.core.hashing.bb_hash` of (branch PC,
direction, target) -- i.e. by the basic block being *entered* -- each
entry names the branch that *ends* that block and that branch's taken
target, which is everything the lookahead needs to take the next step.
Entries are installed at commit time only.

Each entry also carries its *successors*: the ending branch's PC word
and 32-bit tag, and the ``bb_hash`` of the block each direction enters
(None for a taken target never observed).  They are a pure function of
the entry, recomputed whenever an update changes it and on restore, so
a lookahead step reads one tuple instead of re-deriving two hashes.
"""

from repro.core.hashing import _MASK32, bb_hash


def _successors(end_branch_pc, taken_target):
    """``(pc word, tag, not-taken hash, taken hash or None)`` of the
    branch ending a block."""
    return (
        end_branch_pc >> 2,
        end_branch_pc & _MASK32,
        bb_hash(end_branch_pc, False, end_branch_pc + 4),
        (bb_hash(end_branch_pc, True, taken_target)
         if taken_target is not None else None),
    )


class BranchTraceCache:
    """Direct-mapped BrTC with 32-bit branch-PC tags."""

    def __init__(self, entries=256):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self._mask = entries - 1
        self.tags = [None] * entries
        self.end_branch_pc = [0] * entries
        self.end_taken_target = [None] * entries
        self.successors = [None] * entries
        self.lookups = 0
        self.hits = 0

    def lookup(self, index_hash, tag):
        """Return ``(end_branch_pc, taken_target)`` for the block keyed by
        *index_hash*, or None on miss/tag mismatch."""
        self.lookups += 1
        slot = index_hash & self._mask
        if self.tags[slot] != tag:
            return None
        self.hits += 1
        return self.end_branch_pc[slot], self.end_taken_target[slot]

    def update(self, index_hash, tag, end_branch_pc, taken_target):
        """Commit-time install: the block keyed by *index_hash* ends at
        *end_branch_pc* whose taken target is *taken_target* (None when it
        has not been observed, e.g. an indirect branch never seen taken)."""
        slot = index_hash & self._mask
        if (
            self.tags[slot] == tag
            and self.end_branch_pc[slot] == end_branch_pc
            and (taken_target is None
                 or self.end_taken_target[slot] == taken_target)
        ):
            return  # unchanged (a None target keeps a known one)
        self.tags[slot] = tag
        self.end_branch_pc[slot] = end_branch_pc
        self.end_taken_target[slot] = taken_target
        self.successors[slot] = _successors(end_branch_pc, taken_target)

    @property
    def hit_rate(self):
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self):
        """BrTC contents and counters as a JSON-safe structure."""
        return {
            "tags": list(self.tags),
            "end_branch_pc": list(self.end_branch_pc),
            "end_taken_target": list(self.end_taken_target),
            "lookups": self.lookups,
            "hits": self.hits,
        }

    def restore(self, state):
        """Restore BrTC state from :meth:`snapshot` output, into the
        existing lists (the B-Fetch engine binds them once)."""
        self.tags[:] = state["tags"]
        self.end_branch_pc[:] = state["end_branch_pc"]
        self.end_taken_target[:] = state["end_taken_target"]
        self.successors[:] = [
            _successors(end_pc, target) if tag is not None else None
            for tag, end_pc, target in zip(
                self.tags, self.end_branch_pc, self.end_taken_target)
        ]
        self.lookups = state["lookups"]
        self.hits = state["hits"]

    def storage_bits(self):
        # tag(32) + end branch PC(32) + target(32) + valid  (Table I: 2.06KB
        # at 256 entries assumes the paper's 32-bit-folded fields; ours adds
        # an explicit target per the indirect-branch extension)
        return self.entries * (32 + 32 + 1)
