"""Index hashing for the B-Fetch tables.

Both the BrTC and the MHT are "indexed using a hash of the current branch
PC, predicted branch direction, and the target address" (Section IV-B1);
including the target disambiguates indirect branches.  ``load_pc_hash`` is
the 10-bit load-PC digest stored in L1D lines and used to index the
per-load filter.

The lookahead walk in :mod:`repro.core.bfetch` computes ``bb_hash``
inline from these same constants, once per walked block.
"""

_GOLDEN = 0x9E3779B1
_MIX = 0x85EBCA6B
_MASK32 = 0xFFFFFFFF


def bb_hash(branch_pc, taken, target_pc):
    """Hash identifying the basic block entered after a branch outcome.

    Both PC terms are multiplied before combining and the high bits are
    folded down -- regularly spaced branch PCs (straight-line code with
    fixed block sizes) must not collapse onto a few table slots.
    """
    value = ((branch_pc >> 2) * _GOLDEN) & _MASK32
    value ^= ((target_pc >> 2) * _MIX) & _MASK32
    value ^= value >> 15
    if taken:
        value ^= 0x5A5A5A5A
    return value & _MASK32


def load_pc_hash(pc):
    """10-bit digest of a load PC (stored per cache block, Table I)."""
    folded = (pc >> 2) ^ (pc >> 12) ^ (pc >> 22)
    return folded & 0x3FF
