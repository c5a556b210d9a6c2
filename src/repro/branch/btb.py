"""Branch target buffer.

A direct-mapped PC -> target cache.  The main pipeline uses it to predict
indirect (``JR``) targets (last-target prediction); direct-branch targets in
the trace-driven model come from the instruction itself, as they would from
decode.
"""


class BranchTargetBuffer:
    """Direct-mapped BTB with partial tags.

    :param entries: number of slots (power of two).
    :param tag_bits: partial tag width.
    """

    STATE = ("tags", "targets", "hits", "misses")

    def __init__(self, entries=2048, tag_bits=16):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.tag_bits = tag_bits
        self._mask = entries - 1
        self._tag_mask = (1 << tag_bits) - 1
        self.tags = [None] * entries
        self.targets = [0] * entries
        self.hits = 0
        self.misses = 0

    def _slot(self, pc):
        index = (pc >> 2) & self._mask
        tag = (pc >> 2) & self._tag_mask
        return index, tag

    def lookup(self, pc):
        """Return the predicted target for *pc*, or None on a BTB miss."""
        index, tag = self._slot(pc)
        if self.tags[index] == tag:
            self.hits += 1
            return self.targets[index]
        self.misses += 1
        return None

    def peek(self, pc):
        """Like :meth:`lookup` but without touching the hit/miss
        counters -- the front-end BPU walker probes every branch slot of
        each fetch block it runs ahead through, which would otherwise
        drown the demand hit rate."""
        index, tag = self._slot(pc)
        if self.tags[index] == tag:
            return self.targets[index]
        return None

    def update(self, pc, target):
        """Install or refresh the target for the branch at *pc*."""
        index, tag = self._slot(pc)
        self.tags[index] = tag
        self.targets[index] = target

    def storage_bits(self):
        return self.entries * (self.tag_bits + 32)
