"""Next-N-lines sequential prefetcher (Smith, 1978).

On every demand miss, queue the next *n* sequential cache blocks.  The
cheapest design in the light-weight class; included as the paper's
"Next-n" reference point and as a sanity baseline in the ablations.
"""

from repro.prefetchers.base import Prefetcher

#: blocks queued past each missing block
NEXTN_DEGREE = 4


class NextNPrefetcher(Prefetcher):
    """Prefetch the *n* blocks following each missing block."""

    name = "nextn"

    def __init__(self, n=NEXTN_DEGREE, block_bytes=64):
        super().__init__(block_bytes=block_bytes)
        self.n = n

    def on_load(self, pc, addr, hit, now):
        if hit:
            return
        base = addr & ~(self.block_bytes - 1)
        for step in range(1, self.n + 1):
            self.push(base + step * self.block_bytes)

    def storage_bits(self):
        return 8  # a degree register; effectively stateless
