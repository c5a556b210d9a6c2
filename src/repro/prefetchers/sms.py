"""Spatial Memory Streaming (Somogyi et al., ISCA 2006).

SMS learns, per (trigger PC, region offset), the *pattern* of cache blocks
an application touches inside a fixed-size spatial region, and replays the
whole pattern when the same trigger recurs in a new region.

Structures (paper Section IV-C / Table I configuration):

* **Active Generation Table (AGT)**, 64 entries -- regions currently being
  recorded.  A generation begins on a demand miss that starts a new region
  and ends when any block of the region leaves the L1 (eviction) or the
  AGT entry is displaced; at that point the accumulated bit pattern is
  committed to the PHT under the generation's trigger key.
* **Pattern History Table (PHT)**, 16K entries -- learned patterns indexed
  by a hash of (trigger PC, offset-in-region).

The paper's separate filtering table is omitted, matching the optimisation
the authors describe (duplicate suppression via the AGT bit vectors).
"""

from repro.prefetchers.base import Prefetcher

# the paper's best practical configuration (Table I)
REGION_BYTES = 2048
AGT_ENTRIES = 64
PHT_ENTRIES = 16384
# Table I budgets 36KB for 16K entries = 18 bits/entry; with a 32-block
# pattern that leaves only a ~4-bit partial tag, so PHT aliasing
# (replaying the wrong trigger's pattern) is part of the design point
PHT_TAG_BITS = 4


class _Generation:
    __slots__ = ("trigger_key", "pattern", "lru")
    STATE = __slots__  # a checkpoint record

    def __init__(self, trigger_key, pattern, lru):
        self.trigger_key = trigger_key
        self.pattern = pattern
        self.lru = lru


class SMSPrefetcher(Prefetcher):
    """Spatial Memory Streaming over :data:`REGION_BYTES` regions of
    *block_bytes* lines (the hierarchy's line size)."""

    name = "sms"
    # AGT order is behaviour: its LRU victim scan breaks ties on it
    STATE = Prefetcher.STATE + ("agt", "pht", "_tick")

    def __init__(self, block_bytes=64):
        super().__init__(block_bytes=block_bytes)
        if REGION_BYTES % block_bytes:
            raise ValueError("region must be a multiple of the block size")
        self.blocks_per_region = REGION_BYTES // block_bytes
        self._region_shift = REGION_BYTES.bit_length() - 1
        self._block_shift = self.block_shift
        self._offset_mask = self.blocks_per_region - 1
        self.agt = {}  # region base -> _Generation
        self.pht = {}  # slot index -> (tag, pattern)
        self._tick = 0

    # ------------------------------------------------------------------

    def _trigger_key(self, pc, offset):
        return ((pc >> 2) << 6) ^ offset

    def _pht_slot(self, key):
        slot = key % PHT_ENTRIES
        tag = (key // PHT_ENTRIES) & ((1 << PHT_TAG_BITS) - 1)
        return slot, tag

    def _commit_generation(self, generation):
        """Store a finished generation's pattern into the PHT."""
        slot, tag = self._pht_slot(generation.trigger_key)
        self.pht[slot] = (tag, generation.pattern)

    def _end_generation(self, region):
        generation = self.agt.pop(region, None)
        if generation is not None:
            self._commit_generation(generation)

    # ------------------------------------------------------------------

    def _train(self, pc, addr, hit, now):
        region = addr >> self._region_shift
        offset = (addr >> self._block_shift) & self._offset_mask
        self._tick += 1
        generation = self.agt.get(region)
        if generation is not None:
            generation.pattern |= 1 << offset
            generation.lru = self._tick
            return
        if hit:
            # hits outside an active generation carry no new information
            return
        # a miss in an untracked region: new generation
        key = self._trigger_key(pc, offset)
        slot, tag = self._pht_slot(key)
        stored = self.pht.get(slot)
        if stored is not None and stored[0] == tag:
            region_base = region << self._region_shift
            pattern = stored[1] & ~(1 << offset)
            meta = pc & 0x3FF
            while pattern:
                low = pattern & -pattern
                self.push(region_base
                          + (low.bit_length() - 1) * self.block_bytes, meta)
                pattern ^= low
        if len(self.agt) >= AGT_ENTRIES:
            victim = min(self.agt, key=lambda r: self.agt[r].lru)
            self._commit_generation(self.agt.pop(victim))
        self.agt[region] = _Generation(key, 1 << offset, self._tick)

    def on_load(self, pc, addr, hit, now):
        self._train(pc, addr, hit, now)

    def on_store(self, pc, addr, hit, now):
        self._train(pc, addr, hit, now)

    def on_l1d_eviction(self, addr, line):
        """A block leaving L1 ends its region's generation (SMS rule)."""
        self._end_generation(addr >> self._region_shift)

    # ------------------------------------------------------------------

    def storage_bits(self):
        # AGT: region tag(26) + trigger key(32) + pattern + lru(4)
        agt_bits = AGT_ENTRIES * (26 + 32 + self.blocks_per_region + 4)
        # PHT: partial tag + raw pattern.  (Table I's 36KB assumes the
        # pattern is stored compressed to ~14 bits; we model the raw
        # vector and report the uncompressed size here -- the Table I
        # reproduction in repro.analysis.overhead uses the paper's
        # 18-bit-per-entry budget.)
        pht_bits = PHT_ENTRIES * (PHT_TAG_BITS + self.blocks_per_region)
        return agt_bits + pht_bits
