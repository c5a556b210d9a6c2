"""Irregular Stream Buffer (Jain & Lin, MICRO 2013) -- simplified.

The paper's heavy-weight comparison point: ISB introduces a level of
indirection that maps temporally-correlated *physical* addresses to
consecutive *structural* addresses, converting irregular prefetching
into sequential prefetching in structural space.  Miss streams are
localized by load PC; each PC's misses receive consecutive structural
addresses, and on a subsequent miss the prefetcher walks the structural
neighbours and issues their physical translations.

Faithful aspects: PC localization, PS/SP bidirectional maps, structural-
space sequential prefetch, and the *unbounded metadata* -- the maps grow
with the footprint, standing in for the original's ~8MB of off-chip
storage (tracked by :meth:`storage_bits`, and reported in the
heavy-weight comparison bench).  Simplified aspects: no on-chip TLB-sync
cache of the maps and no eviction, so this is an upper bound on ISB's
reach, with its storage cost made explicit.
"""

from repro.prefetchers.base import Prefetcher

_CHUNK = 256  # structural addresses reserved per new stream segment


class ISBPrefetcher(Prefetcher):
    """Structural-address-space prefetcher with per-PC stream localization."""

    name = "isb"
    STATE = Prefetcher.STATE + ("ps", "sp", "_next_chunk", "_stream_head")

    def __init__(self, degree=3, block_bytes=64):
        super().__init__(block_bytes=block_bytes)
        self.degree = degree
        self.ps = {}          # physical block -> structural address
        self.sp = {}          # structural address -> physical block
        self._next_chunk = 0  # structural space allocator
        self._stream_head = {}  # load pc -> next structural address

    def _allocate(self, pc):
        """Next structural address in this PC's stream, opening a fresh
        chunk for streams that have none yet."""
        head = self._stream_head.get(pc)
        if head is None:
            head = self._next_chunk * _CHUNK
            self._next_chunk += 1
        self._stream_head[pc] = head + 1
        return head

    def on_load(self, pc, addr, hit, now):
        if hit:
            return
        block = addr >> 6
        structural = self.ps.get(block)
        if structural is None:
            structural = self._allocate(pc)
            self.ps[block] = structural
            self.sp[structural] = block
        else:
            # re-seen block: future allocations for this PC continue here,
            # re-linking the stream the way ISB's training unit does
            self._stream_head[pc] = structural + 1
        for step in range(1, self.degree + 1):
            neighbour = self.sp.get(structural + step)
            if neighbour is not None:
                self.push(neighbour << 6, pc & 0x3FF)

    def storage_bits(self):
        """Metadata footprint: both maps at ~58 bits per mapping.

        Unbounded by design -- the original keeps this off-chip (8MB) and
        additionally pays ~8.4% memory traffic to shuttle it; we surface
        the grown size instead.
        """
        return (len(self.ps) + len(self.sp)) * 58
