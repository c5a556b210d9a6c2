"""Set-associative cache with LRU replacement and prefetch metadata.

Each line carries the per-block state the paper adds for B-Fetch's per-load
filter feedback (Section IV-B3): whether the block was brought in by a
prefetch, a 10-bit hash of the originating load PC, and a "was it used"
bit.  Lines also carry a ``ready`` cycle so in-flight (prefetched but not
yet arrived) blocks occupy cache space -- this is what lets the model
capture both prefetch *pollution* and prefetch *lateness* without a global
event queue.

Each set is a dict kept in recency order: a hit or a refresh moves its
block to the end, so the least recently used block is the first key and
an eviction needs no scan.  A cache built with a replacement policy
object keeps the policy's per-line state in ``Line.lru`` instead and asks
the policy for its victim; :class:`~repro.memory.replacement.LRUPolicy`
is the tick-based oracle of the default path.

Below L1 nothing reads a line: the hierarchy only asks L2 and the LLC
whether a block is resident (:meth:`Cache.probe_allocate`).  A
default-policy cache therefore files every block allocated that way
under one shared clean line instead of a new :class:`Line`.
"""

from repro._validate import require_ints


class Line:
    """One cache line's metadata."""

    __slots__ = ("lru", "prefetched", "meta", "used", "ready", "dirty")

    def __init__(self, lru, prefetched=False, meta=None, used=False, ready=0):
        self.lru = lru
        self.prefetched = prefetched
        self.meta = meta
        self.used = used
        self.ready = ready
        self.dirty = False


class CacheStats:
    """Demand / prefetch counters for one cache instance."""

    __slots__ = (
        "accesses",
        "hits",
        "misses",
        "late_hits",
        "prefetch_fills",
        "prefetch_useful",
        "prefetch_useless",
        "evictions",
        "writebacks",
    )

    def __init__(self):
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.late_hits = 0
        self.prefetch_fills = 0
        self.prefetch_useful = 0
        self.prefetch_useless = 0
        self.evictions = 0
        self.writebacks = 0

    @property
    def miss_rate(self):
        return self.misses / self.accesses if self.accesses else 0.0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class Cache:
    """A set-associative cache over 64-byte blocks.

    Addresses are byte addresses; all internal bookkeeping is per block.

    :param name: label for reports ("L1D", "LLC", ...).
    :param size_bytes: total capacity.
    :param assoc: associativity (ways).
    :param block_bytes: line size (64 in Table II).
    :param eviction_listeners: callables ``fn(block_addr, line)`` invoked
        whenever a line is evicted (used by SMS generation tracking and the
        per-load filter's useless-prefetch feedback).
    :param policy: optional :class:`~repro.memory.replacement
        .ReplacementPolicy`; None keeps the recency-ordered LRU sets.
    """

    def __init__(self, name, size_bytes, assoc, block_bytes=64,
                 eviction_listeners=None, policy=None):
        # fail fast before any arithmetic: a zero divides by zero below,
        # and an empty cache would fail only at its first access
        require_ints("Cache", (("size_bytes", size_bytes), ("assoc", assoc),
                               ("block_bytes", block_bytes)))
        if size_bytes % (assoc * block_bytes):
            raise ValueError("size must be a multiple of assoc * block size")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_bytes = block_bytes
        self.block_shift = block_bytes.bit_length() - 1
        if 1 << self.block_shift != block_bytes:
            raise ValueError("block size must be a power of two")
        self.num_sets = size_bytes // (assoc * block_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("set count must be a power of two")
        self._set_mask = self.num_sets - 1
        self.sets = [{} for _ in range(self.num_sets)]
        self.stats = CacheStats()
        self.eviction_listeners = list(eviction_listeners or [])
        self.policy = policy
        # advanced only by policy caches (the default path needs no stamps)
        self._tick = 0
        # what probe_allocate files a block under in a default-policy cache
        self._clean_line = Line(0)

    def _set_of(self, block):
        return self.sets[block & self._set_mask]

    def block_of(self, addr):
        """Return the block number for a byte address."""
        return addr >> self.block_shift

    def lookup(self, addr):
        """Probe without side effects; return the :class:`Line` or None."""
        block = addr >> self.block_shift
        return self._set_of(block).get(block)

    def access(self, addr, now=0):
        """Demand access.  Returns the hit :class:`Line` or None on a miss.

        Updates LRU state and hit/miss statistics.  Prefetch usefulness
        accounting (first demand touch of a prefetched line) is left to the
        hierarchy, which also owns the filter feedback.
        """
        block = addr >> self.block_shift
        cache_set = self.sets[block & self._set_mask]
        stats = self.stats
        stats.accesses += 1
        if self.policy is None:
            line = cache_set.pop(block, None)
            if line is None:
                stats.misses += 1
                return None
            cache_set[block] = line  # now the most recently used
        else:
            line = cache_set.get(block)
            if line is None:
                stats.misses += 1
                return None
            self.policy.on_hit(self, line)
        stats.hits += 1
        return line

    def probe_allocate(self, addr):
        """Demand-probe the block holding *addr*, allocating it on a miss.

        Returns True on a hit.  Equal to ``access(addr) is None`` followed,
        on a miss, by ``fill(addr)``, except that a default-policy cache
        files the new block under its shared clean line: this is the
        lower-level path, where no line is ever read or written.
        """
        if self.policy is not None:
            # the per-line policy state needs the two calls this one
            # stands for
            if self.access(addr) is not None:
                return True
            self.fill(addr)
            return False
        block = addr >> self.block_shift
        cache_set = self.sets[block & self._set_mask]
        stats = self.stats
        stats.accesses += 1
        line = cache_set.pop(block, None)
        if line is not None:
            cache_set[block] = line
            stats.hits += 1
            return True
        stats.misses += 1
        if len(cache_set) >= self.assoc:
            self._evict(cache_set)
        cache_set[block] = self._clean_line
        return False

    def fill(self, addr, now=0, prefetched=False, meta=None, ready=None):
        """Insert the block holding *addr*; return the evicted line or None.

        If the block is already present the existing line is refreshed
        instead (no eviction).
        """
        block = addr >> self.block_shift
        cache_set = self.sets[block & self._set_mask]
        policy = self.policy
        if policy is None:
            line = cache_set.pop(block, None)
            if line is not None:
                cache_set[block] = line
                return None
        else:
            self._tick += 1
            line = cache_set.get(block)
            if line is not None:
                policy.on_hit(self, line)
                return None
        evicted = None
        if len(cache_set) >= self.assoc:
            evicted = self._evict(cache_set)
        if ready is None:
            ready = now
        line = Line(self._tick, prefetched, meta, False, ready)
        if policy is not None:
            policy.on_fill(self, line, prefetched)
        cache_set[block] = line
        if prefetched:
            self.stats.prefetch_fills += 1
        return evicted

    def _evict(self, cache_set):
        """Remove *cache_set*'s victim, count it and tell the listeners;
        return the evicted line."""
        if self.policy is None:
            for victim in cache_set:  # the least recently used block
                break
        else:
            victim = self.policy.select_victim(self, cache_set)
        evicted = cache_set.pop(victim)
        stats = self.stats
        stats.evictions += 1
        if evicted.dirty:
            stats.writebacks += 1
        if evicted.prefetched and not evicted.used:
            stats.prefetch_useless += 1
        listeners = self.eviction_listeners
        if listeners:
            addr = victim << self.block_shift
            for listener in listeners:
                listener(addr, evicted)
        return evicted

    def invalidate(self, addr):
        """Drop the block holding *addr* if present (no listener callbacks)."""
        block = addr >> self.block_shift
        self._set_of(block).pop(block, None)

    def contains(self, addr):
        """True if the block holding *addr* is resident (ready or not)."""
        block = addr >> self.block_shift
        return block in self._set_of(block)

    def occupancy(self):
        """Number of valid lines (for tests and pollution analyses)."""
        return sum(len(s) for s in self.sets)

    def flush(self):
        """Empty the cache (listeners are not invoked)."""
        for cache_set in self.sets:
            cache_set.clear()

    # ------------------------------------------------------------------
    # checkpoint/restore

    def snapshot(self):
        """Tag/line arrays, stats and policy RNG as a JSON-safe structure.

        Set dictionaries are stored as ordered pair lists -- a
        default-policy set's order is its recency order, so order is
        behaviour.  Line metas go through the shared meta codec; the
        ``random`` replacement policy's RNG stream is captured too.
        """
        from repro.checkpoint.state import encode_meta, rng_to_json
        sets = []
        for cache_set in self.sets:
            sets.append([
                [block,
                 [line.lru, line.prefetched, encode_meta(line.meta),
                  line.used, line.ready, line.dirty]]
                for block, line in cache_set.items()
            ])
        state = {
            "sets": sets,
            "stats": self.stats.as_dict(),
            "tick": self._tick,
        }
        rng = getattr(self.policy, "_rng", None)
        if rng is not None:
            state["policy_rng"] = rng_to_json(rng)
        return state

    def restore(self, state):
        """Restore cache state from :meth:`snapshot` output."""
        from repro.checkpoint.state import decode_meta, rng_from_json
        sets = []
        for encoded_set in state["sets"]:
            cache_set = {}
            for block, fields in encoded_set:
                lru, prefetched, meta, used, ready, dirty = fields
                line = Line(lru, prefetched, decode_meta(meta), used, ready)
                line.dirty = dirty
                cache_set[int(block)] = line
            sets.append(cache_set)
        self.sets = sets
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)
        self._tick = state["tick"]
        rng = getattr(self.policy, "_rng", None)
        if rng is not None and "policy_rng" in state:
            rng_from_json(rng, state["policy_rng"])
