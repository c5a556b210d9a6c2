"""Per-load prefetch filter (Section IV-B3).

A skewed-sampling confidence filter inspired by the dead-block predictor
of Khan et al. [13]: three tables of 3-bit up/down saturating counters,
each indexed by a *different* hash of the load PC.  The per-load
confidence is the *sum* of the three counters; prefetching for a load PC
stops while the sum is below the threshold (3, per Table II), regardless
of how high the path confidence is.

Feedback comes from the cache: the prefetched line carries a 10-bit load
PC hash, and its first demand use (increment) or untouched eviction
(decrement) trains all three tables.

A blocked load issues no prefetches and therefore receives no feedback,
so a burst of useless prefetches (e.g. across a phase change) could turn
a load off forever.  Like other confidence-gated prefetch filters, a
blocked load is allowed through periodically (one in
``probe_interval``) so it can re-earn its confidence.
"""

# Table I / Table II values
FILTER_ENTRIES = 2048       # counters per table
FILTER_COUNTER_BITS = 3
FILTER_THRESHOLD = 3        # summed confidence a load needs to prefetch


class PerLoadFilter:
    """Skewed three-table per-load confidence filter."""

    def __init__(self, tables=3, entries=FILTER_ENTRIES,
                 counter_bits=FILTER_COUNTER_BITS, threshold=FILTER_THRESHOLD,
                 initial=2, probe_interval=256, useless_penalty=2):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.num_tables = tables
        self.entries = entries
        self.counter_bits = counter_bits
        self.max_count = (1 << counter_bits) - 1
        self.threshold = threshold
        self.initial = min(initial, self.max_count)
        self.probe_interval = probe_interval
        # a useless prefetch costs bandwidth and cache space; a useful one
        # saves part of a miss -- the asymmetric penalty makes the filter
        # reject coin-flip loads instead of hovering at its threshold
        self.useless_penalty = useless_penalty
        self.tables = [[self.initial] * entries for _ in range(tables)]
        self._mask = entries - 1
        self.blocked = 0
        self.passed = 0
        self.probes = 0
        self._since_probe = 0

    def _indices(self, load_hash):
        mask = self._mask
        h1 = load_hash & mask
        h2 = ((load_hash * 0x9E3779B1) >> 6) & mask
        h3 = ((load_hash * 0x85EBCA6B) >> 3) & mask
        return (h1, h2, h3)[: self.num_tables]

    def confidence(self, load_hash):
        """Sum of the skewed counters for this load PC hash."""
        tables = self.tables
        if len(tables) == 3:
            # fast path for the paper's three-table shape: no tuple
            # construction / slicing / zip per probe
            mask = self._mask
            return (
                tables[0][load_hash & mask]
                + tables[1][((load_hash * 0x9E3779B1) >> 6) & mask]
                + tables[2][((load_hash * 0x85EBCA6B) >> 3) & mask]
            )
        total = 0
        for table, index in zip(tables, self._indices(load_hash)):
            total += table[index]
        return total

    def allow(self, load_hash):
        """True when prefetches from this load PC should be issued.

        Low-confidence loads pass once per ``probe_interval`` blocked
        requests, giving them a path back to usefulness.
        """
        if self.confidence(load_hash) >= self.threshold:
            self.passed += 1
            return True
        self._since_probe += 1
        if self._since_probe >= self.probe_interval:
            self._since_probe = 0
            self.probes += 1
            return True
        self.blocked += 1
        return False

    def update(self, load_hash, useful):
        """Train all tables with a resolved prefetch outcome."""
        for table, index in zip(self.tables, self._indices(load_hash)):
            count = table[index]
            if useful:
                if count < self.max_count:
                    table[index] = count + 1
            else:
                count -= self.useless_penalty
                table[index] = count if count > 0 else 0

    def snapshot(self):
        """Filter tables and counters as a JSON-safe structure."""
        return {
            "tables": [list(table) for table in self.tables],
            "blocked": self.blocked,
            "passed": self.passed,
            "probes": self.probes,
            "since_probe": self._since_probe,
        }

    def restore(self, state):
        """Restore filter state from :meth:`snapshot` output, into the
        existing tables (the B-Fetch engine binds them once)."""
        for table, saved in zip(self.tables, state["tables"]):
            table[:] = saved
        self.blocked = state["blocked"]
        self.passed = state["passed"]
        self.probes = state["probes"]
        self._since_probe = state["since_probe"]

    def storage_bits(self):
        return self.num_tables * self.entries * self.counter_bits
