"""Prefetch accounting shared by every prefetcher.

The paper's Fig. 11 reports *useful* (prefetched block demanded before
eviction) versus *useless* (evicted untouched) prefetches; we additionally
track *late* prefetches (demanded while still in flight -- partially
useful) and queue drops.

The three outcome counters are **disjoint**: a resolved prefetch is
exactly one of ``useful``, ``late`` or ``useless``.  (Earlier revisions
double-counted ``late`` into ``useful``; see DESIGN.md section 6.)  The
derived metrics follow the standard prefetching taxonomy:

* ``accuracy``   = (useful + late) / (useful + late + useless) -- the
  fraction of resolved prefetches that were demanded at all;
* ``timeliness`` = useful / (useful + late) -- of the demanded ones, the
  fraction that arrived in time.

Coverage needs the demand-miss count and is therefore derived at the
system level (a :class:`~repro.obs.Ratio` over the L1D stats, see
``pf.<name>.coverage`` in the stats registry).
"""


class PrefetchStats:
    """Counters for one prefetcher instance (disjoint outcomes)."""

    __slots__ = ("issued", "useful", "useless", "late", "dropped", "duplicate")
    STATE = __slots__

    def __init__(self):
        self.issued = 0
        self.useful = 0
        self.useless = 0
        self.late = 0
        self.dropped = 0
        self.duplicate = 0

    @property
    def resolved(self):
        """Prefetches whose outcome is known."""
        return self.useful + self.late + self.useless

    @property
    def accuracy(self):
        """Demanded fraction (useful or late) of resolved prefetches."""
        resolved = self.resolved
        return (self.useful + self.late) / resolved if resolved else 0.0

    @property
    def timeliness(self):
        """In-time fraction of the demanded prefetches."""
        demanded = self.useful + self.late
        return self.useful / demanded if demanded else 0.0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return (
            "PrefetchStats(issued=%d, useful=%d, useless=%d, late=%d, "
            "dropped=%d, duplicate=%d)"
            % (self.issued, self.useful, self.useless, self.late,
               self.dropped, self.duplicate)
        )
