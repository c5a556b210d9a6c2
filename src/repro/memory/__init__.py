"""Memory-system substrate: caches, DRAM, hierarchy, prefetch queue, stats."""

from repro._lazy import lazy_exports

__all__ = [
    "Cache",
    "CacheStats",
    "Line",
    "DramModel",
    "MemoryHierarchy",
    "HierarchyConfig",
    "PrefetchQueue",
    "PrefetchStats",
    "ReplacementPolicy",
    "LRUPolicy",
    "RandomPolicy",
    "SRRIPPolicy",
    "PACManPolicy",
    "make_policy",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ("Cache", "CacheStats", "Line"),
    "dram": ("DramModel",),
    "hierarchy": ("HierarchyConfig", "MemoryHierarchy"),
    "prefetch_queue": ("PrefetchQueue",),
    "replacement": (
        "LRUPolicy",
        "PACManPolicy",
        "RandomPolicy",
        "ReplacementPolicy",
        "SRRIPPolicy",
        "make_policy",
    ),
    "stats": ("PrefetchStats",),
})
