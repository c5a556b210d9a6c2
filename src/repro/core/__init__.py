"""B-Fetch: the paper's contribution.

A 3-stage prefetch pipeline hanging off the main core:

1. **Branch Lookahead** -- from each decoded branch, walk the predicted
   future path one basic block per step using the Branch Trace Cache
   (:mod:`~repro.core.brtc`) and the main branch predictor, throttled by a
   composite path-confidence estimate.
2. **Register Lookup** -- for each predicted basic block, pull the learned
   per-block register transformations from the Memory History Table
   (:mod:`~repro.core.mht`) and current register values from the Alternate
   Register File (:mod:`~repro.core.arf`).
3. **Prefetch Calculate** -- form ``ARF[reg] + Offset (+ LoopCnt *
   LoopDelta)`` per Equation 3, expand same-register block patterns
   (negPatt/posPatt), filter through the per-load confidence filter
   (:mod:`~repro.core.perload_filter`), and queue the prefetches.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BFetchConfig",
    "BFetchPrefetcher",
    "AlternateRegisterFile",
    "BranchTraceCache",
    "MemoryHistoryTable",
    "MHTEntry",
    "RegisterHistory",
    "PerLoadFilter",
    "bb_hash",
    "load_pc_hash",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("BFetchConfig",),
    "arf": ("AlternateRegisterFile",),
    "brtc": ("BranchTraceCache",),
    "mht": ("MHTEntry", "MemoryHistoryTable", "RegisterHistory"),
    "perload_filter": ("PerLoadFilter",),
    "bfetch": ("BFetchPrefetcher",),
    "hashing": ("bb_hash", "load_pc_hash"),
})
