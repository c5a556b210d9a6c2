"""Decoupled front end: FTQ-driven instruction fetch (DESIGN.md §12).

The branch-prediction unit runs ahead of fetch and enqueues predicted
fetch-block targets into a bounded :class:`FetchTargetQueue`; demand
fetch consumes the queue and goes through an L1-I + I-MSHR path, a
predecode stage scans every line filled into the L1-I and exposes
*shadow branches* (branches present in a fetched block but never the
entry point, "Exposing Shadow Branches") as early BTB fills, and an
I-side prefetcher family (``fdip`` run-ahead off the FTQ per
"Fetch-Directed Instruction Prefetching Revisited", a ``nextline-i``
baseline, and ``bfetch-i`` driving the B-Fetch lookahead walk at
fetch-block granularity) turns the run-ahead into L1-I fills.

Everything here is gated behind ``SystemConfig(frontend="ftq")``; the
default ``"off"`` leaves the legacy fetch path byte-identical.
"""

from repro._lazy import lazy_exports

__all__ = [
    "FRONTEND_MODES",
    "DecoupledFrontEnd",
    "FetchTargetQueue",
    "IPREFETCHER_NAMES",
    "IPrefetcher",
    "NextLineIPrefetcher",
    "FDIPPrefetcher",
    "BFetchIPrefetcher",
    "CombinedIPrefetcher",
    "make_iprefetcher",
    "Predecoder",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("FRONTEND_MODES", "IPREFETCHER_NAMES"),
    "frontend": ("DecoupledFrontEnd",),
    "ftq": ("FetchTargetQueue",),
    "iprefetch": (
        "BFetchIPrefetcher",
        "CombinedIPrefetcher",
        "FDIPPrefetcher",
        "IPrefetcher",
        "NextLineIPrefetcher",
        "make_iprefetcher",
    ),
    "predecode": ("Predecoder",),
})
