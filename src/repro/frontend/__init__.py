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

Everything here is gated behind ``CoreConfig.frontend="ftq"``; the
default ``"off"`` leaves the legacy fetch path byte-identical.
"""

from repro.frontend.config import FRONTEND_MODES, FrontendConfig
from repro.frontend.frontend import DecoupledFrontEnd
from repro.frontend.ftq import FetchTargetQueue
from repro.frontend.iprefetch import (
    IPREFETCHER_NAMES,
    BFetchIPrefetcher,
    CombinedIPrefetcher,
    FDIPPrefetcher,
    IPrefetcher,
    NextLineIPrefetcher,
    make_iprefetcher,
)
from repro.frontend.predecode import Predecoder

__all__ = [
    "FRONTEND_MODES",
    "FrontendConfig",
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
