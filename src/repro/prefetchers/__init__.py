"""Data prefetchers: the paper's comparison points and the common interface.

* :class:`~repro.prefetchers.base.Prefetcher` -- event-hook interface all
  prefetchers (including B-Fetch in :mod:`repro.core`) implement.
* :class:`NextNPrefetcher` -- next-n-lines (Smith).
* :class:`StridePrefetcher` -- per-PC reference prediction table
  (Chen & Baer), degree 8 as tuned in the paper.
* :class:`SMSPrefetcher` -- Spatial Memory Streaming (Somogyi et al.), the
  paper's "best-of-class light-weight" comparison.
* :class:`PerfectPrefetcher` -- the Fig. 1 oracle (every load is an L1 hit).
* :class:`TangoPrefetcher` -- branch-directed prefetching off *effective
  address* history (Pinter & Yoaz), the related-work foil for B-Fetch's
  register-based address speculation.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Prefetcher",
    "NextNPrefetcher",
    "StridePrefetcher",
    "SMSPrefetcher",
    "PerfectPrefetcher",
    "TangoPrefetcher",
    "ISBPrefetcher",
    "STeMSPrefetcher",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("Prefetcher",),
    "nextn": ("NextNPrefetcher",),
    "stride": ("StridePrefetcher",),
    "sms": ("SMSPrefetcher",),
    "perfect": ("PerfectPrefetcher",),
    "tango": ("TangoPrefetcher",),
    "isb": ("ISBPrefetcher",),
    "stems": ("STeMSPrefetcher",),
})
