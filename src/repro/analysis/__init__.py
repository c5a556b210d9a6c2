"""Analyses behind the paper's motivation/cost figures.

* :mod:`repro.analysis.variation` -- register-content vs effective-address
  variation CDFs across basic blocks (Fig. 3a/3b).
* :mod:`repro.analysis.overhead` -- hardware storage accounting
  (Table I).
* :mod:`repro.analysis.fetch_breakdown` -- branches-per-fetch-cycle
  histogram (Fig. 7).
* :mod:`repro.analysis.reporting` -- text rendering of tables/series.
"""

from repro._lazy import lazy_exports

__all__ = [
    "collect_variation",
    "VariationCDF",
    "overhead_table",
    "bfetch_overhead_kb",
    "sms_overhead_kb",
    "fetch_branch_breakdown",
    "EnergyModel",
    "prefetcher_energy",
    "energy_comparison",
    "render_table",
    "render_series",
    "render_cdf",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "variation": ("VariationCDF", "collect_variation"),
    "overhead": ("bfetch_overhead_kb", "overhead_table", "sms_overhead_kb"),
    "fetch_breakdown": ("fetch_branch_breakdown",),
    "energy": ("EnergyModel", "energy_comparison", "prefetcher_energy"),
    "reporting": ("render_cdf", "render_series", "render_table"),
})
