"""Synthetic workloads standing in for the paper's SPEC CPU2006 set.

Real SPEC binaries are unavailable here, so each of the 18 benchmarks the
paper evaluates is modelled as a parameterised mixture of memory-access
*kernels* (:mod:`repro.workloads.patterns`) with genuine register dataflow
and control flow -- the properties B-Fetch's mechanism actually depends
on.  Profiles (:mod:`repro.workloads.spec`) are tuned so each benchmark
falls in the same qualitative class as its namesake (L1-resident compute,
streaming, region/struct-spatial, pointer-chasing, branchy-irregular).

:mod:`repro.workloads.mixes` implements the FOA (frequency-of-access)
contention model of Chandra et al. used by the paper to pick its 29
highest-contention multiprogrammed mixes.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ProgramBuilder",
    "Workload",
    "BENCHMARKS",
    "PREFETCH_SENSITIVE",
    "SPEC_BENCHMARKS",
    "build_workload",
    "select_mixes",
    "synthesize",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "builder": ("ProgramBuilder",),
    "workload": ("Workload",),
    "spec": (
        "BENCHMARKS",
        "PREFETCH_SENSITIVE",
        "SPEC_BENCHMARKS",
        "build_workload",
    ),
    "mixes": ("select_mixes",),
    "synth": ("synthesize",),
})
