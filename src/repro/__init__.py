"""repro: a full Python reproduction of "B-Fetch: Branch Prediction
Directed Prefetching for Chip-Multiprocessors" (MICRO-2014).

Quickstart::

    from repro import ExperimentRunner

    runner = ExperimentRunner()
    base = runner.run_single("libquantum", "none")
    bf = runner.run_single("libquantum", "bfetch")
    print("speedup:", bf.ipc / base.ipc)

Packages:

* :mod:`repro.core` -- the B-Fetch prefetch engine (the contribution).
* :mod:`repro.isa`, :mod:`repro.cpu` -- ISA + functional/timing models.
* :mod:`repro.branch` -- branch predictors and confidence estimation.
* :mod:`repro.memory` -- caches, DRAM, hierarchy.
* :mod:`repro.prefetchers` -- Stride/SMS/Next-N/Perfect/Tango baselines.
* :mod:`repro.workloads` -- SPEC-like synthetic benchmarks and FOA mixes.
* :mod:`repro.sim` -- system assembly, CMP, experiment runner.
* :mod:`repro.analysis` -- Fig. 3 / Fig. 7 / Table I analyses.

Importing a package loads none of its submodules: each exported name is
imported on first access (:mod:`repro._lazy`), so a process compiles
only what it runs.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "ExperimentRunner",
    "System",
    "CMPSystem",
    "SystemConfig",
    "RunResult",
    "geomean",
    "BENCHMARKS",
    "PREFETCH_SENSITIVE",
    "build_workload",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "sim.runner": ("ExperimentRunner",),
    "sim.system": ("System", "RunResult"),
    "sim.cmp": ("CMPSystem",),
    "sim.config": ("SystemConfig",),
    "sim.metrics": ("geomean",),
    "workloads.spec": ("BENCHMARKS", "PREFETCH_SENSITIVE", "build_workload"),
})
