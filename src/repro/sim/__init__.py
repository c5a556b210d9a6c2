"""System assembly, experiment running and metrics."""

from repro._lazy import lazy_exports

__all__ = [
    "SystemConfig",
    "make_prefetcher",
    "System",
    "RunResult",
    "CMPSystem",
    "ExperimentRunner",
    "RunRequest",
    "default_jobs",
    "scaled",
    "geomean",
    "normalize",
    "weighted_speedup",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("SystemConfig", "make_prefetcher"),
    "system": ("RunResult", "System"),
    "cmp": ("CMPSystem",),
    "metrics": ("geomean", "normalize", "weighted_speedup"),
    "runner": ("ExperimentRunner", "RunRequest", "default_jobs", "scaled"),
})
