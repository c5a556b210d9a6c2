"""Performance micro-harness: simulated-instructions-per-second tracking."""

from repro.perf.harness import (
    COMPONENTS,
    bench_component,
    bench_fleet,
    bench_serve,
    bench_sweep,
    default_output_dir,
    run_perf_suite,
    write_bench_json,
)

__all__ = [
    "COMPONENTS",
    "bench_component",
    "bench_fleet",
    "bench_serve",
    "bench_sweep",
    "default_output_dir",
    "run_perf_suite",
    "write_bench_json",
]
