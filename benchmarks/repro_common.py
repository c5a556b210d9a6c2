"""Helpers shared by the figure/table reproduction benchmarks."""

from repro.sim import geomean
from repro.sim.runner import scaled
from repro.workloads import PREFETCH_SENSITIVE, SPEC_BENCHMARKS


def single_speedups(runner, prefetchers, budget, config_for=None,
                    base_config=None, jobs=None, policy=None):
    """Per-benchmark speedups vs the no-prefetch baseline.

    The whole benchmark x prefetcher grid goes through the runner's
    parallel :meth:`~repro.sim.ExperimentRunner.sweep` batch API: cache
    hits are served directly and only the misses are fanned out over the
    process pool (``REPRO_JOBS`` / *jobs*), with output identical to the
    serial path.  The engine is fault tolerant: each finished run is
    persisted immediately, so interrupting a sweep and re-running it
    resumes from ``benchmarks/.cache``, and failed or hung workers are
    retried per the :class:`~repro.resilience.FailurePolicy`
    (``REPRO_RETRIES`` / ``REPRO_TASK_TIMEOUT`` / ``REPRO_ON_ERROR`` or
    *policy*).

    :param config_for: optional ``fn(prefetcher) -> SystemConfig``.
    :param base_config: optional baseline SystemConfig (must keep
        ``prefetcher="none"``), for sweeps that change the machine itself.
    :param policy: optional :class:`~repro.resilience.FailurePolicy`
        override for this sweep.
    :returns: rows ``[(bench, {pf: speedup})]`` ready for rendering.
    """
    instructions = scaled(budget)
    baselines, table = runner.sweep(
        SPEC_BENCHMARKS, prefetchers, instructions,
        config_for=config_for, base_config=base_config, jobs=jobs,
        policy=policy,
    )
    rows = []
    for bench in SPEC_BENCHMARKS:
        base_ipc = baselines[bench].ipc
        rows.append((
            bench,
            {
                prefetcher: table[bench][prefetcher].ipc / base_ipc
                for prefetcher in prefetchers
            },
        ))
    return rows


def append_geomeans(rows, columns):
    """Add the paper's Geomean and prefetch-sensitive Geomean rows."""
    full = {
        column: geomean(values[column] for _, values in rows)
        for column in columns
    }
    sensitive = {
        column: geomean(
            values[column]
            for bench, values in rows
            if bench in PREFETCH_SENSITIVE
        )
        for column in columns
    }
    return rows + [("Geomean", full), ("Geomean pf. sens.", sensitive)]
