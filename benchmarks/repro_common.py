"""Helpers shared by the figure/table reproduction benchmarks."""

from repro.sim import geomean
from repro.sim.runner import RunRequest, scaled
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
    retried per the :class:`~repro.resilience.FailurePolicy` (the
    default one, or *policy*).

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


def mix_speedups(runner, cells, budget, single_budget):
    """Normalised weighted speedup (paper Figs. 9/10) of each mix cell.

    Every cell's solo runs, mix and no-prefetch base mix go through one
    :meth:`~repro.sim.ExperimentRunner.run_many` batch, so cold mixes
    fan out over the process pool (``REPRO_JOBS``) like the single-core
    sweeps, and a run shared by several cells (a solo run, a base mix)
    is simulated once.  Each cell's value is then
    :meth:`~repro.sim.ExperimentRunner.weighted_speedup_normalized` over
    that batch's results, all memo hits.

    :param cells: ``(mix, prefetcher, config, base_config)`` tuples; a
        None config is the prefetcher's default machine.
    :param budget: per-core mix budget (pre-``REPRO_SCALE``).
    :param single_budget: solo-run budget (pre-``REPRO_SCALE``).
    :returns: one value per cell, in order.
    """
    instructions = scaled(budget)
    single_instructions = scaled(single_budget)
    requests = []
    for mix, prefetcher, config, base_config in cells:
        requests += [RunRequest(name, "none", single_instructions)
                     for name in mix]
        requests += [RunRequest(mix, "none", instructions, base_config),
                     RunRequest(mix, prefetcher, instructions, config)]
    runner.run_many(requests)
    return [
        runner.weighted_speedup_normalized(
            mix, prefetcher, instructions, single_instructions,
            config, base_config)
        for mix, prefetcher, config, base_config in cells
    ]


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
