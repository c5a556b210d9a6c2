"""Across-seed variability analysis.

Every workload's stochastic content (pointer-chain order, predicate
patterns, gather indices) can be re-drawn via the ``variant`` seed of
:func:`~repro.workloads.build_workload`.  Running an experiment across
several variants yields a dispersion estimate for the reported speedups
-- the reproduction's substitute for the run-to-run variation a real
testbed exhibits.
"""

import math


def mean_and_ci(values, z=1.96):
    """Sample mean and normal-approximation confidence half-width.

    :returns: ``(mean, half_width)``; half-width is 0 for n < 2.
    """
    values = list(values)
    if not values:
        raise ValueError("no samples")
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, z * math.sqrt(variance / n)


def speedup_across_variants(runner, benchmark, prefetcher,
                            instructions=None, variants=3):
    """Speedup of *prefetcher* over baseline across workload variants.

    :returns: ``(mean, half_width, samples)``.
    """
    samples = []
    for variant in range(variants):
        base = runner.run_single(benchmark, "none", instructions,
                                 variant=variant)
        run = runner.run_single(benchmark, prefetcher, instructions,
                                variant=variant)
        samples.append(run.ipc / base.ipc)
    mean, half = mean_and_ci(samples)
    return mean, half, samples
