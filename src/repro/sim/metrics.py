"""Evaluation metrics: geometric means and weighted speedups.

The paper reports single-threaded results as ``IPC_pf / IPC_baseline``
speedups (geometric mean across benchmarks) and multiprogrammed results
as the *normalized weighted speedup*:
``sum_i(IPC_multi,i / IPC_single,i)`` normalized to the no-prefetching
CMP run (Section V-A).
"""

import math


def geomean(values):
    """Geometric mean of positive values."""
    values = list(values)
    if not values:
        raise ValueError("geomean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def weighted_speedup(multi_ipcs, single_ipcs, benchmarks=None):
    """Chandra-style weighted speedup: sum of per-app IPC ratios.

    :param benchmarks: optional sequence of benchmark names used to make
        degenerate-input errors self-describing (which app's single-core
        IPC is zero, not just "division by zero somewhere").
    """
    multi_ipcs = list(multi_ipcs)
    single_ipcs = list(single_ipcs)
    if len(multi_ipcs) != len(single_ipcs):
        raise ValueError(
            "mismatched IPC vectors: %d multiprogrammed vs %d single-core"
            % (len(multi_ipcs), len(single_ipcs))
        )
    if benchmarks is not None:
        benchmarks = list(benchmarks)
        if len(benchmarks) != len(single_ipcs):
            raise ValueError(
                "benchmark names (%d) do not match IPC vectors (%d)"
                % (len(benchmarks), len(single_ipcs))
            )
    total = 0.0
    for index, (m, s) in enumerate(zip(multi_ipcs, single_ipcs)):
        if s <= 0:
            name = (
                benchmarks[index] if benchmarks is not None
                else "app #%d" % index
            )
            raise ValueError(
                "weighted_speedup: single-core IPC for %s is %r; the run "
                "probably retired zero instructions (check the workload "
                "and instruction budget)" % (name, s)
            )
        total += m / s
    return total


def normalize(value, baseline, label=None):
    """Ratio with a guard against degenerate baselines.

    :param label: optional name of the quantity being normalized, used
        in the error message.
    """
    if baseline <= 0:
        what = label if label else "value"
        raise ValueError(
            "normalize: baseline for %s must be positive, got %r "
            "(a zero baseline usually means the baseline run retired "
            "no instructions)" % (what, baseline)
        )
    return value / baseline
