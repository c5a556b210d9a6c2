"""Figure 7: breakdown of branches fetched per cycle.

Paper: in >=99.95% of fetch cycles at most two branches are fetched, so
the main tournament predictor has spare bandwidth to serve the B-Fetch
lookahead without an extra predictor copy.
"""

from conftest import SINGLE_BUDGET

from repro.analysis import fetch_branch_breakdown, render_series
from repro.sim.runner import scaled
from repro.workloads import SPEC_BENCHMARKS


def test_fig07_branches_per_fetch_cycle(runner, archive, benchmark):
    instructions = scaled(SINGLE_BUDGET)

    def experiment():
        results = [
            runner.run_single(bench, "none", instructions)
            for bench in SPEC_BENCHMARKS
        ]
        return fetch_branch_breakdown(results)

    breakdown = benchmark.pedantic(experiment, rounds=1, iterations=1)
    series = [("%d branch(es)" % n, breakdown[n]) for n in range(1, 5)]
    series.append(("cumulative <=2", breakdown["cumulative_2"]))
    archive(
        "fig07_branch_fetch",
        render_series("Fig. 7: branches fetched per cycle (fraction)",
                      series, fmt="%.4f"),
    )
    # one branch per group dominates; 3-4 branch groups are rare
    assert breakdown[1] > 0.75
    assert breakdown["cumulative_2"] > 0.99
    assert breakdown[4] < 0.005
