"""Future-work reproduction: B-Fetch under a state-of-the-art predictor.

The paper closes Fig. 13 with "we plan to evaluate B-Fetch with the
state-of-art branch predictors".  This target does exactly that: the
baseline tournament predictor vs a perceptron predictor (Jimenez & Lin),
measuring both the miss rate and B-Fetch's speedup under each.
Consistent with the paper's Fig. 13 finding, the already-low miss rate
leaves little headroom: the better predictor moves B-Fetch only
marginally.
"""

from conftest import SINGLE_BUDGET

from repro.analysis import render_table
from repro.sim import SystemConfig, geomean
from repro.sim.runner import scaled
from repro.workloads import SPEC_BENCHMARKS

PREDICTORS = ("tournament", "perceptron")


def test_futurework_predictor_upgrade(runner, archive, benchmark):
    instructions = scaled(SINGLE_BUDGET)

    def experiment():
        rows = []
        for predictor in PREDICTORS:
            base_cfg = SystemConfig(prefetcher="none",
                                    branch_predictor=predictor)
            bf_cfg = SystemConfig(prefetcher="bfetch",
                                  branch_predictor=predictor)
            speedups = []
            miss_rates = []
            for bench in SPEC_BENCHMARKS:
                base = runner.run_single(bench, "none", instructions,
                                         base_cfg)
                run = runner.run_single(bench, "bfetch", instructions,
                                        bf_cfg)
                speedups.append(run.ipc / base.ipc)
                miss_rates.append(run.mispredict_rate)
            rows.append((predictor, {
                "speedup": geomean(speedups),
                "missrate%": 100 * sum(miss_rates) / len(miss_rates),
            }))
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    archive(
        "futurework_predictor",
        render_table("Future work: B-Fetch under tournament vs perceptron",
                     rows, ["speedup", "missrate%"]),
    )
    table = dict(rows)
    # both predictors give B-Fetch solid gains; the upgrade moves the
    # needle only marginally (the paper's Fig. 13 conclusion)
    for predictor in PREDICTORS:
        assert table[predictor]["speedup"] > 1.2
    ratio = (table["perceptron"]["speedup"]
             / table["tournament"]["speedup"])
    assert 0.93 < ratio < 1.10
