"""Figure 13: branch predictor size sensitivity (0.5x / 1x / 2x / 4x).

Paper: the default tournament predictor already mispredicts only 2.76%,
so B-Fetch gains little from a bigger predictor -- speedup creeps from
1.2248 to 1.2410 while the miss rate falls 2.95% -> 2.53%.
"""

from conftest import SINGLE_BUDGET

from repro.analysis import render_table
from repro.sim import SystemConfig, geomean
from repro.sim.runner import scaled
from repro.workloads import SPEC_BENCHMARKS

SCALES = (0.5, 1.0, 2.0, 4.0)


def test_fig13_branch_predictor_size(runner, archive, benchmark):
    instructions = scaled(SINGLE_BUDGET)

    def experiment():
        rows = []
        for scale in SCALES:
            base_cfg = SystemConfig(prefetcher="none", bp_scale=scale)
            bf_cfg = SystemConfig(prefetcher="bfetch", bp_scale=scale)
            speedups = []
            miss_rates = []
            for bench in SPEC_BENCHMARKS:
                base = runner.run_single(bench, "none", instructions,
                                         base_cfg)
                run = runner.run_single(bench, "bfetch", instructions,
                                        bf_cfg)
                speedups.append(run.ipc / base.ipc)
                miss_rates.append(run.mispredict_rate)
            rows.append((
                "%.1fx" % scale,
                {
                    "speedup": geomean(speedups),
                    "missrate%": 100 * sum(miss_rates) / len(miss_rates),
                },
            ))
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    archive(
        "fig13_bp_size",
        render_table("Fig. 13: branch predictor size sensitivity",
                     rows, ["speedup", "missrate%"]),
    )
    table = dict(rows)
    # larger predictors lower the miss rate...
    assert table["0.5x"]["missrate%"] >= table["4.0x"]["missrate%"]
    # ...but the speedup moves only marginally (<6% across 8x sizing)
    values = [table["%.1fx" % s]["speedup"] for s in SCALES]
    assert max(values) / min(values) < 1.06
