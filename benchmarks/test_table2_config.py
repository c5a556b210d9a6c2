"""Table II: baseline configuration.

Renders the simulated machine's configuration and checks it matches the
paper's baseline, including the measured branch-predictor miss rate
(paper: 2.76% with the 6.55KB tournament predictor).
"""

from conftest import SINGLE_BUDGET

from repro.sim import SystemConfig
from repro.sim.runner import scaled
from repro.workloads import SPEC_BENCHMARKS


def test_table2_baseline_configuration(runner, archive, benchmark):
    instructions = scaled(SINGLE_BUDGET)

    def experiment():
        results = [
            runner.run_single(bench, "none", instructions)
            for bench in SPEC_BENCHMARKS
        ]
        rates = [r.mispredict_rate for r in results]
        return sum(rates) / len(rates)

    miss_rate = benchmark.pedantic(experiment, rounds=1, iterations=1)
    lines = ["== Table II: baseline configuration =="]
    for key, value in SystemConfig().describe():
        lines.append("%-36s %s" % (key, value))
    lines.append("%-36s %.2f%% (paper: 2.76%%)"
                 % ("Measured branch miss rate", 100 * miss_rate))
    archive("table2_config", "\n".join(lines))

    # the tournament predictor lands in the paper's miss-rate ballpark
    assert miss_rate < 0.06
    rows = dict(SystemConfig().describe())
    assert "4-wide" in rows["CPU"]
    assert rows["Branch path confidence threshold"] == "0.75"
