"""Figure 11: useful vs useless prefetches issued, SMS vs B-Fetch.

Paper: B-Fetch issues ~4% more useful prefetches while issuing ~50%
fewer useless ones -- the accuracy story behind its CMP advantage.
"""

from conftest import SINGLE_BUDGET

from repro.analysis import render_table
from repro.sim.runner import scaled
from repro.workloads import SPEC_BENCHMARKS

COLUMNS = ["sms useful", "sms useless", "bfetch useful", "bfetch useless"]


def test_fig11_useful_vs_useless(runner, archive, benchmark):
    instructions = scaled(SINGLE_BUDGET)

    def experiment():
        rows = []
        totals = {column: 0 for column in COLUMNS}
        for bench in SPEC_BENCHMARKS:
            values = {}
            for prefetcher in ("sms", "bfetch"):
                stats = runner.run_single(
                    bench, prefetcher, instructions
                ).data["prefetch"]
                # Fig. 11's "useful" = demanded prefetches; with the
                # disjoint outcome counters that is useful + late
                values["%s useful" % prefetcher] = float(
                    stats["useful"] + stats["late"]
                )
                values["%s useless" % prefetcher] = float(stats["useless"])
            for column in COLUMNS:
                totals[column] += values[column]
            rows.append((bench, values))
        rows.append(("TOTAL", totals))
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    archive(
        "fig11_useful",
        render_table("Fig. 11: useful/useless prefetches issued",
                     rows, COLUMNS, fmt="%.0f"),
    )
    totals = dict(rows)["TOTAL"]
    # paper: B-Fetch issues ~4% more useful prefetches than SMS...
    assert totals["bfetch useful"] >= 0.95 * totals["sms useful"]
    # ...while issuing around half the useless ones
    assert totals["bfetch useless"] <= 0.65 * totals["sms useless"]
