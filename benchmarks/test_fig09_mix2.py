"""Figure 9: normalized weighted speedup for 29 mixes of 2 workloads.

Paper: B-Fetch 31.2% vs SMS 25.5% mean improvement over the
no-prefetching CMP baseline, on the 29 highest-contention mixes selected
with the FOA model of Chandra et al.
"""

from conftest import MIX_BUDGET, SINGLE_BUDGET
from repro_common import mix_speedups

from repro.analysis import render_table
from repro.sim import geomean
from repro.sim.runner import scaled
from repro.workloads import SPEC_BENCHMARKS, select_mixes

PREFETCHERS = ["stride", "sms", "bfetch"]


def run_mix_figure(runner, mix_size, budget):
    """Shared driver for Figs. 9 and 10."""
    foa = runner.foa_map(SPEC_BENCHMARKS, instructions=scaled(SINGLE_BUDGET))
    mixes = select_mixes(foa, size=mix_size, count=29)
    speedups = iter(mix_speedups(
        runner,
        [(mix, prefetcher, None, None)
         for mix in mixes for prefetcher in PREFETCHERS],
        budget, SINGLE_BUDGET,
    ))
    rows = [
        ("mix%d:%s" % (position, "+".join(mix)),
         {prefetcher: next(speedups) for prefetcher in PREFETCHERS})
        for position, mix in enumerate(mixes, start=1)
    ]
    rows.sort(key=lambda row: row[1]["bfetch"])
    means = {
        prefetcher: geomean(values[prefetcher] for _, values in rows)
        for prefetcher in PREFETCHERS
    }
    rows.append(("Geomean", means))
    return rows


def test_fig09_mix2_weighted_speedup(runner, archive, benchmark):
    rows = benchmark.pedantic(
        lambda: run_mix_figure(runner, 2, MIX_BUDGET), rounds=1, iterations=1
    )
    archive(
        "fig09_mix2",
        render_table("Fig. 9: normalized weighted speedup (mix-2)",
                     rows, PREFETCHERS),
    )
    means = dict(rows)["Geomean"]
    assert means["bfetch"] > means["sms"] > 1.0
    assert means["bfetch"] > means["stride"]
