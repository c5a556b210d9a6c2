"""Preliminary 8-application mixes.

The paper states: "Preliminary results with mixes of 8 workloads
continue this trend" (Section V-B2).  This target runs a small set of
FOA-selected 8-app mixes and checks B-Fetch keeps its lead.
"""

from conftest import MIX_BUDGET, SINGLE_BUDGET
from repro_common import mix_speedups

from repro.analysis import render_table
from repro.sim import geomean
from repro.sim.runner import scaled
from repro.workloads import SPEC_BENCHMARKS, select_mixes

PREFETCHERS = ["sms", "bfetch"]
MIX_COUNT = 4  # preliminary, as in the paper


def test_mix8_preliminary_trend(runner, archive, benchmark):
    def experiment():
        foa = runner.foa_map(SPEC_BENCHMARKS,
                             instructions=scaled(SINGLE_BUDGET))
        mixes = select_mixes(foa, size=8, count=MIX_COUNT)
        speedups = iter(mix_speedups(
            runner,
            [(mix, prefetcher, None, None)
             for mix in mixes for prefetcher in PREFETCHERS],
            MIX_BUDGET // 2, SINGLE_BUDGET,
        ))
        rows = [
            ("mix%d" % position,
             {prefetcher: next(speedups) for prefetcher in PREFETCHERS})
            for position in range(1, len(mixes) + 1)
        ]
        means = {
            prefetcher: geomean(values[prefetcher] for _, values in rows)
            for prefetcher in PREFETCHERS
        }
        rows.append(("Geomean", means))
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    archive(
        "mix8_preliminary",
        render_table("Preliminary mix-8 normalized weighted speedup",
                     rows, PREFETCHERS),
    )
    means = dict(rows)["Geomean"]
    assert means["bfetch"] > 1.0
    assert means["bfetch"] > means["sms"] * 0.98  # trend continues
