"""Figure 8: single-threaded speedups -- Stride vs SMS vs B-Fetch.

Paper: B-Fetch 23.2% geomean vs SMS 19.7% (50.0% vs 41.5% across the
prefetch-sensitive subset); B-Fetch wins everywhere except cactusADM,
lbm, milc and zeusmp, with milc the one large gap.

The 18-benchmark x 3-prefetcher grid (plus the shared no-prefetch
baseline) is evaluated through the parallel ``run_many`` batch engine
(``single_speedups`` -> ``ExperimentRunner.sweep``): cache hits are
served directly, misses fan out over ``REPRO_JOBS`` worker processes,
and the resulting table is byte-identical to a serial evaluation.
"""

from repro_common import append_geomeans, single_speedups
from conftest import SINGLE_BUDGET

from repro.analysis import render_table
from repro.workloads import SPEC_BENCHMARKS

COLUMNS = ["stride", "sms", "bfetch"]


def test_fig08_single_threaded_speedups(runner, archive, benchmark):
    def experiment():
        rows = single_speedups(runner, COLUMNS, SINGLE_BUDGET)
        return append_geomeans(rows, COLUMNS)

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    archive(
        "fig08_single",
        render_table("Fig. 8: single-threaded speedups", rows, COLUMNS),
    )
    table = dict(rows)
    geo = table["Geomean"]
    # headline ordering: B-Fetch > SMS > Stride, all above baseline
    assert geo["bfetch"] > geo["sms"] > 1.0
    assert geo["bfetch"] > geo["stride"]
    # prefetch-sensitive mean is higher than the overall mean
    assert table["Geomean pf. sens."]["bfetch"] > geo["bfetch"]
    # B-Fetch wins on a clear majority of the benchmarks
    bfetch_wins = sum(
        1 for bench in SPEC_BENCHMARKS
        if table[bench]["bfetch"] >= table[bench]["sms"]
    )
    assert bfetch_wins >= 11
    # milc stays SMS's corner-case win (large spatial regions)
    assert table["milc"]["sms"] > table["milc"]["bfetch"]
