"""Design-choice ablations beyond the paper's figures.

Backs the design claims DESIGN.md calls out:

* **Tango comparison** (Section III-C): branch-directed prefetching off
  *EA history* underperforms B-Fetch's register-anchored speculation.
* **Per-load filter**: removing it floods the system with inaccurate
  prefetches (more useless traffic).
* **Loop detection**: LoopCnt x LoopDelta extrapolation drives the
  streaming-benchmark gains.
* **ARF sampling**: an execute-sampled ARF beats a retire-time (longer
  lag) register copy, per the paper's Section IV-B2 observation.
"""

from conftest import SINGLE_BUDGET

from repro.analysis import render_table
from repro.core import BFetchConfig
from repro.sim import SystemConfig, geomean
from repro.sim.runner import scaled
from repro.workloads import PREFETCH_SENSITIVE

BENCH_SUBSET = ("libquantum", "leslie3d", "sphinx", "mcf", "bzip2", "milc")


def _speedups(runner, instructions, prefetcher="bfetch", bfetch=None):
    values = {}
    for bench in BENCH_SUBSET:
        base = runner.run_single(bench, "none", instructions)
        config = SystemConfig(prefetcher=prefetcher, bfetch=bfetch)
        run = runner.run_single(bench, prefetcher, instructions, config)
        values[bench] = run.ipc / base.ipc
    return values


def test_ablation_tango_ea_history_vs_register_state(runner, archive,
                                                     benchmark):
    instructions = scaled(SINGLE_BUDGET)

    def experiment():
        return (
            _speedups(runner, instructions, "tango"),
            _speedups(runner, instructions, "bfetch"),
        )

    tango, bfetch = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        (bench, {"tango": tango[bench], "bfetch": bfetch[bench]})
        for bench in BENCH_SUBSET
    ]
    rows.append(("Geomean", {
        "tango": geomean(tango.values()),
        "bfetch": geomean(bfetch.values()),
    }))
    archive("ablation_tango",
            render_table("Ablation: EA-history (Tango) vs register-state "
                         "(B-Fetch)", rows, ["tango", "bfetch"]))
    assert geomean(bfetch.values()) > geomean(tango.values())


def test_ablation_per_load_filter(runner, archive, benchmark):
    instructions = scaled(SINGLE_BUDGET)

    def experiment():
        useless = {}
        for label, config in (
            ("filtered", BFetchConfig()),
            ("unfiltered", BFetchConfig(use_filter=False)),
        ):
            total = 0
            for bench in BENCH_SUBSET:
                run = runner.run_single(
                    bench, "bfetch", instructions,
                    SystemConfig(prefetcher="bfetch", bfetch=config),
                )
                total += run.data["prefetch"]["useless"]
            useless[label] = total
        return useless

    useless = benchmark.pedantic(experiment, rounds=1, iterations=1)
    archive("ablation_filter",
            "== Ablation: per-load filter ==\n"
            "useless prefetches with filter:    %(filtered)d\n"
            "useless prefetches without filter: %(unfiltered)d" % useless)
    assert useless["filtered"] < useless["unfiltered"]


def test_ablation_loop_detection(runner, archive, benchmark):
    instructions = scaled(SINGLE_BUDGET)

    def experiment():
        on = _speedups(runner, instructions, bfetch=BFetchConfig())
        off = _speedups(runner, instructions,
                        bfetch=BFetchConfig(loop_prefetch=False))
        return on, off

    on, off = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [(b, {"loop on": on[b], "loop off": off[b]})
            for b in BENCH_SUBSET]
    rows.append(("Geomean", {"loop on": geomean(on.values()),
                             "loop off": geomean(off.values())}))
    archive("ablation_loop",
            render_table("Ablation: loop detection (LoopCnt x LoopDelta)",
                         rows, ["loop on", "loop off"]))
    # loop extrapolation is what reaches ahead on loop-dominated code
    # (bandwidth-saturated pure streams like libquantum are insensitive)
    assert on["sphinx"] > 1.2 * off["sphinx"]
    assert geomean(on.values()) >= geomean(off.values())


def test_ablation_arf_sampling_delay(runner, archive, benchmark):
    instructions = scaled(SINGLE_BUDGET)

    def experiment():
        execute = _speedups(runner, instructions,
                            bfetch=BFetchConfig(arf_delay=6))
        # sampling at retire is modelled as the longer visibility delay
        retire = _speedups(runner, instructions,
                           bfetch=BFetchConfig(arf_delay=60))
        return execute, retire

    execute, retire = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [(b, {"execute": execute[b], "retire": retire[b]})
            for b in BENCH_SUBSET]
    rows.append(("Geomean", {"execute": geomean(execute.values()),
                             "retire": geomean(retire.values())}))
    archive("ablation_arf",
            render_table("Ablation: ARF sampling point", rows,
                         ["execute", "retire"]))
    # both work (offsets absorb the mean lag); the execute-sampled copy
    # must not be worse
    assert geomean(execute.values()) >= 0.98 * geomean(retire.values())
