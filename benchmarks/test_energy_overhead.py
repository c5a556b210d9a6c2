"""Prefetcher dynamic-energy comparison (extension).

The paper argues B-Fetch's light weight in storage terms (Table I) and
qualitatively in energy ("in energy/power constrained environments it
may not be feasible to implement such [heavy] prefetchers").  This
extension puts first-order dynamic-energy numbers behind the claim using
:mod:`repro.analysis.energy`: smaller tables + fewer useless transfers
=> less energy per covered miss.

Unlike the other figures, this one builds each :class:`System` itself
instead of going through the runner, so it ignores the result cache and
``REPRO_JOBS``: the energy model needs the B-Fetch walk count and the
prefetcher's storage bits, and the run payload carries neither.  Adding
them to the payload would change every payload digest.  CI regenerates
the archived table at ``REPRO_SCALE=1`` and diffs it.
"""

from conftest import SINGLE_BUDGET

from repro.analysis import render_table
from repro.analysis.energy import prefetcher_energy
from repro.sim import SystemConfig
from repro.sim.runner import scaled
from repro.sim.system import System
from repro.workloads import build_workload

BENCH_SUBSET = ("libquantum", "leslie3d", "mcf", "bzip2", "milc", "sphinx")
PREFETCHERS = ("stride", "sms", "bfetch")


def test_energy_per_useful_prefetch(runner, archive, benchmark):
    instructions = scaled(SINGLE_BUDGET)

    def experiment():
        totals = {p: {"pj": 0.0, "useful": 0} for p in PREFETCHERS}
        for bench in BENCH_SUBSET:
            for prefetcher in PREFETCHERS:
                system = System(build_workload(bench),
                                SystemConfig(prefetcher=prefetcher))
                result = system.run(instructions)
                walks = getattr(system.prefetcher, "walks", None)
                model = prefetcher_energy(
                    result, prefetcher,
                    system.prefetcher.storage_bits(), walks,
                )
                totals[prefetcher]["pj"] += model.total_pj
                # "useful" here = demanded prefetches (useful + late now
                # that the outcome counters are disjoint)
                stats = result.data["prefetch"]
                totals[prefetcher]["useful"] += \
                    stats["useful"] + stats["late"]
        return totals

    totals = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = []
    for prefetcher in PREFETCHERS:
        data = totals[prefetcher]
        per_useful = data["pj"] / data["useful"] if data["useful"] else 0.0
        rows.append((prefetcher, {
            "total nJ": data["pj"] / 1000.0,
            "useful": float(data["useful"]),
            "pJ/useful": per_useful,
        }))
    archive(
        "energy_overhead",
        render_table("Prefetcher dynamic-energy comparison (extension)",
                     rows, ["total nJ", "useful", "pJ/useful"], fmt="%.1f"),
    )
    table = {label: values for label, values in rows}
    # B-Fetch covers a useful prefetch at no more energy than SMS
    assert table["bfetch"]["pJ/useful"] <= 1.1 * table["sms"]["pJ/useful"]