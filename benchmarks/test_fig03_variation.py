"""Figure 3: register vs effective-address variation CDFs (1/3/12 BBs).

Paper: ~92% of address-base register values stay within one 64B block
across 1 BB (89% across 3, 82% across 12), while effective addresses
drift rapidly -- the motivation for anchoring prefetch address
speculation on current register state.
"""

from conftest import ANALYSIS_BUDGET

from repro.analysis import collect_variation, render_cdf
from repro.analysis.variation import VariationCDF
from repro.sim.runner import scaled
from repro.workloads import SPEC_BENCHMARKS, build_workload

WINDOWS = (1, 3, 12)


def _merge(cdfs_list):
    merged = {window: VariationCDF() for window in WINDOWS}
    for cdfs in cdfs_list:
        for window in WINDOWS:
            source = cdfs[window]
            for blocks, count in enumerate(source.counts):
                merged[window].counts[blocks] += count
                merged[window].total += count
    return merged


def test_fig03_register_vs_ea_variation(archive, benchmark):
    instructions = scaled(ANALYSIS_BUDGET)

    def experiment():
        reg_all, ea_all = [], []
        for bench in SPEC_BENCHMARKS:
            reg, ea = collect_variation(build_workload(bench),
                                        instructions=instructions,
                                        windows=WINDOWS)
            reg_all.append(reg)
            ea_all.append(ea)
        return _merge(reg_all), _merge(ea_all)

    reg, ea = benchmark.pedantic(experiment, rounds=1, iterations=1)
    text = "\n".join([
        render_cdf("Fig. 3a: register content variation", reg),
        render_cdf("Fig. 3b: effective address variation", ea),
    ])
    archive("fig03_variation", text)

    # registers are far more stable than effective addresses
    for window in WINDOWS:
        assert reg[window].fraction_within(1) > ea[window].fraction_within(1)
    # a large majority of register deltas stay within one cache block,
    # and stability decays as the window grows (92%/89%/82% in the paper)
    assert reg[1].fraction_within(1) > 0.7
    assert reg[1].fraction_within(1) >= reg[3].fraction_within(1) >= \
        reg[12].fraction_within(1) - 0.02
    # EA variation grows quickly with lookahead depth
    assert ea[12].fraction_within(1) < reg[12].fraction_within(1)
