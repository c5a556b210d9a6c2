"""Analysis modules: variation CDFs, overhead, fetch breakdown, reporting."""

import pytest

from repro.analysis import (
    VariationCDF,
    bfetch_overhead_kb,
    collect_variation,
    fetch_branch_breakdown,
    overhead_table,
    render_cdf,
    render_series,
    render_table,
    sms_overhead_kb,
)
from repro.analysis.overhead import storage_saving_vs_sms
from repro.workloads import build_workload


class TestVariationCDF:
    def test_cdf_monotonic_and_bounded(self):
        cdf = VariationCDF()
        for delta in (0, 64, 128, 5000):
            cdf.add(delta)
        values = cdf.cumulative()
        assert all(0 <= v <= 1 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0)

    def test_overflow_bin(self):
        cdf = VariationCDF(max_blocks=4)
        cdf.add(10_000_000)
        assert cdf.fraction_within(3) == 0.0
        assert cdf.fraction_within(4) == 1.0

    def test_empty_cdf(self):
        assert VariationCDF().cumulative()[0] == 0.0


def test_collect_variation_register_more_stable_than_ea():
    """The paper's Fig. 3 claim: register contents vary far less than
    effective addresses across basic blocks."""
    reg, ea = collect_variation(build_workload("libquantum"),
                                instructions=30_000)
    for window in (1, 3, 12):
        assert reg[window].total > 0 and ea[window].total > 0
    assert reg[1].fraction_within(1) > ea[1].fraction_within(1)


def test_collect_variation_stability_decreases_with_window():
    reg, _ = collect_variation(build_workload("milc"), instructions=30_000)
    assert reg[1].fraction_within(1) >= reg[12].fraction_within(1)


class TestOverhead:
    def test_table1_totals(self):
        _, bf_total, sms_total = overhead_table()
        assert bf_total == pytest.approx(12.84, abs=0.01)
        assert sms_total == pytest.approx(36.57, abs=0.01)

    def test_component_values(self):
        bf = bfetch_overhead_kb()
        assert bf["Branch Trace Cache"] == pytest.approx(2.06, abs=0.01)
        assert bf["Memory History Table"] == pytest.approx(4.5, abs=0.02)
        assert bf["Per-Load Prefetch Filter"] == pytest.approx(2.25, abs=0.01)
        sms = sms_overhead_kb()
        assert sms["Pattern History Table"] == pytest.approx(36.0, abs=0.01)

    def test_headline_saving(self):
        # the paper claims 65% less storage than SMS
        assert storage_saving_vs_sms() == pytest.approx(0.65, abs=0.02)

    def test_overhead_scales_with_entries(self):
        small = bfetch_overhead_kb(brtc_entries=64, mht_entries=64)
        assert small["TOTAL"] < bfetch_overhead_kb()["TOTAL"]


class TestFetchBreakdown:
    def test_fractions_sum_to_one(self):
        class Fake:
            data = {"fetch_branch_hist": [0, 80, 15, 4, 1]}
        breakdown = fetch_branch_breakdown([Fake()])
        assert sum(breakdown[n] for n in range(1, 5)) == pytest.approx(1.0)
        assert breakdown["cumulative_2"] == pytest.approx(0.95)

    def test_empty(self):
        class Fake:
            data = {"fetch_branch_hist": [0, 0, 0, 0, 0]}
        assert fetch_branch_breakdown([Fake()])["cumulative_2"] == 1.0


class TestReporting:
    def test_render_table(self):
        text = render_table("T", [("x", {"a": 1.0})], ["a"])
        assert "== T ==" in text and "1.000" in text

    def test_render_series(self):
        text = render_series("S", [("p1", 2.0), ("p2", 3.0)])
        assert "p1" in text and "3.000" in text

    def test_render_cdf(self):
        cdf = VariationCDF()
        cdf.add(0)
        text = render_cdf("C", {1: cdf})
        assert "1BB" in text
