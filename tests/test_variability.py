"""Workload variants and across-seed statistics."""

import pytest

from repro.sim import ExperimentRunner
from repro.sim.variability import mean_and_ci, speedup_across_variants
from repro.workloads import build_workload


def test_mean_and_ci_basics():
    mean, half = mean_and_ci([2.0, 2.0, 2.0])
    assert mean == 2.0 and half == 0.0
    mean, half = mean_and_ci([1.0, 3.0])
    assert mean == 2.0 and half > 0.0
    mean, half = mean_and_ci([5.0])
    assert mean == 5.0 and half == 0.0
    with pytest.raises(ValueError):
        mean_and_ci([])


def test_variants_differ_in_data_not_structure():
    a = build_workload("mcf", variant=0)
    b = build_workload("mcf", variant=1)
    assert len(a.program) == len(b.program)
    assert [i.op for i in a.program.instrs] == [i.op for i in b.program.instrs]
    assert a.memory != b.memory


def test_variant_zero_is_canonical():
    assert build_workload("mcf") is build_workload("mcf", variant=0)


def test_speedup_across_variants_runs():
    runner = ExperimentRunner()
    mean, half, samples = speedup_across_variants(
        runner, "libquantum", "bfetch", instructions=15_000, variants=2
    )
    assert len(samples) == 2
    assert mean > 1.2  # the streaming gain is robust across seeds
    assert half < mean  # sane dispersion
