"""Latency quantiles and ``--older-than`` duration parsing.

Regression tests for ``repro.serve.metrics.quantile`` (type-7 linear
interpolation) and ``repro.cli._duration_seconds``.  The module name
is historical: these tests sat beside the batch timing kernel's suite,
which went with the kernel; the file keeps its name so their test ids
stay stable.
"""

import argparse

import pytest

from repro.cli import _duration_seconds
from repro.serve.metrics import quantile


# ----------------------------------------------------------------------
# serve.metrics quantile interpolation


def test_quantile_worked_example():
    values = [10, 20, 30, 40]
    assert quantile(values, 0.00) == 10.0
    assert quantile(values, 0.50) == 25.0
    assert quantile(values, 0.95) == pytest.approx(38.5)
    assert quantile(values, 0.99) == pytest.approx(39.7)
    assert quantile(values, 1.00) == 40.0


def test_quantile_small_window_p99_not_pinned_to_max():
    """The old nearest-rank-by-truncation rule reported the window max
    as p99 for every window under 100 samples."""
    for n in (2, 10, 50, 99):
        values = list(range(1, n + 1))
        p99 = quantile(values, 0.99)
        assert p99 < max(values)
        assert p99 > quantile(values, 0.95)
    # at n >= 101 the two estimators converge near the top anyway
    assert quantile(list(range(1, 102)), 0.99) == pytest.approx(100.0)


def test_quantile_edge_cases():
    assert quantile([], 0.5) == 0.0
    assert quantile([7.5], 0.99) == 7.5
    # q clamped into [0, 1]
    assert quantile([1, 2, 3], -0.5) == 1.0
    assert quantile([1, 2, 3], 2.0) == 3.0
    # order-independent
    assert quantile([3, 1, 2], 0.5) == 2.0


# ----------------------------------------------------------------------
# CLI duration parsing


@pytest.mark.parametrize("text,want", [
    ("90", 90.0),
    ("10s", 10.0),
    ("45m", 2_700.0),
    ("12h", 43_200.0),
    ("30d", 2_592_000.0),
    ("2w", 1_209_600.0),
    ("1.5h", 5_400.0),
])
def test_duration_accepts(text, want):
    assert _duration_seconds(text) == want


@pytest.mark.parametrize("text", [
    "", "abc", "5 m", "1h30m", "-5m", "0", "0s", "-0.0",
    "nan", "inf", "-inf", "infs", "nand", "1_0", ".", "m",
])
def test_duration_rejects(text):
    with pytest.raises(argparse.ArgumentTypeError, match="positive"):
        _duration_seconds(text)


def test_duration_error_names_units():
    with pytest.raises(argparse.ArgumentTypeError, match="s/m/h/d/w"):
        _duration_seconds("5 parsecs")
