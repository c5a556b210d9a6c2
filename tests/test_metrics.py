"""Evaluation metrics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import geomean, normalize, weighted_speedup


def test_geomean_simple():
    assert geomean([2, 8]) == pytest.approx(4.0)
    assert geomean([1, 1, 1]) == pytest.approx(1.0)


def test_geomean_rejects_empty_and_nonpositive():
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_geomean_between_min_and_max(values):
    g = geomean(values)
    assert min(values) - 1e-9 <= g <= max(values) + 1e-9


@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=10),
       st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_geomean_scale_invariance(values, k):
    assert geomean([v * k for v in values]) == pytest.approx(
        geomean(values) * k, rel=1e-6
    )


def test_weighted_speedup():
    assert weighted_speedup([1.0, 2.0], [2.0, 2.0]) == pytest.approx(1.5)


def test_weighted_speedup_length_mismatch():
    with pytest.raises(ValueError):
        weighted_speedup([1.0], [1.0, 2.0])


def test_normalize():
    assert normalize(3.0, 2.0) == 1.5
    with pytest.raises(ValueError):
        normalize(1.0, 0.0)
