"""Tests for the rt latency block, :func:`repro.rt.slo.latency_summary`.

The block replaced a log-bucketed latency histogram that kept every raw
sample; these tests pin what it reported: exact nearest-rank quantiles
of the sorted samples, a mean accumulated left to right, the edge
ranks, the empty block, the output scale and the sample checks.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.rt.slo import latency_summary

KEYS = ["count", "mean", "min", "p50", "p90", "p99", "p999", "max"]

QUANTILES = {"p50": 0.5, "p90": 0.9, "p99": 0.99, "p999": 0.999}


def _oracle_quantile(values, q):
    """Nearest-rank quantile of a fully sorted list (the ground truth)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _left_to_right_mean(values):
    """The mean accumulated with ``+=`` in input order (no compensation)."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _assert_matches_oracle(values, scale=1.0):
    summary = latency_summary(values, scale=scale)
    assert list(summary) == KEYS
    assert summary["count"] == len(values)
    assert summary["mean"] == _left_to_right_mean(values) * scale
    assert summary["min"] == min(values) * scale
    assert summary["max"] == max(values) * scale
    for name, q in QUANTILES.items():
        assert summary[name] == _oracle_quantile(values, q) * scale, name


samples = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e-6),
        st.floats(min_value=0.0, max_value=1e3),
        st.sampled_from([0.0, 1e-6, 0.001, 0.1]),
    ),
    min_size=1,
    max_size=300,
)


@settings(max_examples=200, deadline=None)
@given(values=samples, scale=st.sampled_from([1.0, 1e3]))
def test_summary_matches_sorted_list_oracle(values, scale):
    _assert_matches_oracle(values, scale)


def test_quantiles_match_sorted_oracle_lognormal():
    rng = random.Random(42)
    _assert_matches_oracle([rng.lognormvariate(-7.0, 2.0) for _ in range(5000)])


def test_quantiles_match_sorted_oracle_uniform_and_heavy_tail():
    rng = random.Random(7)
    values = [rng.uniform(1e-6, 1e-3) for _ in range(997)]
    values += [rng.uniform(0.5, 50.0) for _ in range(13)]  # far tail
    _assert_matches_oracle(values, scale=1e3)


def test_mean_is_left_to_right_not_compensated():
    # += in order rounds each 1e-16 away (half an ulp of 1.0 is 1.1e-16);
    # a compensated sum (math.fsum, or the built-in sum() of floats from
    # Python 3.12 on) keeps them and lands one ulp above 1.0.
    values = [1.0, 1e-16, 1e-16]
    summary = latency_summary(values)
    assert summary["mean"] == _left_to_right_mean(values) == 1.0 / 3.0
    assert math.fsum(values) / 3 != summary["mean"]


def test_quantile_edge_ranks():
    summary = latency_summary([3.0, 1.0, 2.0])
    assert summary["min"] == 1.0
    assert summary["p50"] == 2.0
    # ceil(0.9 * 3) = 3: p90 and above are the maximum.
    assert summary["p90"] == summary["p999"] == summary["max"] == 3.0
    two = latency_summary([2.0, 1.0])
    assert two["p50"] == 1.0  # rank ceil(0.5 * 2) = 1
    assert two["p90"] == 2.0


def test_single_value_all_quantiles():
    summary = latency_summary([0.25])
    for key in KEYS[1:]:
        assert summary[key] == 0.25, key


def test_min_max_mean_sum_count():
    summary = latency_summary(iter([0.1, 0.2, 0.3, 0.4]))
    assert summary["count"] == 4
    assert summary["min"] == 0.1
    assert summary["max"] == 0.4
    assert summary["mean"] * summary["count"] == pytest.approx(1.0)
    assert summary["mean"] == pytest.approx(0.25)


def test_empty_histogram_behavior():
    assert latency_summary([]) == {"count": 0}
    assert latency_summary([], scale=1e3) == {"count": 0}


def test_record_rejects_negative_and_nan():
    with pytest.raises(ValueError):
        latency_summary([1.0, -1.0])
    with pytest.raises(ValueError):
        latency_summary([float("nan")])


def test_summary_scale_converts_units():
    summary = latency_summary([0.001, 0.002], scale=1e3)
    assert summary["min"] == pytest.approx(1.0)
    assert summary["max"] == pytest.approx(2.0)
    assert summary["count"] == 2
    assert list(summary) == KEYS
