"""Tests for distance metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry.distance import (
    angular_difference,
    euclidean,
    joint_space_distance,
    path_length,
    squared_euclidean,
)

vectors = st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=6)


def test_euclidean_basics():
    assert euclidean([0, 0], [3, 4]) == pytest.approx(5.0)
    assert squared_euclidean([0, 0], [3, 4]) == pytest.approx(25.0)


@given(vectors)
def test_distance_to_self_is_zero(v):
    assert euclidean(v, v) == pytest.approx(0.0)


@given(vectors, vectors)
def test_symmetry(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert euclidean(a, b) == pytest.approx(euclidean(b, a))


@given(vectors, vectors, vectors)
def test_triangle_inequality(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = a[:n], b[:n], c[:n]
    assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + 1e-9


def test_angular_difference_wraps():
    assert angular_difference(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)
    assert angular_difference(math.pi, -math.pi) == pytest.approx(0.0)
    assert angular_difference(0.0, math.pi) == pytest.approx(math.pi)


@given(st.floats(-20, 20), st.floats(-20, 20))
def test_angular_difference_range(a, b):
    d = angular_difference(a, b)
    assert 0.0 <= d <= math.pi + 1e-9


def test_joint_space_distance_plain_vs_wrapped():
    a = [0.1, 0.1]
    b = [2 * math.pi - 0.1, 0.1]
    assert joint_space_distance(a, b) == pytest.approx(2 * math.pi - 0.2)
    assert joint_space_distance(a, b, wrap=True) == pytest.approx(0.2)


def test_path_length():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 8.0]])
    assert path_length(pts) == pytest.approx(9.0)
    assert path_length(pts[:1]) == 0.0
    assert path_length(np.empty((0, 2))) == 0.0
