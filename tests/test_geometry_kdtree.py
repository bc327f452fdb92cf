"""Tests for the KD-tree and linear NN index, including property tests."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.kdtree import KDTree, LinearNN

point_lists = st.lists(
    st.tuples(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)
queries = st.tuples(
    st.floats(-12, 12, allow_nan=False),
    st.floats(-12, 12, allow_nan=False),
    st.floats(-12, 12, allow_nan=False),
)


def _brute_nearest(points, q):
    d = np.linalg.norm(np.asarray(points) - np.asarray(q), axis=1)
    return float(d.min())


def test_empty_tree_nearest_raises():
    with pytest.raises(ValueError):
        KDTree(2).nearest([0.0, 0.0])


def test_dimension_validation():
    with pytest.raises(ValueError):
        KDTree(0)
    tree = KDTree(3)
    with pytest.raises(ValueError):
        tree.insert([1.0, 2.0])


def test_insert_and_len():
    tree = KDTree(2)
    for i in range(5):
        tree.insert([float(i), 0.0], data=i)
    assert len(tree) == 5


@settings(max_examples=60, deadline=None)
@given(point_lists, queries)
def test_incremental_nearest_matches_brute_force(points, q):
    tree = KDTree(3)
    for i, p in enumerate(points):
        tree.insert(p, data=i)
    _, _, d = tree.nearest(q)
    assert d == pytest.approx(_brute_nearest(points, q), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(point_lists, point_lists, queries)
def test_pop_undoes_the_latest_inserts(points, extra, q):
    tree = KDTree(3)
    for i, p in enumerate(points):
        tree.insert(p, data=i)
    before = tree.k_nearest(q, len(points))
    for p in extra:
        tree.insert(p, data=-1)
    for _ in extra:
        tree.pop()
    assert len(tree) == len(points)
    # Same points, same payloads, same traversal: the tree is restored.
    after = tree.k_nearest(q, len(points))
    assert [(d, i) for _, i, d in after] == [(d, i) for _, i, d in before]
    assert tree.visits == 2 * len(points)
    for _ in points:
        tree.pop()
    assert len(tree) == 0
    with pytest.raises(IndexError):
        tree.pop()


@settings(max_examples=60, deadline=None)
@given(point_lists, queries)
def test_built_nearest_matches_brute_force(points, q):
    tree = KDTree.build(np.asarray(points))
    _, _, d = tree.nearest(q)
    assert d == pytest.approx(_brute_nearest(points, q), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(point_lists, queries, st.integers(1, 8))
def test_k_nearest_matches_brute_force(points, q, k):
    tree = KDTree(3)
    for i, p in enumerate(points):
        tree.insert(p, data=i)
    results = tree.k_nearest(q, k)
    got = [d for _, _, d in results]
    brute = sorted(
        np.linalg.norm(np.asarray(points) - np.asarray(q), axis=1)
    )[: min(k, len(points))]
    assert len(got) == len(brute)
    assert np.allclose(got, brute, atol=1e-9)
    # Nearest first.
    assert got == sorted(got)


@settings(max_examples=40, deadline=None)
@given(point_lists, queries, st.floats(0.1, 8.0))
def test_within_radius_matches_brute_force(points, q, radius):
    tree = KDTree(3)
    for i, p in enumerate(points):
        tree.insert(p, data=i)
    got = sorted(d for _, _, d in tree.within_radius(q, radius))
    dists = np.linalg.norm(np.asarray(points) - np.asarray(q), axis=1)
    brute = sorted(float(d) for d in dists if d <= radius)
    assert np.allclose(got, brute, atol=1e-9)


def test_payloads_round_trip():
    tree = KDTree(2)
    tree.insert([0.0, 0.0], data="origin")
    tree.insert([5.0, 5.0], data="corner")
    _, data, _ = tree.nearest([0.1, 0.1])
    assert data == "origin"


def test_query_counts_node_visits():
    tree = KDTree(2)
    for i in range(50):
        tree.insert([float(i % 7), float(i % 11)], data=i)
    counts = {}
    tree.nearest(
        [3.0, 3.0],
        count=lambda n, k: counts.__setitem__(n, counts.get(n, 0) + k),
    )
    assert 0 < counts["nn_node_visits"] <= 50
    assert tree.visits == counts["nn_node_visits"]


def test_build_validates_shape():
    with pytest.raises(ValueError):
        KDTree.build(np.zeros(5))


# -- LinearNN ---------------------------------------------------------------


def test_linear_nn_matches_kdtree(rng):
    pts = rng.normal(size=(40, 4))
    lin = LinearNN(4)
    tree = KDTree(4)
    for i, p in enumerate(pts):
        lin.insert(p, i)
        tree.insert(p, i)
    q = rng.normal(size=4)
    _, i_lin, d_lin = lin.nearest(q)
    _, i_tree, d_tree = tree.nearest(q)
    assert (i_lin, d_lin) == (i_tree, d_tree)


def test_linear_nn_within_radius(rng):
    pts = rng.normal(size=(30, 2))
    lin = LinearNN(2)
    for i, p in enumerate(pts):
        lin.insert(p, i)
    hits = lin.within_radius([0.0, 0.0], 1.0)
    dists = np.linalg.norm(pts, axis=1)
    assert len(hits) == int((dists <= 1.0).sum())
    got = [d for _, _, d in hits]
    assert got == sorted(got)


def test_linear_nn_empty():
    lin = LinearNN(2)
    with pytest.raises(ValueError):
        lin.nearest([0.0, 0.0])
    assert lin.within_radius([0.0, 0.0], 1.0) == []


def test_linear_nn_dimension_mismatch():
    lin = LinearNN(3)
    with pytest.raises(ValueError):
        lin.insert([1.0, 2.0])


_LAZY_SPATIAL_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import repro.perception.scene_recon
from repro.geometry.kdtree import BatchKDTree
assert "scipy.spatial" not in sys.modules, "imported at module load"
BatchKDTree([[0.0, 0.0, 0.0]])
assert "scipy.spatial" in sys.modules
"""


def test_batch_tree_imports_scipy_spatial_lazily():
    """Loading ICP must not load ``scipy.spatial``: processes that never
    batch-query (the pfl/mpc loops) would pay its resident memory."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    script = _LAZY_SPATIAL_SCRIPT.format(src=os.path.abspath(src))
    subprocess.run(
        [sys.executable, "-c", script],
        check=True, timeout=60,
    )
