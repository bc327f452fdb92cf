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


def test_chain_shaped_tree_queries_past_the_recursion_limit():
    """Sorted inserts hang every point off its predecessor's right side:
    a 5,000-deep chain, deeper than Python's default recursion limit."""
    n = 5000
    points = np.column_stack([np.arange(n, dtype=float)] * 2)
    tree = KDTree(2)
    for i, p in enumerate(points):
        tree.insert(p, data=i)
    q = [n - 0.6, n - 0.6]
    _, data, dist = tree.nearest(q)
    assert data == n - 1
    assert dist == pytest.approx(0.4 * np.sqrt(2.0))
    near = tree.k_nearest(q, 3)
    assert [d for _, d, _ in near] == [n - 1, n - 2, n - 3]
    hits = tree.within_radius([10.0, 10.0], 1.5)
    assert [d for _, d, _ in hits] == [10, 9, 11]
    counts = {}
    end = tree.within_radius(
        [n - 1.0, n - 1.0], 0.5,
        count=lambda name, k: counts.__setitem__(name, k),
    )
    assert [d for _, d, _ in end] == [n - 1]
    # Toward the chain's end, each node's near side is the rest of it.
    assert counts["nn_node_visits"] == n


def _recursive_k_nearest(tree, q, k):
    """The recursive descent :meth:`KDTree.k_nearest` replaced: its
    (payload, distance) answers, nearest first, and its node visits."""
    import heapq

    q = np.asarray(q, dtype=float)
    heap, visits, tiebreak = [], [0], [0]

    def visit(node):
        if node is None:
            return
        visits[0] += 1
        d2 = float(np.sum((node.point - q) ** 2))
        if len(heap) < k:
            tiebreak[0] += 1
            heapq.heappush(heap, (-d2, tiebreak[0], node))
        elif d2 < -heap[0][0]:
            tiebreak[0] += 1
            heapq.heapreplace(heap, (-d2, tiebreak[0], node))
        diff = q[node.axis] - node.point[node.axis]
        near, far = (node.left, node.right) if diff < 0 else (node.right, node.left)
        visit(near)
        if len(heap) < k or diff * diff < -heap[0][0]:
            visit(far)

    visit(tree._root)
    ordered = sorted(heap, key=lambda item: -item[0])
    return [(n.data, float(np.sqrt(-d))) for d, _, n in ordered], visits[0]


def _recursive_within_radius(tree, q, radius):
    """The recursive descent :meth:`KDTree.within_radius` replaced."""
    q = np.asarray(q, dtype=float)
    r2 = radius * radius
    found, visits = [], [0]

    def visit(node):
        if node is None:
            return
        visits[0] += 1
        d2 = float(np.sum((node.point - q) ** 2))
        if d2 <= r2:
            found.append((node.data, float(np.sqrt(d2))))
        diff = q[node.axis] - node.point[node.axis]
        near, far = (node.left, node.right) if diff < 0 else (node.right, node.left)
        visit(near)
        if diff * diff <= r2:
            visit(far)

    visit(tree._root)
    found.sort(key=lambda item: item[1])
    return found, visits[0]


@settings(max_examples=80, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        min_size=1, max_size=50,
    ),
    q=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    k=st.integers(1, 6),
    radius=st.sampled_from([0.0, 1.0, 2.5, 9.0]),
)
def test_iterative_queries_match_the_recursive_descent(points, q, k, radius):
    """Same answers, tie order included, and the same ``nn_node_visits``
    as the recursive descent; integer points make ties and duplicates
    common."""
    tree = KDTree(2)
    for i, p in enumerate(points):
        tree.insert([float(c) for c in p], data=i)
    counts = []
    got = tree.k_nearest(q, k, count=lambda _, n: counts.append(n))
    want, want_visits = _recursive_k_nearest(tree, q, k)
    assert [(d, dist) for _, d, dist in got] == want
    hits = tree.within_radius(q, radius, count=lambda _, n: counts.append(n))
    want_hits, want_hit_visits = _recursive_within_radius(tree, q, radius)
    assert [(d, dist) for _, d, dist in hits] == want_hits
    assert counts == [want_visits, want_hit_visits]


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


_LAZY_CORE_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
from repro import native
import repro.perception.scene_recon
from repro.geometry.kdtree import BatchKDTree
assert native.load_function.cache_info().currsize == 0, "loaded at import"
assert os.listdir({cache!r}) == [], "compiled at import"
BatchKDTree([[0.0, 0.0, 0.0]])
assert [n.startswith("_nn-") for n in os.listdir({cache!r})] == [True]
assert "scipy.spatial" not in sys.modules
"""


def test_batch_tree_loads_its_core_lazily(tmp_path):
    """Loading ICP must not build or load the kd-tree core: processes
    that never batch-query (the pfl/mpc loops) would pay for it."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    cache = tmp_path / "cache"
    cache.mkdir()
    script = _LAZY_CORE_SCRIPT.format(
        src=os.path.abspath(src), cache=str(cache)
    )
    subprocess.run(
        [sys.executable, "-c", script], check=True, timeout=60,
        env=dict(os.environ, RTRBENCH_CACHE_DIR=str(cache)),
    )
