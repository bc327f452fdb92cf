"""Cross-cutting property tests on core data-structure invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.envs.movingai import parse_movingai, save_movingai
from repro.geometry.grid2d import OccupancyGrid2D
from repro.geometry.kdtree import KDTree, scan_nearest


grids = st.builds(
    lambda rows, cols, seed, density: _random_grid(rows, cols, seed, density),
    st.integers(4, 24),
    st.integers(4, 24),
    st.integers(0, 100),
    st.floats(0.0, 0.5),
)


def _random_grid(rows, cols, seed, density):
    rng = np.random.default_rng(seed)
    return OccupancyGrid2D(rng.random((rows, cols)) < density)


@settings(max_examples=40, deadline=None)
@given(grids, st.floats(0.0, 3.0))
def test_inflate_is_monotone_and_superset(grid, radius):
    """Inflation never frees a cell, and more radius never frees more."""
    inflated = grid.inflate(radius)
    assert (inflated.cells | grid.cells == inflated.cells).all()
    bigger = grid.inflate(radius + 1.0)
    assert (bigger.cells | inflated.cells == bigger.cells).all()


@settings(max_examples=30, deadline=None)
@given(grids)
def test_inflate_zero_identity(grid):
    assert np.array_equal(grid.inflate(0.0).cells, grid.cells)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-5, 5, allow_nan=False),
                  st.floats(-5, 5, allow_nan=False)),
        min_size=1, max_size=40,
    ),
    st.tuples(st.floats(-6, 6), st.floats(-6, 6)),
)
def test_scan_nearest_and_kdtree_agree(points, query):
    """The full scan and incremental insertion answer queries with the
    same distance bits."""
    incremental = KDTree(2)
    for i, p in enumerate(points):
        incremental.insert(p, i)
    _, d_scan = scan_nearest(np.asarray([query]), np.asarray(points))
    _, _, d_incr = incremental.nearest(query)
    assert d_scan[0] == d_incr


@settings(max_examples=25, deadline=None)
@given(grids)
def test_movingai_round_trip_property(grid):
    """Any grid survives a save/parse round trip bit-exactly."""
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.map"
        save_movingai(grid, path)
        loaded = parse_movingai(path.read_text())
    assert np.array_equal(loaded.cells, grid.cells)


@settings(max_examples=25, deadline=None)
@given(grids, st.integers(0, 10_000))
def test_sample_free_point_property(grid, seed):
    """Sampled free points are always genuinely free (when any exist)."""
    rng = np.random.default_rng(seed)
    if grid.cells.all():
        with pytest.raises(ValueError):
            grid.sample_free_point(rng)
        return
    x, y = grid.sample_free_point(rng)
    assert not grid.is_occupied_world(x, y)
