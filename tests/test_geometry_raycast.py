"""Tests for grid ray casting."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.geometry.grid2d import OccupancyGrid2D
from repro.geometry.raycast import (
    cast_ray,
    cast_ray_dda,
    cast_rays_dda_lockstep,
    cast_rays_march_lockstep,
)


@pytest.fixture
def corridor():
    """A 1-cell-tall corridor with a wall at column 15."""
    grid = OccupancyGrid2D.empty(3, 20, resolution=1.0)
    grid.fill_rect(0, 15, 2, 15)
    return grid


def test_ray_hits_wall_at_expected_distance(corridor):
    # From x=0.5 toward +x, the wall cell [15, 16) is ~14.5 away.
    dist = cast_ray(corridor, 0.5, 1.5, 0.0, max_range=30.0)
    assert dist == pytest.approx(14.5, abs=0.5)


def test_ray_misses_returns_max_range():
    grid = OccupancyGrid2D.empty(3, 10)
    dist = cast_ray(grid, 0.5, 1.5, 0.0, max_range=5.0)
    assert dist == 5.0


def test_ray_leaving_map_is_a_hit():
    """Outside the map counts as occupied, so rays stop at the edge."""
    grid = OccupancyGrid2D.empty(5, 5)
    dist = cast_ray(grid, 2.5, 2.5, math.pi, max_range=50.0)
    assert dist <= 3.0


def test_batch_matches_scalar(corridor):
    angles = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    xs = np.full(8, 2.5)
    ys = np.full(8, 1.5)
    batch = cast_rays_dda_lockstep(corridor, xs, ys, angles, max_range=25.0)
    for angle, got in zip(angles, batch):
        assert got == cast_ray_dda(corridor, 2.5, 1.5, angle, max_range=25.0)


def test_batch_counts_cell_checks(corridor):
    counts = {}

    def count(name, n):
        counts[name] = counts.get(name, 0) + n

    out = cast_rays_dda_lockstep(
        corridor,
        np.array([0.5]),
        np.array([1.5]),
        np.array([0.0]),
        max_range=20.0,
        count=count,
    )
    # Columns 1..15 are crossed, the last one is the wall.
    assert out[0] == 14.5
    assert counts["raycast_cell_checks"] == 15


def test_batch_empty_input():
    grid = OccupancyGrid2D.empty(3, 3)
    counts = {}
    out = cast_rays_dda_lockstep(
        grid, np.empty(0), np.empty(0), np.empty(0), max_range=5.0,
        count=lambda name, n: counts.__setitem__(name, n),
    )
    assert out.shape == (0,)
    assert counts == {"raycast_cell_checks": 0}


def test_rays_freeze_after_hit(corridor):
    """A ray that hits early must not keep consuming max_range steps."""
    # Two rays: one hits the wall quickly, one runs the corridor's length.
    xs = np.array([14.0, 0.5])
    ys = np.array([1.5, 1.5])
    angles = np.array([0.0, 0.0])
    checks = {}
    out = cast_rays_dda_lockstep(
        corridor, xs, ys, angles, max_range=30.0,
        count=lambda name, n: checks.__setitem__(name, n),
    )
    assert out.tolist() == [1.0, 14.5]
    # One check for the first ray, fifteen for the second.
    assert checks["raycast_cell_checks"] == 16


def test_closer_obstacle_gives_shorter_ray():
    grid = OccupancyGrid2D.empty(3, 30)
    grid.fill_rect(0, 10, 2, 10)
    near = cast_ray(grid, 8.0, 1.5, 0.0, 30.0)
    far = cast_ray(grid, 2.0, 1.5, 0.0, 30.0)
    assert near < far


def test_diagonal_ray_cannot_tunnel_through_one_cell_wall():
    """Regression: a diagonal ray crossing a 1-cell wall exactly at a cell
    corner must register the hit instead of slipping between samples."""
    grid = OccupancyGrid2D.empty(10, 10, resolution=1.0)
    grid.fill_rect(0, 5, 5, 5)  # one-cell-thick vertical wall, rows 0-5
    x, y, angle = 4.0, 4.98, math.pi / 4.0
    exact = cast_ray_dda(grid, x, y, angle, 20.0)
    sampled = cast_ray(grid, x, y, angle, 20.0)
    # The wall face at x=5 is one diagonal unit away: t = 1/cos(pi/4).
    assert exact == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert sampled < 20.0  # the marcher must not tunnel through
    assert abs(sampled - exact) <= grid.resolution


def test_batch_marcher_does_not_tunnel_diagonally():
    """The lock-step batch caster registers the same corner hits."""
    grid = OccupancyGrid2D.empty(10, 10, resolution=1.0)
    grid.fill_rect(0, 5, 5, 5)
    out = cast_rays_dda_lockstep(
        grid,
        np.array([4.0, 4.0]),
        np.array([4.98, 4.5]),
        np.array([math.pi / 4.0, math.pi / 4.0]),
        max_range=20.0,
    )
    assert out[0] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert out.tolist() == [
        cast_ray_dda(grid, 4.0, y, math.pi / 4.0, 20.0) for y in (4.98, 4.5)
    ]


# -- the world marcher in lock-step -------------------------------------------


def _scalar_march(grid, xs, ys, angles, max_range):
    """Per-ray :func:`cast_ray` distances."""
    return np.array([
        cast_ray(grid, x, y, a, max_range)
        for x, y, a in zip(xs.tolist(), ys.tolist(), angles.tolist())
    ])


def _assert_same_bits(batch, scalar):
    assert batch.shape == scalar.shape
    assert np.array_equal(batch.view(np.int64), scalar.view(np.int64))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 14),
    cols=st.integers(1, 14),
    density=st.floats(0.0, 0.6),
    resolution=st.sampled_from([0.1, 0.25, 0.3, 1.0, 1.7]),
    origin=st.tuples(
        st.floats(-5.0, 5.0).filter(bool), st.floats(-5.0, 5.0).filter(bool)
    ),
    samples=st.integers(0, 60),
    fraction=st.floats(0.01, 0.99),
)
@example(seed=0, rows=1, cols=1, density=1.0, resolution=0.3,
         origin=(-0.7, 2.2), samples=0, fraction=0.5)
@example(seed=1, rows=9, cols=13, density=0.0, resolution=1.7,
         origin=(3.1, -4.4), samples=60, fraction=0.99)
def test_march_lockstep_matches_scalar_marcher_property(
    seed, rows, cols, density, resolution, origin, samples, fraction
):
    """The lock-step marcher returns :func:`cast_ray`'s bits for every ray.

    Covers non-square grids, non-unit resolutions, non-zero origins,
    ``max_range`` between two sample distances, starts on cell borders
    and corners, in occupied cells and off the map (up to three cells
    out), and angles on exact multiples of pi/2 and pi/4.
    """
    rng = np.random.default_rng(seed)
    grid = OccupancyGrid2D(
        rng.random((rows, cols)) < density, resolution, origin
    )
    max_range = (samples + fraction) * resolution * 0.5
    n = 64
    xs = origin[0] + rng.uniform(-3.0, cols + 3.0, n) * resolution
    ys = origin[1] + rng.uniform(-3.0, rows + 3.0, n) * resolution
    # An eighth start on cell borders, an eighth in occupied cells.
    xs[:8] = origin[0] + rng.integers(-1, cols + 2, 8) * resolution
    ys[:8] = origin[1] + rng.integers(-1, rows + 2, 8) * resolution
    occupied = np.argwhere(grid.cells)
    if len(occupied):
        rows_in, cols_in = occupied[rng.integers(0, len(occupied), 8)].T
        xs[8:16] = origin[0] + (cols_in + rng.uniform(0, 1, 8)) * resolution
        ys[8:16] = origin[1] + (rows_in + rng.uniform(0, 1, 8)) * resolution
    angles = rng.uniform(-2 * math.pi, 2 * math.pi, n)
    angles[16:32] = rng.choice(
        [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
         3 * math.pi / 2, 2 * math.pi, math.pi / 4, -3 * math.pi / 4], 16
    )
    _assert_same_bits(
        cast_rays_march_lockstep(grid, xs, ys, angles, max_range),
        _scalar_march(grid, xs, ys, angles, max_range),
    )


def test_march_lockstep_edge_cases():
    """Off the map, in a wall, axis-parallel and through a wall's corner."""
    grid = OccupancyGrid2D.empty(10, 10, resolution=1.0, origin=(0.5, -1.0))
    grid.fill_rect(0, 5, 5, 5)
    xs = np.array([-3.0, 5.6, 2.0, 2.0, 4.5, 4.5])
    ys = np.array([0.0, 1.5, 2.5, 2.5, 3.98, 3.5])
    angles = np.array([0.0, 0.0, math.pi, math.pi / 2, math.pi / 4,
                       math.pi / 4])
    batch = cast_rays_march_lockstep(grid, xs, ys, angles, 20.0)
    _assert_same_bits(batch, _scalar_march(grid, xs, ys, angles, 20.0))
    # Off the map: the first sample hits; in a wall: so does it.
    assert batch[:2].tolist() == [0.5, 0.5]
    # The corner ray registers the wall instead of tunneling through.
    assert batch[4] < 20.0


def test_march_lockstep_empty_batch():
    out = cast_rays_march_lockstep(
        OccupancyGrid2D.empty(3, 3), np.empty(0), np.empty(0), np.empty(0),
        5.0,
    )
    assert out.shape == (0,)
