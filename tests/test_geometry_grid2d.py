"""Tests for the 2D occupancy grid."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry.grid2d import OccupancyGrid2D


def test_empty_grid_is_all_free():
    grid = OccupancyGrid2D.empty(5, 7)
    assert grid.rows == 5
    assert grid.cols == 7
    assert grid.occupancy_ratio() == 0.0


def test_constructor_validates_shape():
    with pytest.raises(ValueError):
        OccupancyGrid2D(np.zeros(5, dtype=bool))


def test_constructor_validates_resolution():
    with pytest.raises(ValueError):
        OccupancyGrid2D.empty(3, 3, resolution=0.0)


def test_world_cell_round_trip():
    grid = OccupancyGrid2D.empty(10, 10, resolution=0.5, origin=(2.0, -1.0))
    row, col = 4, 7
    x, y = grid.cell_to_world(row, col)
    assert grid.world_to_cell(x, y) == (row, col)


def test_out_of_bounds_counts_as_occupied():
    grid = OccupancyGrid2D.empty(4, 4)
    assert grid.is_occupied(-1, 0)
    assert grid.is_occupied(0, 4)
    assert grid.is_occupied_world(-0.5, 0.5)


def test_set_and_query_occupancy():
    grid = OccupancyGrid2D.empty(4, 4)
    grid.set_occupied(2, 3)
    assert grid.is_occupied(2, 3)
    grid.set_occupied(2, 3, False)
    assert not grid.is_occupied(2, 3)


def test_set_occupied_out_of_bounds_raises():
    grid = OccupancyGrid2D.empty(4, 4)
    with pytest.raises(IndexError):
        grid.set_occupied(9, 9)


def test_fill_rect_clips_to_bounds():
    grid = OccupancyGrid2D.empty(5, 5)
    grid.fill_rect(-3, -3, 1, 1)
    assert grid.cells[:2, :2].all()
    assert not grid.cells[2:, 2:].any()


def test_fill_rect_accepts_reversed_corners():
    grid = OccupancyGrid2D.empty(5, 5)
    grid.fill_rect(3, 3, 1, 1)
    assert grid.cells[1:4, 1:4].all()


def test_fill_border():
    grid = OccupancyGrid2D.empty(5, 5)
    grid.fill_border(1)
    assert grid.cells[0].all() and grid.cells[-1].all()
    assert grid.cells[:, 0].all() and grid.cells[:, -1].all()
    assert not grid.cells[1:-1, 1:-1].any()


def test_occupied_world_batch_matches_scalar():
    grid = OccupancyGrid2D.empty(10, 10)
    grid.fill_rect(3, 3, 6, 6)
    xs = np.array([0.5, 4.5, 9.5, -1.0, 20.0])
    ys = np.array([0.5, 4.5, 9.5, 5.0, 5.0])
    batch = grid.occupied_world_batch(xs, ys)
    for x, y, got in zip(xs, ys, batch):
        assert got == grid.is_occupied_world(x, y)


def test_inflate_grows_obstacles():
    grid = OccupancyGrid2D.empty(11, 11)
    grid.set_occupied(5, 5)
    inflated = grid.inflate(2.0)
    # Chebyshev ball of radius 2 around (5, 5).
    assert inflated.cells[3:8, 3:8].all()
    assert not inflated.cells[0, 0]
    # Original untouched.
    assert grid.cells.sum() == 1


def test_inflate_zero_radius_is_copy():
    grid = OccupancyGrid2D.empty(5, 5)
    grid.set_occupied(2, 2)
    out = grid.inflate(0.0)
    assert np.array_equal(out.cells, grid.cells)
    out.set_occupied(0, 0)
    assert not grid.is_occupied(0, 0)


@given(st.integers(1, 4))
def test_scaled_preserves_occupancy_ratio(factor):
    grid = OccupancyGrid2D.empty(6, 6)
    grid.fill_rect(1, 1, 3, 4)
    scaled = grid.scaled(factor)
    assert scaled.rows == grid.rows * factor
    assert scaled.occupancy_ratio() == pytest.approx(grid.occupancy_ratio())
    # World extent is preserved: finer cells, same meters.
    assert scaled.width == pytest.approx(grid.width)


def test_scaled_rejects_bad_factor():
    with pytest.raises(ValueError):
        OccupancyGrid2D.empty(3, 3).scaled(0)


def test_sample_free_point_is_free(rng):
    grid = OccupancyGrid2D.empty(10, 10)
    grid.fill_rect(0, 0, 9, 4)  # left half occupied
    for _ in range(20):
        x, y = grid.sample_free_point(rng)
        assert not grid.is_occupied_world(x, y)


def test_sample_free_cell_full_grid_raises(rng):
    grid = OccupancyGrid2D(np.ones((3, 3), dtype=bool))
    with pytest.raises(ValueError):
        grid.sample_free_cell(rng)


def test_free_cells_iterates_exactly_free():
    grid = OccupancyGrid2D.empty(3, 3)
    grid.set_occupied(1, 1)
    free = set(grid.free_cells())
    assert (1, 1) not in free
    assert len(free) == 8


def test_copy_is_deep():
    grid = OccupancyGrid2D.empty(3, 3)
    clone = grid.copy()
    clone.set_occupied(0, 0)
    assert not grid.is_occupied(0, 0)


def test_world_extent_properties():
    grid = OccupancyGrid2D.empty(4, 8, resolution=0.5)
    assert grid.width == pytest.approx(4.0)
    assert grid.height == pytest.approx(2.0)
    assert grid.in_bounds_world(3.9, 1.9)
    assert not grid.in_bounds_world(4.1, 1.0)
