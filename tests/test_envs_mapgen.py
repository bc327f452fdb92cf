"""Tests for the procedural map generators."""

import numpy as np
import pytest

from repro.envs.mapgen import (
    campus_like_3d,
    city_like,
    comparison_map,
    wean_hall_like,
)
from repro.search.dijkstra import shortest_grid_path


def test_wean_hall_deterministic():
    a = wean_hall_like(seed=3)
    b = wean_hall_like(seed=3)
    assert np.array_equal(a.cells, b.cells)


def test_wean_hall_different_seeds_differ():
    a = wean_hall_like(seed=0)
    b = wean_hall_like(seed=1)
    assert not np.array_equal(a.cells, b.cells)


def test_wean_hall_has_free_space_and_walls():
    grid = wean_hall_like()
    assert 0.2 < grid.occupancy_ratio() < 0.9
    # Border is closed.
    assert grid.cells[0].all() and grid.cells[-1].all()


def test_wean_hall_free_space_is_connected_enough():
    """Corridors must connect distant regions (pfl walks long paths)."""
    grid = wean_hall_like()
    free = np.argwhere(~grid.cells)
    start = tuple(free[0])
    goal = tuple(free[-1])
    path = shortest_grid_path(grid.cells, start, goal)
    assert path, "no path across the floorplan"


def test_city_like_structure():
    grid = city_like(rows=128, cols=128, seed=1)
    # Urban density: substantial buildings, substantial streets.
    assert 0.15 < grid.occupancy_ratio() < 0.6
    assert grid.cells[0].all()


def test_city_like_is_plannable():
    grid = city_like(rows=128, cols=128, seed=0)
    free = np.argwhere(~grid.cells)
    start = tuple(free[np.argmin(free.sum(axis=1))])
    goal = tuple(free[np.argmax(free.sum(axis=1))])
    assert shortest_grid_path(grid.cells, start, goal)


def test_campus_3d_has_vertical_structure():
    grid = campus_like_3d(nx=48, ny=48, nz=16, seed=0)
    # Lower slices denser than the top slice (buildings taper off).
    low = grid.cells[1].mean()
    high = grid.cells[-1].mean()
    assert low > high


def test_campus_3d_walls_closed():
    grid = campus_like_3d(nx=32, ny=32, nz=8)
    assert grid.cells[:, 0, :].all()
    assert grid.cells[:, :, -1].all()


def test_comparison_map_matches_prob_demo():
    grid = comparison_map()
    assert grid.rows == grid.cols == 62
    # The start (10, 10) and goal (50, 50) of the P-Rob demo are free.
    assert not grid.is_occupied(10, 10)
    assert not grid.is_occupied(50, 50)
    # The two walls exist.
    assert grid.is_occupied(20, 20)
    assert grid.is_occupied(40, 40)


def test_comparison_map_requires_detour():
    """The S-walls force a path longer than the straight diagonal."""
    grid = comparison_map()
    path = shortest_grid_path(grid.cells, (10, 10), (50, 50))
    assert path
    assert len(path) > 45  # straight diagonal would be ~41 steps
