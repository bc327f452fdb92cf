"""Tests for collision detection primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry.collision import (
    Rectangle,
    footprint_points,
    oriented_footprint_collides,
    polyline_hits_obstacles,
    segment_hits_obstacles,
)
from repro.geometry.grid2d import OccupancyGrid2D


def test_footprint_points_cover_the_rectangle():
    pts = footprint_points(4.0, 2.0, 0.5)
    assert pts[:, 0].min() == pytest.approx(-2.0)
    assert pts[:, 0].max() == pytest.approx(2.0)
    assert pts[:, 1].min() == pytest.approx(-1.0)
    assert pts[:, 1].max() == pytest.approx(1.0)
    # Spacing never exceeds the requested resolution.
    xs = np.unique(pts[:, 0])
    assert np.diff(xs).max() <= 0.5 + 1e-9


def test_footprint_clear_vs_hit(small_grid):
    body = footprint_points(2.0, 1.0, 0.5)
    # Center of the free area left of the obstacle block.
    assert not oriented_footprint_collides(small_grid, 4.0, 4.0, 0.0, body)
    # On top of the obstacle block.
    assert oriented_footprint_collides(small_grid, 10.0, 10.0, 0.0, body)


def test_footprint_rotation_matters():
    grid = OccupancyGrid2D.empty(10, 10)
    grid.fill_rect(0, 6, 9, 6)  # vertical wall at column 6
    body = footprint_points(6.0, 0.5, 0.5)
    # Long axis along the wall direction (vertical): fits beside the wall.
    assert not oriented_footprint_collides(grid, 3.0, 5.0, math.pi / 2, body)
    # Long axis pointing through the wall: collides.
    assert oriented_footprint_collides(grid, 3.0, 5.0, 0.0, body)


def test_footprint_counts_checks(small_grid):
    counts = {}
    body = footprint_points(2.0, 1.0, 1.0)
    oriented_footprint_collides(
        small_grid, 4.0, 4.0, 0.0, body,
        count=lambda n, k: counts.__setitem__(n, counts.get(n, 0) + k),
    )
    assert counts["collision_cell_checks"] == len(body)


# -- rectangle obstacles -------------------------------------------------------


def test_rectangle_validates():
    with pytest.raises(ValueError):
        Rectangle(1.0, 0.0, 0.0, 1.0)


def test_rectangle_contains():
    rect = Rectangle(0.0, 0.0, 2.0, 1.0)
    assert rect.contains(1.0, 0.5)
    assert rect.contains(0.0, 0.0)  # boundary
    assert not rect.contains(3.0, 0.5)


def test_segment_crossing_rectangle():
    rect = Rectangle(1.0, 1.0, 2.0, 2.0)
    assert rect.intersects_segment((0.0, 1.5), (3.0, 1.5))
    assert not rect.intersects_segment((0.0, 0.0), (3.0, 0.5))


def test_segment_fully_inside_rectangle():
    rect = Rectangle(0.0, 0.0, 4.0, 4.0)
    assert rect.intersects_segment((1.0, 1.0), (2.0, 2.0))


def test_segment_touching_corner():
    rect = Rectangle(1.0, 1.0, 2.0, 2.0)
    assert rect.intersects_segment((0.0, 2.0), (2.0, 0.0))  # through corner


def test_vertical_and_horizontal_segments():
    rect = Rectangle(1.0, 1.0, 2.0, 2.0)
    assert rect.intersects_segment((1.5, 0.0), (1.5, 3.0))  # vertical through
    assert not rect.intersects_segment((0.5, 0.0), (0.5, 3.0))  # vertical miss
    assert rect.intersects_segment((0.0, 1.5), (3.0, 1.5))  # horizontal


@given(
    st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)
)
def test_segment_endpoint_inside_always_intersects(x0, y0, dx, dy):
    rect = Rectangle(-1.0, -1.0, 1.0, 1.0)
    inside = (max(-0.9, min(0.9, x0)), max(-0.9, min(0.9, y0)))
    outside = (inside[0] + dx, inside[1] + dy)
    assert rect.intersects_segment(inside, outside)


def test_segment_hits_obstacles_counts():
    obstacles = [Rectangle(0, 0, 1, 1), Rectangle(5, 5, 6, 6)]
    counts = {}
    hit = segment_hits_obstacles(
        (2.0, 2.0), (3.0, 3.0), obstacles,
        count=lambda n, k: counts.__setitem__(n, counts.get(n, 0) + k),
    )
    assert not hit
    assert counts["segment_obstacle_tests"] == 2


def test_polyline_hits_obstacles():
    obstacles = [Rectangle(1.0, 1.0, 2.0, 2.0)]
    clear = [(0.0, 0.0), (0.5, 3.0), (3.0, 3.0)]
    through = [(0.0, 0.0), (3.0, 3.0)]
    assert not polyline_hits_obstacles(clear, obstacles)
    assert polyline_hits_obstacles(through, obstacles)


def test_polyline_empty_or_single_point():
    obstacles = [Rectangle(0, 0, 1, 1)]
    assert not polyline_hits_obstacles([], obstacles)
    assert not polyline_hits_obstacles([(0.5, 0.5)], obstacles)
