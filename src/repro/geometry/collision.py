"""Collision detection primitives.

Collision detection is the dominant bottleneck of several planning kernels
(pp2d >65%, rrt up to 62%).  Two families live here:

* grid-based checks — an oriented rectangular robot footprint (the pp2d
  self-driving car) or a swept segment is tested against an occupancy grid
  by sampling covered cells;
* continuous checks — segments against axis-aligned rectangular obstacles
  (the synthetic Map-C / Map-F arm workspaces of the paper's Fig. 9),
  using the Liang-Barsky slab test.

Both report their work (cells checked / segment tests) through optional
counter callbacks so kernels can expose collision work alongside time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.grid2d import OccupancyGrid2D

CountFn = Callable[[str, int], None]


def footprint_points(
    length: float, width: float, resolution: float
) -> np.ndarray:
    """Sample points covering a ``length x width`` rectangle (body frame).

    Points are spaced at most ``resolution`` apart (grid resolution), so
    testing them against the grid cannot miss an occupied cell overlapping
    the footprint interior by more than one cell.  The rectangle is
    centered on the origin with its length along +x.
    """
    nx = max(2, int(math.ceil(length / resolution)) + 1)
    ny = max(2, int(math.ceil(width / resolution)) + 1)
    xs = np.linspace(-length / 2.0, length / 2.0, nx)
    ys = np.linspace(-width / 2.0, width / 2.0, ny)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def oriented_footprint_collides(
    grid: OccupancyGrid2D,
    x: float,
    y: float,
    theta: float,
    body_points: np.ndarray,
    count: Optional[CountFn] = None,
) -> bool:
    """Whether a rectangle footprint at pose (x, y, theta) hits an obstacle.

    ``body_points`` is the precomputed output of :func:`footprint_points`;
    precomputing amortizes the meshgrid across the thousands of collision
    checks a single plan performs.
    """
    c, s = math.cos(theta), math.sin(theta)
    wx = x + c * body_points[:, 0] - s * body_points[:, 1]
    wy = y + s * body_points[:, 0] + c * body_points[:, 1]
    if count is not None:
        count("collision_cell_checks", len(wx))
    return bool(grid.occupied_world_batch(wx, wy).any())


def oriented_footprints_collide_batch(
    grid: OccupancyGrid2D,
    xs: np.ndarray,
    ys: np.ndarray,
    thetas: np.ndarray,
    body_points: np.ndarray,
    count: Optional[CountFn] = None,
) -> np.ndarray:
    """Vectorized :func:`oriented_footprint_collides` over ``m`` poses.

    Rotates the shared body-frame sample points into every pose at once
    (``(m, p)`` world coordinates, one grid lookup) and reduces per pose.
    Verdicts are exactly those of the scalar check — the same sample
    points are tested against the same cells — and the reported cell-check
    work (``m * p``) matches ``m`` scalar calls.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    m = len(xs)
    if m == 0:
        return np.zeros(0, dtype=bool)
    p = len(body_points)
    if count is not None:
        count("collision_cell_checks", m * p)
    bx = body_points[None, :, 0]
    by = body_points[None, :, 1]
    result = np.empty(m, dtype=bool)
    # Chunk the pose batch so the (chunk, p) world-coordinate temporaries
    # stay cache-resident; one giant batch is measurably slower.
    chunk = max(1, 65536 // p)
    for lo in range(0, m, chunk):
        c = np.cos(thetas[lo : lo + chunk])[:, None]
        s = np.sin(thetas[lo : lo + chunk])[:, None]
        wx = xs[lo : lo + chunk, None] + c * bx - s * by
        wy = ys[lo : lo + chunk, None] + s * bx + c * by
        occupied = grid.occupied_world_batch(wx.ravel(), wy.ravel())
        result[lo : lo + chunk] = occupied.reshape(-1, p).any(axis=1)
    return result


def point_collides(
    grid: OccupancyGrid2D, x: float, y: float, count: Optional[CountFn] = None
) -> bool:
    """Single-point collision check against a grid."""
    if count is not None:
        count("collision_cell_checks", 1)
    return grid.is_occupied_world(x, y)


def segment_collides_grid(
    grid: OccupancyGrid2D,
    p0: Tuple[float, float],
    p1: Tuple[float, float],
    step: Optional[float] = None,
    count: Optional[CountFn] = None,
) -> bool:
    """Whether the segment p0-p1 passes through any occupied cell."""
    if step is None:
        step = grid.resolution * 0.5
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    dist = math.hypot(dx, dy)
    n = max(1, int(dist / step))
    ts = np.linspace(0.0, 1.0, n + 1)
    xs = p0[0] + ts * dx
    ys = p0[1] + ts * dy
    if count is not None:
        count("collision_cell_checks", len(xs))
    return bool(grid.occupied_world_batch(xs, ys).any())


# -- continuous rectangular obstacles (arm workspaces) ------------------------


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle obstacle: [xmin, xmax] x [ymin, ymax]."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError("rectangle extents must be ordered")

    def contains(self, x: float, y: float) -> bool:
        """Whether the point lies inside (or on the boundary of) the box."""
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def intersects_segment(
        self, p0: Tuple[float, float], p1: Tuple[float, float]
    ) -> bool:
        """Liang-Barsky slab test: does segment p0-p1 cross this box?"""
        x0, y0 = p0
        dx, dy = p1[0] - x0, p1[1] - y0
        t0, t1 = 0.0, 1.0
        for delta, lo, hi, start in (
            (dx, self.xmin, self.xmax, x0),
            (dy, self.ymin, self.ymax, y0),
        ):
            if delta == 0.0:
                if start < lo or start > hi:
                    return False
                continue
            ta = (lo - start) / delta
            tb = (hi - start) / delta
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 > t1:
                return False
        return True


def segment_hits_obstacles(
    p0: Tuple[float, float],
    p1: Tuple[float, float],
    obstacles: Sequence[Rectangle],
    count: Optional[CountFn] = None,
) -> bool:
    """Whether segment p0-p1 crosses any rectangle in ``obstacles``."""
    if count is not None:
        count("segment_obstacle_tests", len(obstacles))
    return any(rect.intersects_segment(p0, p1) for rect in obstacles)


def polyline_hits_obstacles(
    points: Iterable[Tuple[float, float]],
    obstacles: Sequence[Rectangle],
    count: Optional[CountFn] = None,
) -> bool:
    """Whether any consecutive segment of ``points`` crosses an obstacle.

    This is the arm-link collision check: the planar arm's links form a
    polyline in the workspace and the whole chain must stay clear.
    """
    pts = list(points)
    for a, b in zip(pts[:-1], pts[1:]):
        if segment_hits_obstacles(a, b, obstacles, count):
            return True
    return False
