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


def oriented_footprint_grid_mask(
    grid: OccupancyGrid2D,
    theta: float,
    body_points: np.ndarray,
    count: Optional[CountFn] = None,
) -> np.ndarray:
    """:func:`oriented_footprints_collide_batch` at every cell center.

    Returns the ``(rows, cols)`` verdicts of the footprint at heading
    ``theta`` placed at the center of each cell, without building the
    ``rows * cols * p`` world-coordinate batch.  In that batch the world
    x of sample point ``k`` at cell (r, c) is
    ``xs[c] + cos * bx[k] - sin * by[k]`` — a function of the column and
    the point only — and its world y a function of the row and the point
    only.  So per point a column-index table over the columns and a
    row-index table over the rows name every cell the batch reads (see
    :func:`_footprint_index_tables`), and the mask is the OR over points
    of the cell block the two tables select.  Indices outside the grid
    read an occupied border.

    Most points read a constant shift of the grid (their tables are
    ``arange`` plus a constant), so their block is a slice of the grid
    padded with an occupied border as wide as the largest shift.  Only
    the other points, which fractional resolutions and origins produce,
    gather their block through the tables.  The float expressions are
    the batch's, so the verdicts are bitwise identical, and the reported
    work is the batch's ``rows * cols * p`` cell checks.
    """
    rows, cols = grid.rows, grid.cols
    if count is not None:
        count("collision_cell_checks", rows * cols * len(body_points))
    mask = np.zeros((rows, cols), dtype=bool)
    if mask.size == 0:
        return mask
    row_idx, col_idx, shifted = _footprint_index_tables(
        grid, theta, body_points
    )
    # A shift past the grid reads only border, so clamp it to the grid
    # size; the border is at least one cell wide for the gathered points.
    dr = np.clip(row_idx[shifted, 0], -rows, rows)
    dc = np.clip(col_idx[shifted, 0], -cols, cols)
    br = max(1, int(np.abs(dr).max(initial=0)))
    bc = max(1, int(np.abs(dc).max(initial=0)))
    padded = np.ones((rows + 2 * br, cols + 2 * bc), dtype=bool)
    padded[br : br + rows, bc : bc + cols] = grid.cells
    for r0, c0 in zip((dr + br).tolist(), (dc + bc).tolist()):
        mask |= padded[r0 : r0 + rows, c0 : c0 + cols]
    # The rest gather: in-grid indices move into the padded grid, every
    # out-of-grid one reads its first (border) row or column.
    for rk, ck in zip(row_idx[~shifted], col_idx[~shifted]):
        rk = np.where((rk >= 0) & (rk < rows), rk + br, 0)
        ck = np.where((ck >= 0) & (ck < cols), ck + bc, 0)
        mask |= padded.take(rk, axis=0).take(ck, axis=1)
    return mask


def _footprint_index_tables(
    grid: OccupancyGrid2D, theta: float, body_points: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell tables of :func:`oriented_footprint_grid_mask`, one row a point.

    Returns ``(row_idx, col_idx, shifted)``: the ``(q, rows)`` row and
    ``(q, cols)`` column indices (before any bounds handling) that the
    footprint's sample points read at heading ``theta`` from every cell
    center, with points whose two tables equal an earlier point's left
    out (``q <= p``), and whether each kept point's tables are
    ``arange`` plus a constant.  The float expressions (cos/sin through
    the ufuncs on a float64 array included) are
    :func:`oriented_footprints_collide_batch`'s.
    """
    rows, cols = grid.rows, grid.cols
    res = grid.resolution
    ox, oy = grid.origin
    bx = body_points[:, 0:1]
    by = body_points[:, 1:2]
    angle = np.full((1, 1), theta, dtype=float)
    c = np.cos(angle)
    s = np.sin(angle)
    xs = ox + (np.arange(cols) + 0.5) * res
    ys = oy + (np.arange(rows) + 0.5) * res
    col_idx = np.floor((xs + c * bx - s * by - ox) / res).astype(int)
    row_idx = np.floor((ys + s * bx + c * by - oy) / res).astype(int)
    first = {}
    for k, (rk, ck) in enumerate(zip(row_idx, col_idx)):
        first.setdefault((rk.tobytes(), ck.tobytes()), k)
    keep = list(first.values())
    row_idx = row_idx[keep]
    col_idx = col_idx[keep]
    shifted = (np.diff(row_idx) == 1).all(axis=1) & (
        np.diff(col_idx) == 1
    ).all(axis=1)
    return row_idx, col_idx, shifted


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
