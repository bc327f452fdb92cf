"""Grid ray casting.

Ray-casting is the dominant phase of particle filter localization (the
paper measures 67-78% of pfl execution time in it), so the implementation
here is both the algorithmic substrate and an instrumentation point: the
batch casters report how many cell-step operations they performed via an
optional counter callback, giving an architecture-independent work metric
alongside wall-clock time.

Two execution backends live here:

* the **reference** casters (:func:`cast_ray`, :func:`cast_rays_batch`)
  march along each ray in fixed increments, checking one cell per step —
  the scalar baseline the paper's characterization runs on;
* the **vectorized** caster (:func:`cast_rays_dda_batch`) runs the exact
  per-ray traversal :func:`cast_ray_dda` for a whole batch in a small C
  loop (``_raycast.c``), compiled on first use by :mod:`repro.native`.
  Its distances and cell-check counter are bitwise those of
  :func:`cast_ray_dda`.

The two backends agree within one grid resolution (the equivalence tests
pin this); :func:`cast_ray_dda` is the semantic anchor.
"""

from __future__ import annotations

import ctypes
import math
import os
from typing import Callable, Optional

import numpy as np

from repro.geometry.grid2d import OccupancyGrid2D
from repro.native import load_function

#: C source of the vectorized caster, built on first use by :func:`load_core`.
_CORE_SOURCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "_raycast.c"
)

CountFn = Callable[[str, int], None]


def load_core() -> Callable[..., int]:
    """The compiled caster (see :func:`repro.native.load_function`)."""
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    return load_function(_CORE_SOURCE, "rtr_cast_rays_dda", i64, (
        ptr, i64, i64, f64, f64, f64, i64, ptr, ptr, ptr, ptr, f64, ptr,
    ))


def _occupied_cells(
    grid: OccupancyGrid2D, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Vectorized cell occupancy over index arrays; out-of-bounds -> occupied."""
    n_rows, n_cols = grid.cells.shape
    inside = (rows >= 0) & (rows < n_rows) & (cols >= 0) & (cols < n_cols)
    flat = (
        np.clip(rows, 0, n_rows - 1) * n_cols + np.clip(cols, 0, n_cols - 1)
    )
    return grid.cells.ravel().take(flat) | ~inside


def cast_ray(
    grid: OccupancyGrid2D,
    x: float,
    y: float,
    angle: float,
    max_range: float,
    step: Optional[float] = None,
) -> float:
    """Distance from (x, y) along ``angle`` to the first occupied cell.

    Marches in ``step`` increments (default: half the grid resolution, a
    standard compromise between accuracy and cost).  Returns ``max_range``
    if nothing is hit.

    When consecutive samples land in diagonally adjacent cells the ray has
    crossed through one intermediate cell that neither sample touched; that
    cell is checked explicitly (at its exact boundary-crossing distance),
    so a single-cell-thick wall clipped near its corner cannot be tunneled
    through.  With the default step this makes the marcher agree with the
    exact traversal of :func:`cast_ray_dda` on every hit/miss verdict.
    """
    if step is None:
        step = grid.resolution * 0.5
    dir_x = math.cos(angle)
    dir_y = math.sin(angle)
    dx = dir_x * step
    dy = dir_y * step
    n_steps = int(max_range / step)
    res = grid.resolution
    ox, oy = grid.origin
    prev_row, prev_col = grid.world_to_cell(x, y)
    cx, cy = x, y
    for i in range(1, n_steps + 1):
        cx += dx
        cy += dy
        col = math.floor((cx - ox) / res)
        row = math.floor((cy - oy) / res)
        if row != prev_row and col != prev_col:
            # Diagonal cell jump: the ray passed through exactly one of the
            # two adjacent cells; which one is decided by whichever grid
            # boundary the ray crossed first.
            t_x = (max(prev_col, col) * res + ox - x) / dir_x
            t_y = (max(prev_row, row) * res + oy - y) / dir_y
            if t_x < t_y:
                mid_row, mid_col = prev_row, col
            else:
                mid_row, mid_col = row, prev_col
            if grid.is_occupied(mid_row, mid_col):
                return min(t_x, t_y)
        if grid.is_occupied(row, col):
            return i * step
        prev_row, prev_col = row, col
    return max_range


def cast_rays_batch(
    grid: OccupancyGrid2D,
    xs: np.ndarray,
    ys: np.ndarray,
    angles: np.ndarray,
    max_range: float,
    step: Optional[float] = None,
    count: Optional[CountFn] = None,
) -> np.ndarray:
    """Reference batch ray casting: one ray per (xs[i], ys[i], angles[i]).

    All rays march in lock-step; rays that have already hit are frozen.
    Per-ray results are bit-identical to :func:`cast_ray` (including the
    diagonal-jump intermediate-cell check).  ``count`` (if given) receives
    the number of per-cell occupancy checks performed, the paper's
    ray-casting work unit.
    """
    if step is None:
        step = grid.resolution * 0.5
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    angles = np.asarray(angles, dtype=float)
    n = xs.shape[0]
    res = grid.resolution
    ox, oy = grid.origin
    dir_x = np.cos(angles)
    dir_y = np.sin(angles)
    dx = dir_x * step
    dy = dir_y * step
    cx = xs.copy()
    cy = ys.copy()
    prev_rows = np.floor((ys - oy) / res).astype(int)
    prev_cols = np.floor((xs - ox) / res).astype(int)
    distances = np.full(n, max_range, dtype=float)
    active = np.ones(n, dtype=bool)
    n_steps = int(max_range / step)
    checks = 0
    for i in range(1, n_steps + 1):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        cx[idx] += dx[idx]
        cy[idx] += dy[idx]
        cols = np.floor((cx[idx] - ox) / res).astype(int)
        rows = np.floor((cy[idx] - oy) / res).astype(int)
        checks += len(idx)
        diag = (rows != prev_rows[idx]) & (cols != prev_cols[idx])
        if diag.any():
            d = idx[diag]
            t_x = (
                np.maximum(prev_cols[d], cols[diag]) * res + ox - xs[d]
            ) / dir_x[d]
            t_y = (
                np.maximum(prev_rows[d], rows[diag]) * res + oy - ys[d]
            ) / dir_y[d]
            x_first = t_x < t_y
            mid_rows = np.where(x_first, prev_rows[d], rows[diag])
            mid_cols = np.where(x_first, cols[diag], prev_cols[d])
            checks += len(d)
            mid_hit = _occupied_cells(grid, mid_rows, mid_cols)
            if mid_hit.any():
                hit_idx = d[mid_hit]
                distances[hit_idx] = np.minimum(t_x, t_y)[mid_hit]
                active[hit_idx] = False
        hit = _occupied_cells(grid, rows, cols) & active[idx]
        if hit.any():
            hit_idx = idx[hit]
            distances[hit_idx] = i * step
            active[hit_idx] = False
        prev_rows[idx] = rows
        prev_cols[idx] = cols
    if count is not None:
        count("raycast_cell_checks", checks)
    return distances


def cast_rays_dda_batch(
    grid: OccupancyGrid2D,
    xs: np.ndarray,
    ys: np.ndarray,
    angles: np.ndarray,
    max_range: float,
    count: Optional[CountFn] = None,
) -> np.ndarray:
    """Exact batch ray casting: :func:`cast_ray_dda` for every ray, in C.

    The directions are ``np.cos``/``np.sin`` of ``angles``; the compiled
    core (``_raycast.c``) then runs each ray's Amanatides-Woo traversal
    with the scalar function's own float expressions, so distances are
    bitwise equal to :func:`cast_ray_dda`.  ``count`` receives the cells
    checked over all rays, the sum of the scalar traversal's counters.
    Raises ``ValueError`` on non-finite origins or angles, and a
    ``RuntimeError`` naming the compiler if the core cannot be built.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    if not (xs.shape == ys.shape == angles.shape and xs.ndim == 1):
        raise ValueError("xs, ys and angles must be 1-D arrays of one length")
    if not (
        np.isfinite(xs).all()
        and np.isfinite(ys).all()
        and np.isfinite(angles).all()
    ):
        raise ValueError("ray origins and angles must be finite")
    dir_x = np.cos(angles)
    dir_y = np.sin(angles)
    cells = np.ascontiguousarray(grid.cells, dtype=bool)
    distances = np.empty(len(xs))
    ox, oy = grid.origin
    checks = load_core()(
        cells.ctypes.data, cells.shape[0], cells.shape[1], grid.resolution,
        ox, oy, len(xs), xs.ctypes.data, ys.ctypes.data, dir_x.ctypes.data,
        dir_y.ctypes.data, float(max_range), distances.ctypes.data,
    )
    if count is not None:
        count("raycast_cell_checks", checks)
    return distances


def cast_ray_dda(
    grid: OccupancyGrid2D,
    x: float,
    y: float,
    angle: float,
    max_range: float,
    count: Optional[CountFn] = None,
) -> float:
    """Exact ray casting with Amanatides-Woo grid traversal.

    Visits every cell the ray passes through (no step size, no skipped
    corners) and returns the exact distance to the first occupied cell
    boundary.  More work per ray than the sampled marcher for coarse
    steps, but exact — the ablation benchmark compares the two.
    """
    res = grid.resolution
    dir_x = math.cos(angle)
    dir_y = math.sin(angle)
    # Current cell and in-cell position.
    row, col = grid.world_to_cell(x, y)
    if grid.is_occupied(row, col):
        return 0.0
    step_col = 1 if dir_x > 0 else -1
    step_row = 1 if dir_y > 0 else -1
    # Parametric distance to the next vertical / horizontal cell border.
    ox, oy = grid.origin
    if dir_x > 0:
        t_max_x = ((col + 1) * res + ox - x) / dir_x
    elif dir_x < 0:
        t_max_x = (col * res + ox - x) / dir_x
    else:
        t_max_x = math.inf
    if dir_y > 0:
        t_max_y = ((row + 1) * res + oy - y) / dir_y
    elif dir_y < 0:
        t_max_y = (row * res + oy - y) / dir_y
    else:
        t_max_y = math.inf
    t_delta_x = abs(res / dir_x) if dir_x != 0 else math.inf
    t_delta_y = abs(res / dir_y) if dir_y != 0 else math.inf
    t = 0.0
    checks = 0
    while t <= max_range:
        if t_max_x < t_max_y:
            t = t_max_x
            t_max_x += t_delta_x
            col += step_col
        else:
            t = t_max_y
            t_max_y += t_delta_y
            row += step_row
        if t > max_range:
            break
        checks += 1
        if grid.is_occupied(row, col):
            if count is not None:
                count("raycast_cell_checks", checks)
            return t
    if count is not None:
        count("raycast_cell_checks", checks)
    return max_range


def scan_from_pose(
    grid: OccupancyGrid2D,
    x: float,
    y: float,
    theta: float,
    n_beams: int,
    fov: float = 2.0 * math.pi,
    max_range: float = 30.0,
    step: Optional[float] = None,
    backend: str = "reference",
) -> np.ndarray:
    """A full simulated laser scan: ``n_beams`` ranges across ``fov``."""
    beam_angles = theta + np.linspace(-fov / 2.0, fov / 2.0, n_beams, endpoint=False)
    xs = np.full(n_beams, x)
    ys = np.full(n_beams, y)
    if backend == "vectorized":
        return cast_rays_dda_batch(grid, xs, ys, beam_angles, max_range)
    return cast_rays_batch(grid, xs, ys, beam_angles, max_range, step)
