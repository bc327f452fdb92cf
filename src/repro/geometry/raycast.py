"""Grid ray casting.

Ray-casting is the dominant phase of particle filter localization (the
paper measures 67-78% of pfl execution time in it), so the implementation
here is both the algorithmic substrate and an instrumentation point: the
batch casters report how many cell-step operations they performed via an
optional counter callback, giving an architecture-independent work metric
alongside wall-clock time.

The exact per-ray traversal :func:`cast_ray_dda` is the semantic anchor.
Two batch casters run it, one per execution backend, with its float
expressions in its order, so both return its distances and its summed
cell-check counter bitwise:

* the **reference** caster (:func:`cast_rays_dda_lockstep`) advances every
  live ray one cell border per numpy iteration, in plain Python and numpy;
* the **vectorized** caster (:func:`cast_rays_dda_batch`) runs each ray's
  traversal in a small C loop (``_raycast.c``), compiled on first use by
  :mod:`repro.native`.  A large batch is split into contiguous ray slices,
  at most one per usable CPU, each on a thread that lives only for that
  call.

The sampled half-cell marcher :func:`cast_ray` is the world simulator,
not a backend; it is the anchor of a second pair.  The raycast-method
ablation calls it per ray, and ``Lidar.measure`` casts a whole episode's
scans with :func:`cast_rays_march_lockstep`, which advances every live
ray one sample per numpy iteration with :func:`cast_ray`'s float
expressions and so returns its distances bitwise.
"""

from __future__ import annotations

import ctypes
import math
import os
from typing import Callable, Optional, Tuple

import numpy as np

from repro.geometry.grid2d import OccupancyGrid2D
from repro.native import load_function

#: C source of the vectorized caster, built on first use by :func:`load_core`.
_CORE_SOURCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "_raycast.c"
)

CountFn = Callable[[str, int], None]

#: Fewest rays a slice of :func:`cast_rays_dda_batch` gets.  Starting and
#: joining a slice's thread costs ~40 us on a 2-vCPU x86 VM, as long as
#: casting ~400 pfl rays (~0.1 us each): two slices of 512 rays only break
#: even, and a 2,048-ray batch casts 1.7x faster in two (230 -> 130 us).
MIN_RAYS_PER_SLICE = 1024


def load_core() -> Callable[..., int]:
    """The compiled caster (see :func:`repro.native.load_function`)."""
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    return load_function(_CORE_SOURCE, "rtr_cast_rays_dda", i64, (
        ptr, i64, i64, f64, f64, f64, i64, ptr, ptr, ptr, ptr, f64, ptr, i64,
    ))


def ray_slices(n_rays: int) -> int:
    """Slices :func:`cast_rays_dda_batch` cuts ``n_rays`` rays into: one
    per usable CPU (the process's affinity mask where the platform has
    one, else the CPU count), but none shorter than
    :data:`MIN_RAYS_PER_SLICE`."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_rays // MIN_RAYS_PER_SLICE))


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


def _ray_batch(
    xs: np.ndarray, ys: np.ndarray, angles: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated float64 origins (contiguous) and angles of a ray batch,
    shared by every batch caster."""
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
    return xs, ys, angles


def _padded_occupancy(grid: OccupancyGrid2D) -> Tuple[np.ndarray, int]:
    """The grid's cells inside a one-cell occupied border, flattened, and
    the padded row width: a cell just off the map reads occupied, like
    :meth:`OccupancyGrid2D.is_occupied`."""
    n_rows, n_cols = grid.cells.shape
    occupied = np.ones((n_rows + 2, n_cols + 2), dtype=bool)
    occupied[1:-1, 1:-1] = grid.cells
    return occupied.ravel(), n_cols + 2


def cast_rays_march_lockstep(
    grid: OccupancyGrid2D,
    xs: np.ndarray,
    ys: np.ndarray,
    angles: np.ndarray,
    max_range: float,
) -> np.ndarray:
    """Batch half-cell marching: :func:`cast_ray` for every ray, in numpy.

    Each iteration advances every live ray by one sample of half a cell
    with the scalar marcher's float expressions in its order: the
    accumulated ``cx += dx``, the floored cell, the mid-cell test of a
    diagonal jump and its ``min(t_x, t_y)``, ``i * step`` on a cell hit
    and ``max_range`` after ``int(max_range / step)`` samples.  Directions
    come from ``math.cos``/``math.sin`` per ray and cell indices stay
    floats (floors are exact), so distances are bitwise those of
    :func:`cast_ray` for starts on or off the map, in free or occupied
    cells.  Memory is O(rays).  Raises ``ValueError`` on non-finite
    origins or angles.
    """
    xs, ys, angles = _ray_batch(xs, ys, angles)
    res = grid.resolution
    step = res * 0.5
    origin = np.array(grid.origin).reshape(2, 1)
    n_rows, n_cols = grid.cells.shape
    last = np.array([[n_cols], [n_rows]])
    occupied, width = _padded_occupancy(grid)

    def occupied_at(cells: np.ndarray) -> np.ndarray:
        """Occupancy of ``(2, k)`` float (col, row) cells, off-map ones
        clipped onto the occupied border."""
        col, row = np.minimum(np.maximum(cells, -1.0), last)
        return occupied[(row * width + col).astype(np.intp) + (width + 1)]

    dir_x = np.array([math.cos(a) for a in angles.tolist()])
    dir_y = np.array([math.sin(a) for a in angles.tolist()])
    distances = np.full(len(xs), max_range, dtype=np.float64)
    ray = np.arange(len(xs))
    # Row pairs (x, y): origin, direction, sample step, sample, and the
    # previous sample's (col, row).
    rays = np.stack([
        xs, ys, dir_x, dir_y, dir_x * step, dir_y * step, xs, ys,
        np.floor((xs - origin[0]) / res), np.floor((ys - origin[1]) / res),
    ])
    for i in range(1, int(max_range / step) + 1):
        if not len(ray):
            break
        start, direction, delta, sample, prev = rays.reshape(5, 2, -1)
        sample += delta
        cells = np.floor((sample - origin) / res)
        done = occupied_at(cells)
        distances[ray[done]] = i * step
        jump = np.flatnonzero((cells != prev).all(axis=0))
        if len(jump):
            # Diagonal cell jump: the ray passed through the one of the two
            # adjacent cells whose border it crossed first; a hit there
            # comes before the sample's own cell, at min(t_x, t_y).
            j_cells, j_prev = cells[:, jump], prev[:, jump]
            t_x, t_y = (np.maximum(j_prev, j_cells) * res + origin
                        - start[:, jump]) / direction[:, jump]
            x_first = t_x < t_y
            mid_hit = occupied_at(
                np.where([x_first, ~x_first], j_cells, j_prev)
            )
            distances[ray[jump[mid_hit]]] = np.where(t_y < t_x, t_y,
                                                     t_x)[mid_hit]
            done[jump[mid_hit]] = True
        prev[...] = cells
        if done.any():
            kept = np.flatnonzero(~done)
            rays, ray = rays.take(kept, axis=1), ray[kept]
    return distances


def cast_rays_dda_lockstep(
    grid: OccupancyGrid2D,
    xs: np.ndarray,
    ys: np.ndarray,
    angles: np.ndarray,
    max_range: float,
    count: Optional[CountFn] = None,
) -> np.ndarray:
    """Exact batch ray casting: :func:`cast_ray_dda` for every ray, in numpy.

    Every live ray crosses one cell border per iteration, with the scalar
    function's float expressions, so distances and the summed ``count``
    are bitwise those of :func:`cast_ray_dda` (and of
    :func:`cast_rays_dda_batch`).  The grid gets a one-cell occupied
    border, so a ray leaving the map hits it like the scalar bounds check;
    each iteration drops the rays that hit or ran past ``max_range``.
    Raises ``ValueError`` on non-finite origins or angles.
    """
    xs, ys, angles = _ray_batch(xs, ys, angles)
    dir_x, dir_y = np.cos(angles), np.sin(angles)
    max_range = float(max_range)
    res = grid.resolution
    ox, oy = grid.origin
    n_rows, n_cols = grid.cells.shape
    occupied, width = _padded_occupancy(grid)
    # Start cells; one off the map clips onto the border and, like a start
    # in an occupied cell, returns 0.0.
    col = np.clip(np.floor((xs - ox) / res), -1, n_cols).astype(np.int64)
    row = np.clip(np.floor((ys - oy) / res), -1, n_rows).astype(np.int64)
    cell = (row + 1) * width + col + 1
    live = np.flatnonzero(~occupied[cell])
    distances = np.zeros(len(xs))
    distances[live] = max_range
    x, y, dx, dy = xs[live], ys[live], dir_x[live], dir_y[live]
    col, row = col[live], row[live]
    with np.errstate(divide="ignore", invalid="ignore"):
        # Rows: t_max_x, t_max_y, t_delta_x, t_delta_y.
        floats = np.stack([
            np.where(dx != 0,
                     (np.where(dx > 0, col + 1, col) * res + ox - x) / dx,
                     np.inf),
            np.where(dy != 0,
                     (np.where(dy > 0, row + 1, row) * res + oy - y) / dy,
                     np.inf),
            np.abs(res / dx),
            np.abs(res / dy),
        ])
    # Rows: ray index, padded cell, cell step along x, cell step along y.
    ints = np.stack([live, cell[live], np.where(dx > 0, 1, -1),
                     np.where(dy > 0, width, -width)])
    checks = 0
    while ints.shape[1]:
        t_max_x, t_max_y, t_delta_x, t_delta_y = floats
        live, cell, step_x, step_y = ints
        x_first = t_max_x < t_max_y
        t = np.where(x_first, t_max_x, t_max_y)
        np.add(t_max_x, t_delta_x, out=t_max_x, where=x_first)
        np.add(t_max_y, t_delta_y, out=t_max_y, where=~x_first)
        cell += np.where(x_first, step_x, step_y)
        within = t <= max_range
        checks += int(np.count_nonzero(within))
        hit = within & occupied[cell]
        distances[live[hit]] = t[hit]
        kept = np.flatnonzero(within & ~hit)
        floats, ints = floats.take(kept, axis=1), ints.take(kept, axis=1)
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

    The compiled core (``_raycast.c``) runs each ray's Amanatides-Woo
    traversal with the scalar function's own float expressions, so
    distances are bitwise equal to :func:`cast_ray_dda`.  ``count``
    receives the cells checked over all rays, the sum of the scalar
    traversal's counters.  The core casts :func:`ray_slices` contiguous
    slices of the batch on as many threads, started and joined within the
    call; no slice count changes a distance or the counter.  Raises
    ``ValueError`` on non-finite origins or angles, and a ``RuntimeError``
    naming the compiler if the core cannot be built.
    """
    xs, ys, angles = _ray_batch(xs, ys, angles)
    dir_x, dir_y = np.cos(angles), np.sin(angles)
    cells = np.ascontiguousarray(grid.cells, dtype=bool)
    distances = np.empty(len(xs))
    ox, oy = grid.origin
    checks = load_core()(
        cells.ctypes.data, cells.shape[0], cells.shape[1], grid.resolution,
        ox, oy, len(xs), xs.ctypes.data, ys.ctypes.data, dir_x.ctypes.data,
        dir_y.ctypes.data, float(max_range), distances.ctypes.data,
        ray_slices(len(xs)),
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
