"""Performance-first grid A* (the suite's "real-time" implementation).

This is the optimized contestant in the Fig. 21 library comparison — the
Python equivalent of RTRBench's tuned C++ pp2d.  Every implementation
choice targets speed the way the paper's C++ does:

* the robot footprint is handled by inflating the grid **once** (numpy
  dilation, memoized through the workload cache) instead of
  per-expansion footprint checks;
* the search itself is :mod:`repro.search.grid_core`'s flat-array A*:
  a halo-padded flat occupancy table, preallocated g/parent/closed
  storage, and a lazy binary heap, run by a compiled C loop — no
  per-node objects, no dict maps (the exact opposite of the educational
  baseline's pass-by-value maps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.geometry.grid2d import OccupancyGrid2D
from repro.search.grid_core import astar_grid_2d


@dataclass
class FastPlanResult:
    """Outcome of a fast grid A* call."""

    found: bool
    path: List[Tuple[int, int]]
    cost: float
    expansions: int


def fast_grid_astar(
    grid: OccupancyGrid2D,
    start: Tuple[int, int],
    goal: Tuple[int, int],
    robot_radius: float = 0.0,
) -> FastPlanResult:
    """8-connected A* over an (optionally inflated) occupancy grid.

    ``robot_radius`` inflates obstacles once up front, the standard
    real-time treatment of a (near-)circular footprint.
    """
    work = grid.inflate(robot_radius) if robot_radius > 0.0 else grid
    cells = work.cells
    if cells[start]:
        raise ValueError(f"start cell {start} is occupied (after inflation)")
    if cells[goal]:
        raise ValueError(f"goal cell {goal} is occupied (after inflation)")
    flat, path = astar_grid_2d(
        cells, start, goal, resolution=grid.resolution, epsilon=1.0
    )
    return FastPlanResult(
        found=flat.found, path=path, cost=flat.cost, expansions=flat.expansions
    )
