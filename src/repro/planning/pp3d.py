"""Kernel 05.pp3d — 3D UAV path planning (paper section V.5).

Identical in structure to pp2d but with the z dimension: a small drone
(one voxel, per the paper's assumption) plans through an outdoor campus
volume with 26-connected A*.  The paper finds collision detection *and*
the irregular, hard-to-parallelize graph search are the bottlenecks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.envs.mapgen import campus_like_3d
from repro.geometry.grid3d import OccupancyGrid3D
from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, registry
from repro.search.astar import SearchResult, weighted_astar
from repro.search.grid_core import MOVES_3D_26, astar_grid_3d, load_core

_MOVES_3D: Tuple[Tuple[int, int, int], ...] = MOVES_3D_26


class GridPlanningSpace3D:
    """26-connected A* space over a voxel grid for a one-voxel UAV."""

    def __init__(
        self,
        grid: OccupancyGrid3D,
        goal: Tuple[int, int, int],
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        self.grid = grid
        self.goal = goal
        self.profiler = profiler if profiler is not None else PhaseProfiler()

    def successors(
        self, state: Tuple[int, int, int]
    ) -> Iterable[Tuple[Tuple[int, int, int], float]]:
        """26-connected moves into free voxels."""
        z, y, x = state
        grid = self.grid
        prof = self.profiler
        # One collision phase per expansion: check all 26 neighbors.
        with prof.phase("collision"):
            prof.count("collision_cell_checks", len(_MOVES_3D))
            valid = [
                ((dz, dy, dx), math.sqrt(dz * dz + dy * dy + dx * dx))
                for dz, dy, dx in _MOVES_3D
                if not grid.is_occupied(z + dz, y + dy, x + dx)
            ]
        for (dz, dy, dx), length in valid:
            yield (z + dz, y + dy, x + dx), length * grid.resolution

    def heuristic(self, state: Tuple[int, int, int]) -> float:
        """Euclidean distance to the goal voxel, in meters."""
        dz = state[0] - self.goal[0]
        dy = state[1] - self.goal[1]
        dx = state[2] - self.goal[2]
        return math.sqrt(dz * dz + dy * dy + dx * dx) * self.grid.resolution

    def is_goal(self, state: Tuple[int, int, int]) -> bool:
        """Whether the state is the goal voxel."""
        return state == self.goal


def plan_3d(
    grid: OccupancyGrid3D,
    start: Tuple[int, int, int],
    goal: Tuple[int, int, int],
    epsilon: float = 1.0,
    profiler: Optional[PhaseProfiler] = None,
    max_expansions: Optional[int] = None,
    backend: str = "reference",
) -> SearchResult:
    """Plan a 3D route; thin wrapper over Weighted A*.

    ``backend="array"`` runs the flat-array search core
    (:func:`repro.search.grid_core.astar_grid_3d`) instead of the
    heapq/dict reference — same algorithm, costs, paths, and operation
    counters; preallocated flat storage instead of per-node objects.
    """
    if backend not in ("reference", "array"):
        raise ValueError(
            f"backend must be 'reference' or 'array', got {backend!r}"
        )
    if backend == "array":
        return _plan_3d_array(
            grid, start, goal, epsilon=epsilon, profiler=profiler,
            max_expansions=max_expansions,
        )
    space = GridPlanningSpace3D(grid, goal, profiler=profiler)
    return weighted_astar(
        space, start, epsilon=epsilon, profiler=space.profiler,
        max_expansions=max_expansions,
    )


def _plan_3d_array(
    grid: OccupancyGrid3D,
    start: Tuple[int, int, int],
    goal: Tuple[int, int, int],
    epsilon: float = 1.0,
    profiler: Optional[PhaseProfiler] = None,
    max_expansions: Optional[int] = None,
) -> SearchResult:
    """pp3d on the flat-array core: collision checks fused into search.

    Reports the same operation counters as the reference backend
    (``astar_expansions``, ``search_pushes``, ``search_pops``, and
    ``collision_cell_checks`` at 26 per expansion); there is no separate
    ``collision`` phase because occupancy lookups are single flat-array
    reads inside the search loop.
    """
    prof = profiler if profiler is not None else PhaseProfiler()
    with prof.phase("search"):
        flat, path = astar_grid_3d(
            grid.cells, start, goal, resolution=grid.resolution,
            epsilon=epsilon, max_expansions=max_expansions,
        )
    prof.count("astar_expansions", flat.expansions)
    prof.count("search_pushes", flat.pushes)
    prof.count("search_pops", flat.pops)
    prof.count("collision_cell_checks", len(_MOVES_3D) * flat.expansions)
    return SearchResult(
        found=flat.found, path=path, cost=flat.cost,
        expansions=flat.expansions, generated=flat.generated,
    )


def far_apart_free_voxels(
    grid: OccupancyGrid3D,
) -> Tuple[Tuple[int, int, int], Tuple[int, int, int]]:
    """Free voxels near opposite corners at low altitude.

    Each endpoint is the free voxel of least L1 distance to its target,
    the first in C order on a tie.  The distance is broadcast over the
    whole volume in int32 (occupied voxels set to the int32 maximum), so
    no index list of the free voxels is built.
    """
    nz, ny, nx = grid.shape
    unreachable = np.iinfo(np.int32).max

    def find_near(tz: int, ty: int, tx: int) -> Tuple[int, int, int]:
        dist = (
            np.abs(np.arange(nz, dtype=np.int32) - tz)[:, None, None]
            + np.abs(np.arange(ny, dtype=np.int32) - ty)[None, :, None]
            + np.abs(np.arange(nx, dtype=np.int32) - tx)[None, None, :]
        )
        dist[grid.cells] = unreachable
        flat = int(np.argmin(dist))
        if dist.flat[flat] == unreachable:
            raise ValueError("the volume has no free voxel")
        return tuple(int(v) for v in np.unravel_index(flat, grid.shape))

    start = find_near(1, int(ny * 0.08), int(nx * 0.08))
    goal = find_near(1, int(ny * 0.92), int(nx * 0.92))
    return start, goal


@dataclass
class Pp3dConfig(KernelConfig):
    """Configuration of the pp3d kernel."""

    nx: int = option(96, "Map x extent in voxels", at_least=1)
    ny: int = option(96, "Map y extent in voxels", at_least=1)
    nz: int = option(24, "Map z extent in voxels", at_least=1)
    resolution: float = option(1.0, "Voxel size (m)", above=0)
    epsilon: float = option(1.0, "Weighted A* heuristic inflation", at_least=1)


@dataclass
class Pp3dWorkload:
    """Volume plus endpoints for one planning query."""

    grid: OccupancyGrid3D
    start: Tuple[int, int, int]
    goal: Tuple[int, int, int]


@registry.register
class Pp3dKernel(Kernel):
    """3D UAV path planning across the campus-like volume."""

    name = "05.pp3d"
    stage = "planning"
    config_cls = Pp3dConfig
    description = "3D A* drone navigation (collision + search bound)"
    backends = ("reference", "array")

    def setup(self, config: Pp3dConfig) -> Pp3dWorkload:
        if config.backend == "array":
            load_core()  # builds the search core here, not in the ROI
        grid = campus_like_3d(
            nx=config.nx,
            ny=config.ny,
            nz=config.nz,
            resolution=config.resolution,
            seed=config.seed,
        )
        start, goal = far_apart_free_voxels(grid)
        return Pp3dWorkload(grid=grid, start=start, goal=goal)

    def run_roi(
        self, config: Pp3dConfig, state: Pp3dWorkload, profiler: PhaseProfiler
    ) -> SearchResult:
        return plan_3d(
            state.grid,
            state.start,
            state.goal,
            epsilon=config.epsilon,
            profiler=profiler,
            backend=config.backend,
        )
