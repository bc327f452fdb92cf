"""Kernel 04.pp2d — 2D mobile-robot path planning (paper section V.4).

A car-like robot (the paper models a 4.8 m x 1.8 m self-driving car on a
snapshot of Boston) plans a collision-free route with A* over the city
grid.  Every candidate move collision-checks the full oriented footprint
against the occupancy grid — the phase the paper measures at >65% of
execution time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.envs.mapgen import city_like
from repro.geometry.collision import (
    footprint_points,
    oriented_footprint_collides,
    oriented_footprint_grid_mask,
    oriented_footprints_collide_batch,  # noqa: F401 - perfbench traces this name
)
from repro.geometry.grid2d import OccupancyGrid2D
from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, registry
from repro.search.astar import SearchResult, weighted_astar
from repro.search.grid_core import MOVES_2D_8, astar_grid_2d, load_core

_MOVES: Tuple[Tuple[int, int], ...] = MOVES_2D_8


class GridPlanningSpace2D:
    """A* search space over a 2D grid with an oriented-footprint robot.

    States are (row, col) cells; moves are 8-connected.  A move is valid
    when the robot footprint, oriented along the motion direction and
    placed at the destination cell center, clears all obstacles.
    """

    def __init__(
        self,
        grid: OccupancyGrid2D,
        goal: Tuple[int, int],
        robot_length: float = 4.8,
        robot_width: float = 1.8,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        self.grid = grid
        self.goal = goal
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        self.body_points = footprint_points(
            robot_length, robot_width, grid.resolution
        )
        self.collision_checks = 0

    def state_collides(self, row: int, col: int, theta: float) -> bool:
        """Footprint collision at a cell with a given heading."""
        x, y = self.grid.cell_to_world(row, col)
        self.collision_checks += 1
        with self.profiler.phase("collision"):
            return oriented_footprint_collides(
                self.grid, x, y, theta, self.body_points,
                count=self.profiler.count,
            )

    def successors(
        self, state: Tuple[int, int]
    ) -> Iterable[Tuple[Tuple[int, int], float]]:
        """8-connected moves whose destination footprint is clear."""
        row, col = state
        for dr, dc in _MOVES:
            nr, nc = row + dr, col + dc
            if not self.grid.in_bounds(nr, nc):
                continue
            theta = math.atan2(dr, dc)
            if self.state_collides(nr, nc, theta):
                continue
            step = math.hypot(dr, dc) * self.grid.resolution
            yield (nr, nc), step

    def heuristic(self, state: Tuple[int, int]) -> float:
        """Euclidean distance to the goal, in meters (admissible)."""
        dr = state[0] - self.goal[0]
        dc = state[1] - self.goal[1]
        return math.hypot(dr, dc) * self.grid.resolution

    def is_goal(self, state: Tuple[int, int]) -> bool:
        """Whether the state is the goal cell."""
        return state == self.goal


def plan_2d(
    grid: OccupancyGrid2D,
    start: Tuple[int, int],
    goal: Tuple[int, int],
    robot_length: float = 4.8,
    robot_width: float = 1.8,
    epsilon: float = 1.0,
    profiler: Optional[PhaseProfiler] = None,
    max_expansions: Optional[int] = None,
    backend: str = "reference",
) -> SearchResult:
    """Plan a collision-free 2D route; thin wrapper over Weighted A*.

    ``backend="array"`` precomputes one full-grid footprint-collision
    mask per heading (a move's heading is fixed by its direction, so
    there are exactly 8) and runs the flat-array search core over them
    — identical successor sets, costs, paths, and search counters; the
    per-move scalar footprint test becomes a flat-array read.
    """
    if backend not in ("reference", "array"):
        raise ValueError(
            f"backend must be 'reference' or 'array', got {backend!r}"
        )
    if backend == "array":
        return _plan_2d_array(
            grid, start, goal, robot_length, robot_width, epsilon=epsilon,
            profiler=profiler, max_expansions=max_expansions,
        )
    space = GridPlanningSpace2D(
        grid, goal, robot_length, robot_width, profiler=profiler
    )
    return weighted_astar(
        space, start, epsilon=epsilon, profiler=space.profiler,
        max_expansions=max_expansions,
    )


def heading_blocked_masks(
    grid: OccupancyGrid2D,
    body_points: np.ndarray,
    profiler: Optional[PhaseProfiler] = None,
) -> np.ndarray:
    """Per-heading destination-invalid tables for the canonical 8 moves.

    Returns one ``(8, (rows + 2) * (cols + 2))`` uint8 block.  Row ``i``
    is move ``_MOVES[i]``'s flat table over the grid with a one-cell halo
    (laid out as :func:`repro.search.grid_core.pad_blocked_2d`): an
    interior entry is 1 when the robot
    footprint, oriented along the move and placed at that cell's center,
    hits an obstacle — the same verdict
    ``GridPlanningSpace2D.state_collides`` computes per candidate move,
    evaluated for every cell of the grid by one
    :func:`oriented_footprint_grid_mask` call per heading — and the halo
    is 1.  ``collision_cell_checks`` counts the full precompute (rows x
    cols x 8 poses), so it is *not* comparable with the reference
    backend's on-demand count; the search counters (expansions, pushes,
    pops) are.
    """
    prof = profiler if profiler is not None else PhaseProfiler()
    rows, cols = grid.rows, grid.cols
    with prof.phase("collision"):
        block = np.ones((len(_MOVES), rows + 2, cols + 2), dtype=np.uint8)
        for table, (dr, dc) in zip(block, _MOVES):
            table[1:-1, 1:-1] = oriented_footprint_grid_mask(
                grid, math.atan2(dr, dc), body_points, count=prof.count
            )
        return block.reshape(len(_MOVES), -1)


def _plan_2d_array(
    grid: OccupancyGrid2D,
    start: Tuple[int, int],
    goal: Tuple[int, int],
    robot_length: float = 4.8,
    robot_width: float = 1.8,
    epsilon: float = 1.0,
    profiler: Optional[PhaseProfiler] = None,
    max_expansions: Optional[int] = None,
) -> SearchResult:
    """pp2d on the flat-array core with precomputed heading masks."""
    prof = profiler if profiler is not None else PhaseProfiler()
    body_points = footprint_points(robot_length, robot_width, grid.resolution)
    blocked_by_move = heading_blocked_masks(grid, body_points, profiler=prof)
    with prof.phase("search"):
        flat, path = astar_grid_2d(
            grid.cells, start, goal, resolution=grid.resolution,
            epsilon=epsilon, max_expansions=max_expansions,
            blocked_by_move=blocked_by_move,
        )
    prof.count("astar_expansions", flat.expansions)
    prof.count("search_pushes", flat.pushes)
    prof.count("search_pops", flat.pops)
    return SearchResult(
        found=flat.found, path=path, cost=flat.cost,
        expansions=flat.expansions, generated=flat.generated,
    )


def far_apart_free_cells(
    grid: OccupancyGrid2D,
    rng: np.random.Generator,
    clearance_points: Optional[np.ndarray] = None,
    attempts: int = 200,
) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Pick start/goal free cells near opposite map corners.

    The paper chooses start/goal "such that the car traverses a long
    distance, observing different obstacle patterns"; this helper walks
    candidate cells outward from opposite corners until both are clear
    (footprint-clear when ``clearance_points`` is given).
    """

    def clear(cell: Tuple[int, int]) -> bool:
        if grid.cells[cell]:
            return False
        if clearance_points is None:
            return True
        x, y = grid.cell_to_world(*cell)
        return not oriented_footprint_collides(grid, x, y, 0.0, clearance_points)

    free = np.argwhere(~grid.cells)

    def find_near(target_r: int, target_c: int) -> Tuple[int, int]:
        order = np.argsort(
            np.abs(free[:, 0] - target_r) + np.abs(free[:, 1] - target_c)
        )
        for idx in order[:attempts]:
            cell = (int(free[idx][0]), int(free[idx][1]))
            if clear(cell):
                return cell
        raise RuntimeError("no clear cell found near the requested corner")

    start = find_near(int(grid.rows * 0.08), int(grid.cols * 0.08))
    goal = find_near(int(grid.rows * 0.92), int(grid.cols * 0.92))
    return start, goal


@dataclass
class Pp2dConfig(KernelConfig):
    """Configuration of the pp2d kernel."""

    rows: int = option(192, "Map height in cells", at_least=1)
    cols: int = option(192, "Map width in cells", at_least=1)
    resolution: float = option(1.0, "Cell size (m)", above=0)
    car_length: float = option(4.8, "Robot length (m)", above=0)
    car_width: float = option(1.8, "Robot width (m)", above=0)
    epsilon: float = option(1.0, "Weighted A* heuristic inflation", at_least=1)
    map_file: Optional[str] = option(
        None,
        "MovingAI .map file (e.g. Boston_1_1024.map); overrides the "
        "procedural city",
    )


@dataclass
class Pp2dWorkload:
    """Map plus endpoints for one planning query."""

    grid: OccupancyGrid2D
    start: Tuple[int, int]
    goal: Tuple[int, int]


@registry.register
class Pp2dKernel(Kernel):
    """2D path planning across the city-like map."""

    name = "04.pp2d"
    stage = "planning"
    config_cls = Pp2dConfig
    description = "A* city navigation (collision-detection bound)"
    backends = ("reference", "array")

    def setup(self, config: Pp2dConfig) -> Pp2dWorkload:
        if config.backend == "array":
            load_core()  # builds the search core here, not in the ROI
        if config.map_file:
            from repro.envs.movingai import load_movingai

            grid = load_movingai(config.map_file, resolution=config.resolution)
        else:
            grid = city_like(
                rows=config.rows,
                cols=config.cols,
                resolution=config.resolution,
                seed=config.seed,
            )
        rng = np.random.default_rng(config.seed)
        clearance = footprint_points(
            config.car_length, config.car_length, grid.resolution
        )
        start, goal = far_apart_free_cells(grid, rng, clearance)
        return Pp2dWorkload(grid=grid, start=start, goal=goal)

    def run_roi(
        self, config: Pp2dConfig, state: Pp2dWorkload, profiler: PhaseProfiler
    ) -> SearchResult:
        return plan_2d(
            state.grid,
            state.start,
            state.goal,
            robot_length=config.car_length,
            robot_width=config.car_width,
            epsilon=config.epsilon,
            profiler=profiler,
            backend=config.backend,
        )
