"""Kernel 06.movtar — catching a moving target (paper section V.6).

The robot pursues a target whose trajectory is known, over a 2D costmap
where every location has a traversal cost.  Planning happens in 3D —
(row, col, time) — with Weighted A*; the heuristic is precomputed with
*backward Dijkstra* over the costmap from the target's future positions,
making it environment-aware (it accounts for obstacles and cost terrain).
The paper reports the kernel's bottleneck is input-dependent: in small
environments heuristic precomputation reaches ~62% of time, in large ones
search dominates like pp3d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.envs.costmap import CostField, synthetic_costmap, target_trajectory
from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, registry
from repro.search.astar import SearchResult, weighted_astar
from repro.search.dijkstra import backward_dijkstra_grid
from repro.search.grid_core import dijkstra_grid_bucketed

_MOVES: Tuple[Tuple[int, int, float], ...] = (
    (-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
    (-1, -1, math.sqrt(2)), (-1, 1, math.sqrt(2)),
    (1, -1, math.sqrt(2)), (1, 1, math.sqrt(2)),
    (0, 0, 1.0),  # waiting in place is allowed (and costs a step)
)

State = Tuple[int, int, int]  # (row, col, time)


class MovingTargetSpace:
    """(row, col, time) search space over a cost field.

    The goal condition is interception: being at the target's cell at the
    target's own timestep.  Edge cost is the step length times the
    destination cell's location cost.  The heuristic table must already be
    inflated-ready (plain cost-to-go; Weighted A* applies epsilon).
    """

    def __init__(
        self,
        field: CostField,
        trajectory: np.ndarray,
        heuristic_table: np.ndarray,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        self.field = field
        self.trajectory = trajectory
        self.horizon = len(trajectory)
        self.h_table = heuristic_table
        self.profiler = profiler if profiler is not None else PhaseProfiler()

    def successors(self, state: State) -> Iterable[Tuple[State, float]]:
        """Moves (including waiting) one timestep forward."""
        r, c, t = state
        if t + 1 >= self.horizon:
            return
        field = self.field
        for dr, dc, step in _MOVES:
            nr, nc = r + dr, c + dc
            if not field.is_free(nr, nc):
                continue
            yield (nr, nc, t + 1), step * float(field.cost[nr, nc])

    def heuristic(self, state: State) -> float:
        """Precomputed backward-Dijkstra cost-to-go (time-independent)."""
        return float(self.h_table[state[0], state[1]])

    def is_goal(self, state: State) -> bool:
        """Interception: at the target's cell at the target's time."""
        r, c, t = state
        tr, tc = self.trajectory[min(t, self.horizon - 1)]
        return r == int(tr) and c == int(tc)


class MovingTargetPlanner:
    """Two-phase movtar planner: heuristic precompute, then WA* search."""

    def __init__(
        self,
        field: CostField,
        trajectory: np.ndarray,
        epsilon: float = 2.0,
        profiler: Optional[PhaseProfiler] = None,
        backend: str = "reference",
    ) -> None:
        if epsilon < 1.0:
            raise ValueError("epsilon must be >= 1.0")
        if backend not in ("reference", "array"):
            raise ValueError(
                f"backend must be 'reference' or 'array', got {backend!r}"
            )
        self.field = field
        self.trajectory = np.asarray(trajectory, dtype=int)
        self.epsilon = float(epsilon)
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        # The precompute's sweep: the scalar heapq reference, or the
        # bucketed batch engine on 'array' (bitwise the same table).
        self._sweep = (
            dijkstra_grid_bucketed
            if backend == "array"
            else backward_dijkstra_grid
        )
        self._h_table: Optional[np.ndarray] = None

    def precompute_heuristic(self) -> np.ndarray:
        """Backward Dijkstra from every cell the target will visit.

        Seeding all future target cells keeps the heuristic a lower bound
        on the cost to *any* interception point.
        """
        with self.profiler.phase("heuristic_precompute"):
            goals = [
                (int(r), int(c))
                for r, c in {(int(r), int(c)) for r, c in self.trajectory}
            ]
            self._h_table = self._sweep(
                self.field.cost, goals, self.field.obstacles
            )
            self.profiler.count(
                "dijkstra_cells", int(np.isfinite(self._h_table).sum())
            )
        return self._h_table

    def plan(self, start: Tuple[int, int]) -> SearchResult:
        """Plan an interception path from ``start`` at time 0."""
        if self._h_table is None:
            self.precompute_heuristic()
        space = MovingTargetSpace(
            self.field, self.trajectory, self._h_table, self.profiler
        )
        return weighted_astar(
            space,
            (int(start[0]), int(start[1]), 0),
            epsilon=self.epsilon,
            profiler=self.profiler,
        )


def free_start_far_from(
    field: CostField, cell: Tuple[int, int], rng: np.random.Generator
) -> Tuple[int, int]:
    """A free cell far (Manhattan) from ``cell`` — the pursuit start."""
    free = np.argwhere(~field.obstacles)
    dists = np.abs(free - np.asarray(cell)).sum(axis=1)
    candidates = free[dists >= np.quantile(dists, 0.8)]
    r, c = candidates[int(rng.integers(len(candidates)))]
    return int(r), int(c)


@dataclass
class MovtarConfig(KernelConfig):
    """Configuration of the movtar kernel."""

    rows: int = option(96, "Environment height in cells", at_least=1)
    cols: int = option(96, "Environment width in cells", at_least=1)
    horizon: int = option(256, "Target trajectory length (timesteps)", at_least=1)
    epsilon: float = option(2.0, "Weighted A* heuristic inflation", at_least=1)
    bumps: int = option(6, "Number of cost-terrain bumps", at_least=0)


@dataclass
class MovtarWorkload:
    """Cost field, target trajectory, and pursuit start."""

    field: CostField
    trajectory: np.ndarray
    start: Tuple[int, int]


@registry.register
class MovingTargetKernel(Kernel):
    """Moving-target pursuit over a synthetic costmap."""

    name = "06.movtar"
    stage = "planning"
    config_cls = MovtarConfig
    description = "Moving-target WA* with backward-Dijkstra heuristic"
    backends = ("reference", "array")

    def setup(self, config: MovtarConfig) -> MovtarWorkload:
        field = synthetic_costmap(
            rows=config.rows,
            cols=config.cols,
            n_bumps=config.bumps,
            seed=config.seed,
        )
        trajectory = target_trajectory(field, config.horizon, seed=config.seed)
        rng = np.random.default_rng(config.seed + 7)
        start = free_start_far_from(field, tuple(trajectory[0]), rng)
        return MovtarWorkload(field=field, trajectory=trajectory, start=start)

    def run_roi(
        self, config: MovtarConfig, state: MovtarWorkload, profiler: PhaseProfiler
    ) -> SearchResult:
        planner = MovingTargetPlanner(
            state.field,
            state.trajectory,
            epsilon=config.epsilon,
            profiler=profiler,
            backend=config.backend,
        )
        planner.precompute_heuristic()
        return planner.plan(state.start)
