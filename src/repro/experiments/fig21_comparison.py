"""Experiment F21 — the library performance comparison (paper Fig. 21).

Section VII compares the suite's optimized pp2d against PythonRobotics
and CppRobotics on the small educational map, scaled by factors 1..64.
Here both contestants run in the same interpreter: the optimized planner
(:func:`repro.planning.fast_astar.fast_grid_astar` — memoized one-shot
grid inflation plus the flat-array A* of :mod:`repro.search.grid_core`,
whose loop is compiled C, as the paper's optimized planner is) against
:class:`repro.planning.baselines.EducationalAStar` (the P-Rob/C-Rob
pathologies reproduced faithfully).  Absolute times differ
from the paper's C++-vs-Python numbers, but the comparison's structure —
orders-of-magnitude gap, growing with map scale — is what this experiment
regenerates.  Educational runs are capped at a scale where a single call
stays in benchmark-friendly territory; the paper's own P-Rob column stops
scaling for the same practical reason (7.65E3 s at x64).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.envs.mapgen import comparison_map
from repro.harness.reporting import format_table
from repro.planning.baselines import EducationalAStar, grid_to_obstacle_points
from repro.planning.fast_astar import fast_grid_astar
from repro.search.grid_core import load_core


@dataclass
class ComparisonPoint:
    """One row of the Fig. 21-(b) table."""

    scale: int
    optimized_time: float
    educational_time: Optional[float]

    @property
    def speedup(self) -> Optional[float]:
        """educational / optimized time; None when the baseline was skipped."""
        if self.educational_time is None:
            return None
        return self.educational_time / self.optimized_time


def _endpoints(scale: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """The P-Rob demo's start (10, 10) and goal (50, 50), scaled."""
    return (10 * scale, 10 * scale), (50 * scale, 50 * scale)


def run_fig21_point(
    scale: int, educational_max_scale: int = 2
) -> ComparisonPoint:
    """Run one scale of the comparison sweep (worker-process entry)."""
    base = comparison_map()
    grid = base.scaled(scale) if scale > 1 else base
    start, goal = _endpoints(scale)
    load_core()  # the first call in a fresh cache dir compiles the core
    t0 = time.perf_counter()
    result = fast_grid_astar(grid, start, goal, robot_radius=0.8)
    optimized_time = time.perf_counter() - t0
    if not result.found:
        raise RuntimeError(f"optimized planner failed at scale {scale}")
    educational_time = None
    if scale <= educational_max_scale:
        ox, oy = grid_to_obstacle_points(grid)
        planner = EducationalAStar(
            ox, oy, resolution=grid.resolution, robot_radius=0.8
        )
        sx, sy = grid.cell_to_world(*start)
        gx, gy = grid.cell_to_world(*goal)
        t0 = time.perf_counter()
        edu = planner.plan(sx, sy, gx, gy)
        educational_time = time.perf_counter() - t0
        if not edu.found:
            raise RuntimeError(
                f"educational planner failed at scale {scale}"
            )
    return ComparisonPoint(
        scale=scale,
        optimized_time=optimized_time,
        educational_time=educational_time,
    )


def run_fig21(
    scales: Optional[List[int]] = None,
    educational_max_scale: int = 2,
) -> List[ComparisonPoint]:
    """Run both planners over the scale sweep, serially.

    The educational baseline's obstacle-map rebuild is O(cells x obstacle
    points) and its open list is a linear scan, so runs beyond
    ``educational_max_scale`` are skipped (they would take minutes to
    hours, exactly the non-real-time behaviour the paper documents).

    Each point rebuilds its map independently, so the sweep order
    carries no state; ``rtrbench suite -j N --filter 'fig21:*'`` runs
    the points concurrently.
    """
    if scales is None:
        scales = [1, 2, 4, 8]
    return [
        run_fig21_point(scale, educational_max_scale) for scale in scales
    ]


def render_fig21(points: List[ComparisonPoint]) -> str:
    """Text table of the comparison sweep (Fig. 21-(b) layout)."""
    rows = []
    for p in points:
        edu = f"{p.educational_time:.3e}" if p.educational_time else "(skipped)"
        speedup = f"{p.speedup:.0f}x" if p.speedup else "-"
        rows.append([p.scale, f"{p.optimized_time:.3e}", edu, speedup])
    return format_table(
        ["scale", "optimized (s)", "educational (s)", "speedup"], rows
    )
