"""Kernel 10.rrtpp — RRT with shortcutting post-processing (section V.10).

Runs baseline RRT, then repeatedly tries to *shortcut* the returned path:
two nodes are connected directly whenever the straight joint-space edge
between them is collision-free (the triangle inequality guarantees this
never lengthens the path).  The paper finds rrtpp's run time and path
cost land between RRT and RRT*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.envs.arm_maps import ArmWorkspace
from repro.geometry.distance import path_length
from repro.harness.config import option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import registry
from repro.planning.rrt import (
    ArmPlanWorkload,
    RrtConfig,
    RrtKernel,
    SamplingPlanResult,
)
from repro.robots.arm import PlanarArm


def shortcut_path(
    arm: PlanarArm,
    workspace: ArmWorkspace,
    path: List[np.ndarray],
    iterations: int = 100,
    edge_step: float = 0.15,
    rng: Optional[np.random.Generator] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> List[np.ndarray]:
    """Iteratively shortcut a joint-space path.

    Each iteration picks two random non-adjacent waypoints and splices
    them together if the direct edge is collision-free.  All edge checks
    are charged to the ``collision`` phase nested inside ``shortcut``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    prof = profiler if profiler is not None else PhaseProfiler()
    current = [np.asarray(q, dtype=float) for q in path]
    with prof.phase("shortcut"):
        for _ in range(iterations):
            if len(current) < 3:
                break
            i = int(rng.integers(0, len(current) - 2))
            j = int(rng.integers(i + 2, len(current)))
            with prof.phase("collision"):
                blocked = workspace.edge_collides(
                    arm, current[i], current[j], step=edge_step,
                    count=prof.count,
                )
            if not blocked:
                current = current[: i + 1] + current[j:]
                prof.count("shortcuts_applied", 1)
    return current


@dataclass
class RrtPpConfig(RrtConfig):
    """Configuration of the rrtpp kernel."""

    shortcut_iterations: int = option(150, "Shortcutting attempts", at_least=0)


@registry.register
class RrtPpKernel(RrtKernel):
    """RRT + path shortcutting (between rrt and rrtstar in cost/time)."""

    name = "10.rrtpp"
    config_cls = RrtPpConfig
    description = "RRT with shortcutting post-processing"

    def run_roi(
        self, config: RrtPpConfig, state: ArmPlanWorkload, profiler: PhaseProfiler
    ) -> SamplingPlanResult:
        rng = np.random.default_rng(config.seed)
        planner = self.planner(config, state, profiler, rng=rng)
        result = planner.plan(state.start, state.goal)
        if not result.found:
            return result
        improved = shortcut_path(
            state.arm,
            state.workspace,
            result.path,
            iterations=config.shortcut_iterations,
            rng=rng,
            profiler=profiler,
        )
        return SamplingPlanResult(
            found=True,
            path=improved,
            cost=path_length(np.vstack(improved)),
            samples_drawn=result.samples_drawn,
            tree_size=result.tree_size,
        )
