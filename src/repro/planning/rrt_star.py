"""Kernel 09.rrtstar — asymptotically optimal RRT* (paper section V.9).

RRT* adds two operations to every RRT extension: choosing the best parent
among *near* neighbors, and *rewiring* — reconnecting near nodes through
the new sample when that shortens their path.  Both hit the
nearest-neighbor index (its share of time grows to ~49% in the paper) and
add collision checks.  The paper finds RRT* up to ~8x slower than RRT but
producing ~1.6x shorter paths on average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.geometry.distance import path_length
from repro.harness.config import option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import registry
from repro.planning.rrt import (
    RRT,
    ArmPlanWorkload,
    RrtConfig,
    RrtKernel,
    SamplingPlanResult,
    _Tree,
)


class RRTStar(RRT):
    """RRT* — RRT with best-parent selection and rewiring.

    The near-set radius shrinks as the tree grows:
    ``r(n) = gamma * (log n / n)^(1/d)`` (Karaman & Frazzoli), floored at
    the extension step so rewiring never starves.
    """

    def __init__(self, *args, gamma: float = 3.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)

    def _near_radius(self, n: int) -> float:
        d = self.arm.dof
        if n < 2:
            return self.epsilon
        return max(
            self.epsilon, self.gamma * (math.log(n) / n) ** (1.0 / d)
        )

    def _near(self, tree: _Tree, q: np.ndarray, radius: float):
        """All tree nodes within ``radius`` of ``q`` (profiled as NN work)."""
        prof = self.profiler
        with prof.phase("nn_search"):
            return tree.index.within_radius(q, radius, count=prof.count)

    def plan(
        self, start: np.ndarray, goal: np.ndarray
    ) -> SamplingPlanResult:
        """Grow an RRT* tree; keeps improving until the sample budget ends.

        Unlike RRT, finding the goal does not stop the loop — later
        samples keep rewiring the tree, so the returned path is the best
        found within ``max_samples`` (the asymptotic-optimality behaviour
        the paper measures as slower-but-shorter).
        """
        start = np.asarray(start, dtype=float)
        goal = np.asarray(goal, dtype=float)
        tree = _Tree(self.arm.dof, self.backend)
        tree.add(start, parent=-1, cost=0.0)
        goal_idx: Optional[int] = None
        samples = 0
        while samples < self.max_samples:
            samples += 1
            q_rand = self._sample(goal)
            near_idx, _ = self._nearest(tree, q_rand)
            q_new = self._steer(tree.configs[near_idx], q_rand)
            if not self._edge_free(tree.configs[near_idx], q_new):
                continue
            radius = self._near_radius(len(tree))
            near_set = self._near(tree, q_new, radius)
            # Choose the parent minimizing cost-to-come through a free edge.
            best_parent = near_idx
            best_cost = tree.costs[near_idx] + float(
                np.linalg.norm(q_new - tree.configs[near_idx])
            )
            for _, j, dist in near_set:
                if j == near_idx:
                    continue
                candidate = tree.costs[j] + dist
                if candidate < best_cost and self._edge_free(
                    tree.configs[j], q_new
                ):
                    best_parent = j
                    best_cost = candidate
            new_idx = tree.add(q_new, parent=best_parent, cost=best_cost)
            # Rewire: route near nodes through the new sample when shorter.
            for _, j, dist in near_set:
                if j in (best_parent, new_idx):
                    continue
                through_new = best_cost + dist
                if through_new < tree.costs[j] and self._edge_free(
                    q_new, tree.configs[j]
                ):
                    tree.reparent(j, new_idx)
                    self._propagate_cost(tree, j, through_new)
                    self.profiler.count("rrtstar_rewires", 1)
            # Goal connection (kept live: cost can keep improving).
            goal_dist = float(np.linalg.norm(q_new - goal))
            if goal_dist <= self.goal_threshold:
                candidate_cost = best_cost + goal_dist
                if goal_idx is None:
                    if self._edge_free(q_new, goal):
                        goal_idx = tree.add(goal, new_idx, candidate_cost)
                elif candidate_cost < tree.costs[goal_idx] and self._edge_free(
                    q_new, goal
                ):
                    tree.reparent(goal_idx, new_idx)
                    tree.costs[goal_idx] = candidate_cost
        if goal_idx is None:
            return SamplingPlanResult(
                found=False, samples_drawn=samples, tree_size=len(tree)
            )
        path = tree.path_to(goal_idx)
        return SamplingPlanResult(
            found=True,
            path=path,
            cost=path_length(np.vstack(path)),
            samples_drawn=samples,
            tree_size=len(tree),
        )

    def _propagate_cost(self, tree: _Tree, root: int, new_cost: float) -> None:
        """Update subtree costs after a rewire (children inherit the delta)."""
        delta = new_cost - tree.costs[root]
        if abs(delta) < 1e-15:
            return
        tree.costs[root] = new_cost
        stack = list(tree.children[root])
        while stack:
            idx = stack.pop()
            tree.costs[idx] += delta
            stack.extend(tree.children[idx])


@dataclass
class RrtStarConfig(RrtConfig):
    """Configuration of the rrtstar kernel."""

    gamma: float = option(3.0, "Rewiring radius scale factor", above=0)


@registry.register
class RrtStarKernel(RrtKernel):
    """RRT* arm planning (rewiring raises the NN-search share)."""

    name = "09.rrtstar"
    config_cls = RrtStarConfig
    description = "RRT* arm planning (collision + NN bound, rewiring)"
    planner_cls = RRTStar

    def run_roi(
        self,
        config: RrtStarConfig,
        state: ArmPlanWorkload,
        profiler: PhaseProfiler,
    ) -> SamplingPlanResult:
        planner = self.planner(config, state, profiler, gamma=config.gamma)
        return planner.plan(state.start, state.goal)
