"""RRT-Connect — a bidirectional extension of the rrt kernel.

Not one of the paper's sixteen kernels, but the standard algorithmic
upgrade its RRT discussion points toward (Kuffner & LaValle 2000): two
trees grow toward each other, one from the start and one from the goal,
with a greedy *connect* step that extends repeatedly toward the newest
sample.  Included as an ablation — the accompanying benchmark shows how
much of RRT's critical-path cost the bidirectional strategy removes on
the same Map-C workloads, under identical collision/NN instrumentation.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.geometry.distance import path_length
from repro.harness.runner import registry
from repro.planning.rrt import (
    RRT,
    RrtConfig,
    RrtKernel,
    SamplingPlanResult,
    _Tree,
)


class RRTConnect(RRT):
    """Bidirectional RRT with the greedy connect heuristic."""

    def plan(
        self, start: np.ndarray, goal: np.ndarray
    ) -> SamplingPlanResult:
        start = np.asarray(start, dtype=float)
        goal = np.asarray(goal, dtype=float)
        tree_a = _Tree(self.arm.dof, self.backend)
        tree_b = _Tree(self.arm.dof, self.backend)
        tree_a.add(start, parent=-1, cost=0.0)
        tree_b.add(goal, parent=-1, cost=0.0)
        a_is_start = True
        samples = 0
        while samples < self.max_samples:
            samples += 1
            q_rand = self._sample_uniform()
            new_idx = self._extend(tree_a, q_rand)
            if new_idx is not None:
                q_new = tree_a.configs[new_idx]
                reached = self._connect(tree_b, q_new)
                if reached is not None:
                    path = self._join(
                        tree_a, new_idx, tree_b, reached, a_is_start
                    )
                    return SamplingPlanResult(
                        found=True,
                        path=path,
                        cost=path_length(np.vstack(path)),
                        samples_drawn=samples,
                        tree_size=len(tree_a) + len(tree_b),
                    )
            tree_a, tree_b = tree_b, tree_a
            a_is_start = not a_is_start
        return SamplingPlanResult(
            found=False,
            samples_drawn=samples,
            tree_size=len(tree_a) + len(tree_b),
        )

    def _sample_uniform(self) -> np.ndarray:
        """Uniform sample (connect replaces goal biasing)."""
        prof = self.profiler
        with prof.phase("sampling"):
            prof.count("rrt_samples_drawn", 1)
            return self.arm.sample_configuration(self.rng)

    def _extend(self, tree: _Tree, q_target: np.ndarray) -> Optional[int]:
        """One epsilon step of ``tree`` toward ``q_target``."""
        near_idx, _ = self._nearest(tree, q_target)
        q_new = self._steer(tree.configs[near_idx], q_target)
        if not self._edge_free(tree.configs[near_idx], q_new):
            return None
        step = float(np.linalg.norm(q_new - tree.configs[near_idx]))
        return tree.add(q_new, near_idx, tree.costs[near_idx] + step)

    def _connect(self, tree: _Tree, q_target: np.ndarray) -> Optional[int]:
        """Greedily extend ``tree`` toward ``q_target`` until blocked.

        Returns the index of the node that reached ``q_target`` (within
        the goal threshold), or ``None`` if an obstacle stopped the run.
        """
        while True:
            new_idx = self._extend(tree, q_target)
            if new_idx is None:
                return None
            dist = float(np.linalg.norm(tree.configs[new_idx] - q_target))
            if dist <= 1e-9:
                return new_idx
            if dist <= self.goal_threshold and self._edge_free(
                tree.configs[new_idx], q_target
            ):
                return tree.add(
                    q_target.copy(), new_idx, tree.costs[new_idx] + dist
                )

    @staticmethod
    def _join(
        tree_a: _Tree,
        a_idx: int,
        tree_b: _Tree,
        b_idx: int,
        a_is_start: bool,
    ) -> List[np.ndarray]:
        """Stitch the two half-paths into one start-to-goal path."""
        half_a = tree_a.path_to(a_idx)  # root(a) .. meeting point
        half_b = tree_b.path_to(b_idx)  # root(b) .. meeting point
        if a_is_start:
            return half_a + half_b[::-1][1:]
        return half_b + half_a[::-1][1:]


class RrtConnectConfig(RrtConfig):
    """Configuration of the rrtconnect extension kernel."""


@registry.register
class RrtConnectKernel(RrtKernel):
    """Bidirectional RRT-Connect (extension; ablation vs 08.rrt)."""

    name = "17.rrtconnect"
    config_cls = RrtConnectConfig
    description = "RRT-Connect bidirectional planning (extension kernel)"
    planner_cls = RRTConnect
