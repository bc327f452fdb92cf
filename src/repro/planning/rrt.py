"""Kernel 08.rrt — rapidly-exploring random trees (paper section V.8).

RRT plans for the arm in *dynamic* environments: no offline phase, the
whole tree is built online, so collision detection (up to 62% of time in
the paper) and nearest-neighbor search (up to 31%) both land on the
critical path.  The implementation profiles exactly those phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.envs.arm_maps import ArmWorkspace, default_arm
from repro.geometry.distance import path_length
from repro.geometry.kdtree import KDTree, LinearNN
from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, registry
from repro.planning.prm import WORKSPACES, distant_free_pair, select_workspace
from repro.robots.arm import PlanarArm


@dataclass
class SamplingPlanResult:
    """Outcome of a sampling-based planning run."""

    found: bool
    path: List[np.ndarray] = field(default_factory=list)
    cost: float = float("inf")
    samples_drawn: int = 0
    tree_size: int = 0

    def __bool__(self) -> bool:
        return self.found


class _Tree:
    """The planner's tree: configurations, parents, and path costs."""

    def __init__(self, dof: int, backend: str) -> None:
        self.index = KDTree(dof) if backend == "reference" else LinearNN(dof)
        self.configs: List[np.ndarray] = []
        self.parents: List[int] = []
        self.costs: List[float] = []
        self.children: List[List[int]] = []

    def __len__(self) -> int:
        return len(self.configs)

    def add(self, q: np.ndarray, parent: int, cost: float) -> int:
        idx = len(self.configs)
        self.configs.append(q)
        self.parents.append(parent)
        self.costs.append(cost)
        self.children.append([])
        if parent >= 0:
            self.children[parent].append(idx)
        self.index.insert(q, idx)
        return idx

    def reparent(self, idx: int, new_parent: int) -> None:
        """Move a node under a new parent (RRT* rewiring)."""
        old = self.parents[idx]
        if old >= 0:
            self.children[old].remove(idx)
        self.parents[idx] = new_parent
        self.children[new_parent].append(idx)

    def path_to(self, idx: int) -> List[np.ndarray]:
        path = []
        while idx >= 0:
            path.append(self.configs[idx])
            idx = self.parents[idx]
        path.reverse()
        return path


class RRT:
    """Rapidly-exploring random tree in the arm's joint space.

    ``backend`` picks the nearest-neighbor index: ``"reference"`` the
    Python :class:`KDTree`, ``"array"`` the :class:`LinearNN` buffer scan.
    Both return the same neighbors and distance bits, so plans, costs
    and every counter but ``nn_node_visits`` are identical.
    """

    def __init__(
        self,
        arm: PlanarArm,
        workspace: ArmWorkspace,
        epsilon: float = 0.5,
        goal_bias: float = 0.1,
        goal_threshold: float = 0.5,
        max_samples: int = 3000,
        edge_step: float = 0.15,
        backend: str = "reference",
        rng: Optional[np.random.Generator] = None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon (extension step) must be positive")
        if not 0.0 <= goal_bias <= 1.0:
            raise ValueError("goal_bias must be in [0, 1]")
        if backend not in ("reference", "array"):
            raise ValueError(
                f"backend must be 'reference' or 'array', got {backend!r}"
            )
        self.arm = arm
        self.workspace = workspace
        self.epsilon = float(epsilon)
        self.goal_bias = float(goal_bias)
        self.goal_threshold = float(goal_threshold)
        self.max_samples = int(max_samples)
        self.edge_step = float(edge_step)
        self.backend = backend
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.profiler = profiler if profiler is not None else PhaseProfiler()

    # -- shared helpers (also used by RRT*) --------------------------------------

    def _sample(self, goal: np.ndarray) -> np.ndarray:
        """Uniform sample with goal biasing."""
        prof = self.profiler
        with prof.phase("sampling"):
            prof.count("rrt_samples_drawn", 1)
            if self.rng.random() < self.goal_bias:
                return goal.copy()
            return self.arm.sample_configuration(self.rng)

    def _steer(self, from_q: np.ndarray, toward: np.ndarray) -> np.ndarray:
        """Move at most epsilon from ``from_q`` toward ``toward``."""
        with self.profiler.phase("extend"):
            delta = toward - from_q
            dist = float(np.linalg.norm(delta))
            if dist <= self.epsilon:
                return toward.copy()
            return from_q + delta * (self.epsilon / dist)

    def _edge_free(self, q0: np.ndarray, q1: np.ndarray) -> bool:
        """Collision check of the straight joint-space edge q0 -> q1."""
        prof = self.profiler
        with prof.phase("collision"):
            return not self.workspace.edge_collides(
                self.arm, q0, q1, step=self.edge_step, count=prof.count
            )

    def _nearest(self, tree: _Tree, q: np.ndarray) -> Tuple[int, float]:
        """Index of and distance to the tree node nearest ``q``."""
        prof = self.profiler
        with prof.phase("nn_search"):
            _, idx, dist = tree.index.nearest(q, count=prof.count)
        return idx, dist

    # -- planning ------------------------------------------------------------------

    def plan(
        self, start: np.ndarray, goal: np.ndarray
    ) -> SamplingPlanResult:
        """Grow a tree from ``start`` until it connects to ``goal``."""
        start = np.asarray(start, dtype=float)
        goal = np.asarray(goal, dtype=float)
        tree = _Tree(self.arm.dof, self.backend)
        tree.add(start, parent=-1, cost=0.0)
        samples = 0
        while samples < self.max_samples:
            samples += 1
            q_rand = self._sample(goal)
            near_idx, _ = self._nearest(tree, q_rand)
            q_new = self._steer(tree.configs[near_idx], q_rand)
            if not self._edge_free(tree.configs[near_idx], q_new):
                continue
            step = float(np.linalg.norm(q_new - tree.configs[near_idx]))
            new_idx = tree.add(
                q_new, parent=near_idx, cost=tree.costs[near_idx] + step
            )
            # Goal connection attempt.
            goal_dist = float(np.linalg.norm(q_new - goal))
            if goal_dist <= self.goal_threshold and self._edge_free(q_new, goal):
                goal_idx = tree.add(
                    goal, parent=new_idx, cost=tree.costs[new_idx] + goal_dist
                )
                path = tree.path_to(goal_idx)
                return SamplingPlanResult(
                    found=True,
                    path=path,
                    cost=path_length(np.vstack(path)),
                    samples_drawn=samples,
                    tree_size=len(tree),
                )
        return SamplingPlanResult(
            found=False, samples_drawn=samples, tree_size=len(tree)
        )


# -- kernel ---------------------------------------------------------------------------


@dataclass
class RrtConfig(KernelConfig):
    """Configuration of the rrt kernel (mirrors the paper's Fig. 20 CLI)."""

    dof: int = option(5, "Arm degrees of freedom", at_least=1)
    map: str = option(
        "map-c", "Workspace: map-c (cluttered) or map-f (free)",
        choices=tuple(WORKSPACES),
    )
    epsilon: float = option(0.5, "Epsilon (minimum movement, rad)", above=0)
    bias: float = option(
        0.1, "Random number generation bias (goal bias)",
        at_least=0, at_most=1,
    )
    samples: int = option(4000, "Maximum samples", at_least=1)
    radius: float = option(0.8, "Neighborhood distance (goal threshold)", at_least=0)


@dataclass
class ArmPlanWorkload:
    """Arm, workspace, and a start/goal configuration pair."""

    arm: PlanarArm
    workspace: ArmWorkspace
    start: np.ndarray
    goal: np.ndarray


def make_arm_workload(
    dof: int, map_name: str, seed: int
) -> ArmPlanWorkload:
    """Build the arm-planning workload shared by rrt/rrtstar/rrtpp."""
    workspace = select_workspace(map_name)
    arm = default_arm(dof=dof, size=workspace.size)
    rng = np.random.default_rng(seed)
    start, goal = distant_free_pair(arm, workspace, rng)
    return ArmPlanWorkload(arm=arm, workspace=workspace, start=start, goal=goal)


@registry.register
class RrtKernel(Kernel):
    """RRT arm planning (collision + nearest-neighbor bound).

    The base of the family's kernels: they share the workload, the
    config limits and the ``array`` tier, and differ in their planner.
    """

    name = "08.rrt"
    stage = "planning"
    config_cls = RrtConfig
    description = "RRT arm planning (collision + NN bound)"
    backends = ("reference", "array")
    planner_cls = RRT

    def setup(self, config: RrtConfig) -> ArmPlanWorkload:
        return make_arm_workload(config.dof, config.map, config.seed)

    def planner(
        self,
        config: RrtConfig,
        state: ArmPlanWorkload,
        profiler: PhaseProfiler,
        rng: Optional[np.random.Generator] = None,
        **extra,
    ) -> RRT:
        """The kernel's planner for ``config`` on ``state``'s arm and map."""
        return self.planner_cls(
            state.arm,
            state.workspace,
            epsilon=config.epsilon,
            goal_bias=config.bias,
            goal_threshold=config.radius,
            max_samples=config.samples,
            backend=config.backend,
            rng=rng if rng is not None else np.random.default_rng(config.seed),
            profiler=profiler,
            **extra,
        )

    def run_roi(
        self, config: RrtConfig, state: ArmPlanWorkload, profiler: PhaseProfiler
    ) -> SamplingPlanResult:
        return self.planner(config, state, profiler).plan(state.start, state.goal)
