"""Kernel 07.prm — probabilistic roadmaps for arm planning (section V.7).

High-dimensional arm planning samples the configuration space instead of
enumerating it.  PRM's *offline* phase samples collision-free
configurations and connects near neighbors into a roadmap graph; the
*online* phase (the paper's region of interest — "the online search
process ... is on the critical path") attaches the start and goal
configurations and runs A* over the roadmap, with L2-norm joint-space
distances as both edge costs and heuristic.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.envs.arm_maps import ArmWorkspace, default_arm, map_c, map_f
from repro.geometry.distance import euclidean
from repro.geometry.kdtree import KDTree
from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, registry
from repro.robots.arm import PlanarArm
from repro.search.astar import SearchResult, astar


class ProbabilisticRoadmap:
    """A PRM over an arm's joint space.

    Nodes are joint configurations (numpy vectors, stored by index);
    edges connect each node to its k nearest collision-free-reachable
    neighbors.  Build work is profiled under ``sampling`` / ``connect`` /
    ``collision``; queries under ``search`` / ``l2_norm``.
    """

    def __init__(
        self,
        arm: PlanarArm,
        workspace: ArmWorkspace,
        k_neighbors: int = 8,
        edge_step: float = 0.1,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        self.arm = arm
        self.workspace = workspace
        self.k_neighbors = int(k_neighbors)
        self.edge_step = float(edge_step)
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        self.nodes: List[np.ndarray] = []
        self.edges: Dict[int, List[Tuple[int, float]]] = {}
        self._tree = KDTree(arm.dof)

    @property
    def n_nodes(self) -> int:
        """Number of roadmap nodes."""
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        """Number of undirected roadmap edges."""
        return sum(len(adj) for adj in self.edges.values()) // 2

    # -- offline phase ---------------------------------------------------------

    def build(self, n_samples: int, rng: np.random.Generator) -> None:
        """Offline roadmap construction: sample, test, connect."""
        prof = self.profiler
        accepted: List[np.ndarray] = []
        while len(accepted) < n_samples:
            with prof.phase("sampling"):
                q = self.arm.sample_configuration(rng)
                prof.count("prm_samples_drawn", 1)
            with prof.phase("collision"):
                collides = self.workspace.config_collides(
                    self.arm, q, count=prof.count
                )
            if not collides:
                accepted.append(q)
        for q in accepted:
            self._add_and_connect(q)

    def _add_and_connect(self, q: np.ndarray) -> int:
        """Insert a configuration and wire it to its nearest neighbors."""
        prof = self.profiler
        index = len(self.nodes)
        self.nodes.append(q)
        self.edges.setdefault(index, [])
        if index > 0:
            with prof.phase("connect"):
                neighbors = self._tree.k_nearest(
                    q, min(self.k_neighbors, index), count=prof.count
                )
            for _, j, dist in neighbors:
                with prof.phase("collision"):
                    blocked = self.workspace.edge_collides(
                        self.arm,
                        q,
                        self.nodes[j],
                        step=self.edge_step,
                        count=prof.count,
                    )
                if not blocked:
                    self.edges[index].append((j, dist))
                    self.edges[j].append((index, dist))
        self._tree.insert(q, index)
        return index

    def _remove_last(self) -> None:
        """Undo the latest :meth:`_add_and_connect` (last in, first out)."""
        index = len(self.nodes) - 1
        for j, _ in self.edges.pop(index):
            # The edge to ``index`` is the newest entry on ``j``'s list.
            self.edges[j].pop()
        self.nodes.pop()
        self._tree.pop()

    # -- online phase -------------------------------------------------------------

    @contextmanager
    def attached(
        self, start: np.ndarray, goal: np.ndarray
    ) -> Iterator[Tuple[int, int]]:
        """Wire start and goal into the roadmap for one search.

        Yields their node indices.  On exit both inserts are undone, so
        nodes, edges and KD-tree are as the query found them and every
        query plans on the same roadmap.
        """
        for name, q in (("start", start), ("goal", goal)):
            if self.workspace.config_collides(self.arm, q):
                raise ValueError(f"{name} configuration collides")
        start_idx = self._add_and_connect(start)
        goal_idx = self._add_and_connect(goal)
        try:
            yield start_idx, goal_idx
        finally:
            self._remove_last()
            self._remove_last()

    def search(
        self, start_idx: int, goal_idx: int
    ) -> Tuple[SearchResult, List[np.ndarray]]:
        """A* over the roadmap between two of its nodes.

        Returns the raw search result plus the joint-space waypoints.
        """
        prof = self.profiler
        roadmap = self

        class _RoadmapSpace:
            def successors(self, state: int) -> Iterable[Tuple[int, float]]:
                return iter(roadmap.edges.get(state, ()))

            def heuristic(self, state: int) -> float:
                with prof.phase("l2_norm"):
                    prof.count("l2_norm_evals", 1)
                    return euclidean(roadmap.nodes[state], roadmap.nodes[goal_idx])

            def is_goal(self, state: int) -> bool:
                return state == goal_idx

        result = astar(_RoadmapSpace(), start_idx, profiler=prof)
        waypoints = [self.nodes[i] for i in result.path] if result.found else []
        return result, waypoints

    def query(
        self, start: np.ndarray, goal: np.ndarray
    ) -> Tuple[SearchResult, List[np.ndarray]]:
        """Online planning: attach start/goal, A* over the roadmap."""
        start = np.asarray(start, dtype=float)
        goal = np.asarray(goal, dtype=float)
        with self.attached(start, goal) as (start_idx, goal_idx):
            return self.search(start_idx, goal_idx)


def find_free_configuration(
    arm: PlanarArm,
    workspace: ArmWorkspace,
    rng: np.random.Generator,
    toward: Optional[Sequence[float]] = None,
    attempts: int = 2000,
    clearance_sigma: float = 0.2,
    clearance_checks: int = 4,
) -> np.ndarray:
    """Sample a collision-free configuration, optionally near ``toward``.

    ``clearance_checks`` random perturbations (std ``clearance_sigma``)
    must also be collision-free, so endpoints never sit in configuration-
    space pockets too narrow for the sampling planners to enter.
    """
    for _ in range(attempts):
        q = arm.sample_configuration(rng)
        if toward is not None:
            q = arm.clamp(0.5 * (q + np.asarray(toward)))
        if workspace.config_collides(arm, q):
            continue
        clear = all(
            not workspace.config_collides(
                arm, arm.clamp(q + rng.normal(0, clearance_sigma, arm.dof))
            )
            for _ in range(clearance_checks)
        )
        if clear:
            return q
    raise RuntimeError("could not sample a collision-free configuration")


def distant_free_pair(
    arm: PlanarArm,
    workspace: ArmWorkspace,
    rng: np.random.Generator,
    min_distance: float = 2.0,
    max_distance: float = 4.0,
    attempts: int = 200,
) -> Tuple[np.ndarray, np.ndarray]:
    """Two well-cleared configurations a substantial distance apart.

    Joint-space distance is kept in ``[min_distance, max_distance]``: far
    enough that the plan is non-trivial, but bounded so a 5-DoF query
    remains solvable in the paper's sample budgets (unboundedly distant
    pairs force the arm to sweep the entire workspace).
    """
    best: Optional[Tuple[np.ndarray, np.ndarray]] = None
    best_gap = float("inf")
    mid = 0.5 * (min_distance + max_distance)
    for _ in range(attempts):
        a = find_free_configuration(arm, workspace, rng)
        b = find_free_configuration(arm, workspace, rng)
        d = float(np.linalg.norm(a - b))
        gap = abs(d - mid)
        if gap < best_gap:
            best, best_gap = (a, b), gap
        if min_distance <= d <= max_distance:
            return a, b
    assert best is not None
    return best


def select_workspace(name: str) -> ArmWorkspace:
    """Map a config string (``map-c`` / ``map-f``) to a workspace."""
    key = name.strip().lower().replace("_", "-")
    if key in ("map-c", "c", "cluttered"):
        return map_c()
    if key in ("map-f", "f", "free"):
        return map_f()
    raise ValueError(f"unknown workspace {name!r} (use map-c or map-f)")


@dataclass
class PrmConfig(KernelConfig):
    """Configuration of the prm kernel."""

    dof: int = option(5, "Arm degrees of freedom")
    samples: int = option(300, "Offline roadmap samples")
    neighbors: int = option(8, "k nearest neighbors to connect")
    map: str = option("map-c", "Workspace: map-c (cluttered) or map-f (free)")
    edge_step: float = option(0.15, "Edge collision-check step (rad)")


@dataclass
class PrmWorkload:
    """A built roadmap plus a start/goal query pair."""

    roadmap: ProbabilisticRoadmap
    start: np.ndarray
    goal: np.ndarray
    offline_profiler: PhaseProfiler


@registry.register
class PrmKernel(Kernel):
    """PRM arm planning; the ROI is the online query (paper section V.7)."""

    name = "07.prm"
    stage = "planning"
    config_cls = PrmConfig
    description = "Probabilistic roadmap arm planning (search + L2 bound)"

    def setup(self, config: PrmConfig) -> PrmWorkload:
        workspace = select_workspace(config.map)
        arm = default_arm(dof=config.dof, size=workspace.size)
        rng = np.random.default_rng(config.seed)
        offline_profiler = PhaseProfiler()
        roadmap = ProbabilisticRoadmap(
            arm,
            workspace,
            k_neighbors=config.neighbors,
            edge_step=config.edge_step,
            profiler=offline_profiler,
        )
        roadmap.build(config.samples, rng)
        start, goal = distant_free_pair(arm, workspace, rng)
        return PrmWorkload(
            roadmap=roadmap,
            start=start,
            goal=goal,
            offline_profiler=offline_profiler,
        )

    def run_roi(
        self, config: PrmConfig, state: PrmWorkload, profiler: PhaseProfiler
    ) -> dict:
        # Swap in the ROI profiler so online phases are measured separately
        # from the offline build (which the paper treats as paid once).
        roadmap = state.roadmap
        roadmap.profiler = profiler
        with roadmap.attached(state.start, state.goal) as ends:
            result, waypoints = roadmap.search(*ends)
            # The graph as searched: the roadmap plus both query nodes.
            nodes, edges = roadmap.n_nodes, roadmap.n_edges
        return {
            "result": result,
            "waypoints": waypoints,
            "roadmap_nodes": nodes,
            "roadmap_edges": edges,
            "offline_time": state.offline_profiler.total_time(),
        }
