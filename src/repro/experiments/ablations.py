"""Ablation studies for the suite's design choices.

The paper's characterization motivates several implementation decisions
(KD-tree nearest neighbors, inflated-heuristic search, sampled ray
casting, ICP correspondence strategy, roadmap sizing).  Each ablation
here swaps one choice and measures the consequence, so the trade-offs
DESIGN.md asserts are regenerable numbers rather than folklore.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.harness.profiler import PhaseProfiler


@dataclass
class NnStrategyAblation:
    """RRT nearest-neighbor index: KD-tree versus linear scan."""

    kdtree_time: float
    linear_time: float
    kdtree_visits: int
    linear_visits: int
    both_found: bool


def ablate_nn_strategy(seed: int = 1, samples: int = 4000) -> NnStrategyAblation:
    """Run matched hard RRT queries with both NN strategies.

    The query is drawn long (3.5-5.5 rad) so the tree grows to thousands
    of nodes — the regime where the KD-tree's pruning shows.  The
    wall-clock comparison is recorded too: numpy's vectorized linear scan
    is competitive at small n, which is itself a finding worth keeping.
    """
    from repro.envs.arm_maps import default_arm
    from repro.planning.prm import distant_free_pair, select_workspace
    from repro.planning.rrt import RRT

    workspace = select_workspace("map-c")
    arm = default_arm(size=workspace.size)
    rng = np.random.default_rng(seed)
    start, goal = distant_free_pair(
        arm, workspace, rng, min_distance=3.5, max_distance=5.5
    )
    results = {}
    for strategy, backend in (("kdtree", "reference"), ("linear", "array")):
        prof = PhaseProfiler()
        planner = RRT(
            arm,
            workspace,
            goal_bias=0.05,
            goal_threshold=0.8,
            max_samples=samples,
            backend=backend,
            rng=np.random.default_rng(seed),
            profiler=prof,
        )
        t0 = time.perf_counter()
        outcome = planner.plan(start, goal)
        results[strategy] = (
            time.perf_counter() - t0,
            prof.counters.get("nn_node_visits", 0),
            outcome.found,
        )
    return NnStrategyAblation(
        kdtree_time=results["kdtree"][0],
        linear_time=results["linear"][0],
        kdtree_visits=results["kdtree"][1],
        linear_visits=results["linear"][1],
        both_found=results["kdtree"][2] and results["linear"][2],
    )


@dataclass
class EpsilonPoint:
    """One Weighted A* inflation setting on the pp2d workload."""

    epsilon: float
    cost: float
    expansions: int


def ablate_epsilon(
    epsilons: Optional[List[float]] = None, seed: int = 0
) -> List[EpsilonPoint]:
    """Sweep WA* inflation on one pp2d query (cost vs effort trade-off)."""
    from repro.envs.mapgen import city_like
    from repro.geometry.collision import footprint_points
    from repro.planning.pp2d import far_apart_free_cells, plan_2d

    if epsilons is None:
        epsilons = [1.0, 1.5, 2.0, 3.0, 5.0]
    grid = city_like(rows=128, cols=128, seed=seed)
    rng = np.random.default_rng(seed)
    clearance = footprint_points(5.0, 5.0, grid.resolution)
    start, goal = far_apart_free_cells(grid, rng, clearance)
    points = []
    for epsilon in epsilons:
        result = plan_2d(grid, start, goal, epsilon=epsilon)
        if not result.found:
            raise RuntimeError(f"pp2d failed at epsilon={epsilon}")
        points.append(
            EpsilonPoint(
                epsilon=epsilon, cost=result.cost,
                expansions=result.expansions,
            )
        )
    return points


@dataclass
class ParticlePoint:
    """One pfl particle-count setting."""

    particles: int
    raycast_checks: int
    roi_time: float
    error: float
    spread_after: float


def ablate_particles(
    counts: Optional[List[int]] = None, seed: int = 0
) -> List[ParticlePoint]:
    """Sweep pfl's particle count.

    Ray-cast work must scale linearly with particles (each particle casts
    every beam), and localization reliability improves with density —
    the knob the paper's ray-casting-accelerator discussion turns.
    """
    from repro.harness.runner import run_kernel

    if counts is None:
        counts = [250, 500, 1000, 2000]
    points = []
    for n in counts:
        result = run_kernel(
            "pfl", particles=n, steps=20, map_rows=100, map_cols=120,
            seed=seed,
        )
        points.append(
            ParticlePoint(
                particles=n,
                raycast_checks=result.profiler.counters.get(
                    "raycast_cell_checks", 0
                ),
                roi_time=result.roi_time,
                error=result.output["error"],
                spread_after=result.output["spread_after"],
            )
        )
    return points


@dataclass
class IcpCorrespondenceAblation:
    """ICP correspondence tiers: numpy full scan vs compiled kd-tree."""

    reference_time: float
    vectorized_time: float
    translation_gap: float
    both_converged_close: bool


def ablate_icp_correspondence(seed: int = 0) -> IcpCorrespondenceAblation:
    """Same registration problem, both matchers: equal answer, different cost."""
    from repro.envs.pointcloud import living_room
    from repro.geometry.kdtree import load_core
    from repro.geometry.transforms import RigidTransform3D, rotation_matrix_3d
    from repro.perception.icp import icp

    load_core()  # compile the kd-tree core outside the timed calls
    scene = living_room(2500, seed=seed)
    true = RigidTransform3D(
        rotation_matrix_3d(0.05, -0.04, 0.06), np.array([0.06, -0.05, 0.04])
    )
    source = true.inverse().apply(scene[:800])
    outcomes = {}
    for backend in ("reference", "vectorized"):
        t0 = time.perf_counter()
        result = icp(source, scene, max_iterations=20, backend=backend)
        outcomes[backend] = (time.perf_counter() - t0, result)
    gap = float(
        np.linalg.norm(
            outcomes["reference"][1].transform.translation
            - outcomes["vectorized"][1].transform.translation
        )
    )
    close = all(
        np.linalg.norm(out.transform.translation - true.translation) < 0.02
        for _, out in outcomes.values()
    )
    return IcpCorrespondenceAblation(
        reference_time=outcomes["reference"][0],
        vectorized_time=outcomes["vectorized"][0],
        translation_gap=gap,
        both_converged_close=close,
    )


@dataclass
class RoadmapPoint:
    """One PRM roadmap-size setting."""

    samples: int
    found: bool
    cost: float
    online_search_share: float
    offline_time: float


def ablate_prm_roadmap(
    sample_counts: Optional[List[int]] = None, seed: int = 0
) -> List[RoadmapPoint]:
    """Sweep PRM roadmap size: connectivity, cost, and online breakdown."""
    from repro.harness.runner import run_kernel

    if sample_counts is None:
        sample_counts = [100, 300, 800]
    points = []
    for samples in sample_counts:
        result = run_kernel("prm", samples=samples, seed=seed)
        out = result.output
        fractions = result.profiler.fractions()
        points.append(
            RoadmapPoint(
                samples=samples,
                found=out["result"].found,
                cost=out["result"].cost,
                online_search_share=fractions.get("search", 0.0)
                + fractions.get("l2_norm", 0.0)
                + fractions.get("connect", 0.0),
                offline_time=out["offline_time"],
            )
        )
    return points


@dataclass
class BidirectionalAblation:
    """RRT vs RRT-Connect on matched queries."""

    seeds: List[int]
    rrt_samples: List[int] = field(default_factory=list)
    connect_samples: List[int] = field(default_factory=list)
    rrt_times: List[float] = field(default_factory=list)
    connect_times: List[float] = field(default_factory=list)


def ablate_bidirectional(
    seeds: Optional[List[int]] = None,
) -> BidirectionalAblation:
    """The RRT-Connect extension versus baseline RRT (samples to solve)."""
    from repro.harness.runner import run_kernel

    if seeds is None:
        seeds = [0, 1, 2, 3, 4]
    ablation = BidirectionalAblation(seeds=[])
    for seed in seeds:
        t0 = time.perf_counter()
        rrt = run_kernel("rrt", seed=seed, samples=6000)
        t_rrt = time.perf_counter() - t0
        t0 = time.perf_counter()
        connect = run_kernel("rrtconnect", seed=seed, samples=6000)
        t_connect = time.perf_counter() - t0
        if not (rrt.output.found and connect.output.found):
            continue
        ablation.seeds.append(seed)
        ablation.rrt_samples.append(rrt.output.samples_drawn)
        ablation.connect_samples.append(connect.output.samples_drawn)
        ablation.rrt_times.append(t_rrt)
        ablation.connect_times.append(t_connect)
    return ablation


@dataclass
class EkfScalingPoint:
    """One ekfslam landmark-count setting."""

    landmarks: int
    state_dim: int
    roi_time: float
    time_per_update: float


def ablate_ekf_landmarks(
    counts: Optional[List[int]] = None, seed: int = 0
) -> List[EkfScalingPoint]:
    """Sweep EKF-SLAM's landmark count.

    The paper (footnote 1) notes the matrix sizes scale with the
    measurement problem; here the joint state is 3 + 2n, and the
    covariance updates are O(state_dim^2) per observation, so per-update
    cost must grow superlinearly with n — the scaling that motivates the
    paper's near-cache-compute discussion.
    """
    from repro.harness.runner import run_kernel

    if counts is None:
        counts = [4, 8, 16, 32]
    steps = 80
    points = []
    for n in counts:
        result = run_kernel("ekfslam", landmarks=n, steps=steps, seed=seed)
        points.append(
            EkfScalingPoint(
                landmarks=n,
                state_dim=3 + 2 * n,
                roi_time=result.roi_time,
                time_per_update=result.roi_time / steps,
            )
        )
    return points


@dataclass
class SymbolicHeuristicPoint:
    """One symbolic-heuristic setting on the firefighter domain."""

    heuristic: str
    expansions: int
    plan_length: int
    time: float


def ablate_symbolic_heuristics(
    domain: str = "fext",
) -> List[SymbolicHeuristicPoint]:
    """Compare goal-count vs delete-relaxation heuristics.

    h_add pays a fixpoint per node but expands far fewer nodes; h_max is
    admissible so its plan (like goal-count's on these domains) stays
    optimal-length.
    """
    from repro.planning.symbolic.domains import blocks_world, firefighter
    from repro.planning.symbolic.planner import SymbolicPlanner

    make = firefighter if domain == "fext" else lambda: blocks_world(6)
    points = []
    for kind in ("goal-count", "hmax", "hadd"):
        problem = make()
        t0 = time.perf_counter()
        result = SymbolicPlanner(problem, heuristic=kind).plan()
        elapsed = time.perf_counter() - t0
        if not result.found:
            raise RuntimeError(f"{kind} failed on {domain}")
        points.append(
            SymbolicHeuristicPoint(
                heuristic=kind,
                expansions=result.expansions,
                plan_length=len(result.plan),
                time=elapsed,
            )
        )
    return points


@dataclass
class IcpMetricAblation:
    """Point-to-point vs point-to-plane ICP on a planar-heavy scene."""

    p2p_iterations: int
    p2plane_iterations: int
    p2p_error: float
    p2plane_error: float


def ablate_icp_metric(seed: int = 0) -> IcpMetricAblation:
    """Same registration problem under both error metrics."""
    from repro.envs.pointcloud import living_room
    from repro.geometry.transforms import RigidTransform3D, rotation_matrix_3d
    from repro.perception.icp import icp

    scene = living_room(1800, seed=seed)
    true = RigidTransform3D(
        rotation_matrix_3d(0.05, -0.04, 0.06), np.array([0.08, -0.06, 0.05])
    )
    source = true.inverse().apply(scene[:600])
    outcomes = {}
    for metric in ("point_to_point", "point_to_plane"):
        result = icp(
            source, scene, max_iterations=30, metric=metric
        )
        outcomes[metric] = (
            result.iterations,
            float(np.linalg.norm(result.transform.translation
                                 - true.translation)),
        )
    return IcpMetricAblation(
        p2p_iterations=outcomes["point_to_point"][0],
        p2plane_iterations=outcomes["point_to_plane"][0],
        p2p_error=outcomes["point_to_point"][1],
        p2plane_error=outcomes["point_to_plane"][1],
    )


@dataclass
class AcquisitionAblation:
    """BO acquisition function: UCB vs expected improvement."""

    ucb_best: float
    ei_best: float


def ablate_bo_acquisition(
    seeds: Optional[List[int]] = None,
) -> AcquisitionAblation:
    """Both acquisitions on the ball thrower, averaged over seeds."""
    from repro.harness.runner import run_kernel

    if seeds is None:
        seeds = [0, 1, 2]
    ucb = [
        run_kernel("bo", seed=s, acquisition="ucb").output["best_reward"]
        for s in seeds
    ]
    ei = [
        run_kernel("bo", seed=s, acquisition="ei").output["best_reward"]
        for s in seeds
    ]
    return AcquisitionAblation(
        ucb_best=float(np.mean(ucb)), ei_best=float(np.mean(ei))
    )


@dataclass
class MpcHorizonPoint:
    """One MPC lookahead-horizon setting."""

    horizon: int
    mean_error: float
    roi_time: float


def ablate_mpc_horizon(
    horizons: Optional[List[int]] = None, seed: int = 0
) -> List[MpcHorizonPoint]:
    """Sweep the MPC horizon: tracking quality vs optimization cost.

    Longer horizons see more of the reference (better tracking on
    curves) and pay proportionally more in the Riccati recursion — the
    knob behind the paper's "optimization takes >80%" claim.
    """
    from repro.harness.runner import run_kernel

    if horizons is None:
        horizons = [4, 8, 16, 24]
    points = []
    for horizon in horizons:
        result = run_kernel("mpc", horizon=horizon, steps=80, seed=seed)
        points.append(
            MpcHorizonPoint(
                horizon=horizon,
                mean_error=result.output["mean_error"],
                roi_time=result.roi_time,
            )
        )
    return points


@dataclass
class RaycastMethodAblation:
    """Sampled marching vs exact grid traversal.

    Key finding the ablation exists to record: the sampled caster can
    *tunnel* — a ray crossing a one-cell-thick wall near its corner may
    straddle the wall between two consecutive samples and miss the hit
    entirely, so its overshoot is NOT bounded by the step size.  The
    exact traverser visits every crossed cell and cannot tunnel.
    """

    sampled_time: float
    exact_time: float
    max_disagreement: float
    median_disagreement: float
    tunneled_rays: int
    undershoots: int
    rays: int


def ablate_raycast_method(
    n_rays: int = 400, seed: int = 0
) -> RaycastMethodAblation:
    """Compare the two ray casters on building-map rays."""
    from repro.envs.mapgen import wean_hall_like
    from repro.geometry.raycast import cast_ray, cast_ray_dda

    grid = wean_hall_like(rows=100, cols=120, seed=seed)
    rng = np.random.default_rng(seed)
    free = np.argwhere(~grid.cells)
    origins = free[rng.integers(len(free), size=n_rays)]
    angles = rng.uniform(-math.pi, math.pi, size=n_rays)
    step = grid.resolution * 0.5
    rays = []
    for (r, c), angle in zip(origins, angles):
        x, y = grid.cell_to_world(int(r), int(c))
        rays.append((x, y, float(angle)))
    t0 = time.perf_counter()
    sampled = [cast_ray(grid, x, y, a, 15.0, step=step) for x, y, a in rays]
    sampled_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    exact = [cast_ray_dda(grid, x, y, a, 15.0) for x, y, a in rays]
    exact_time = time.perf_counter() - t0
    deltas = [s - e for s, e in zip(sampled, exact)]
    return RaycastMethodAblation(
        sampled_time=sampled_time,
        exact_time=exact_time,
        max_disagreement=float(max(abs(d) for d in deltas)),
        median_disagreement=float(np.median(np.abs(deltas))),
        tunneled_rays=sum(1 for d in deltas if d > step + 1e-9),
        undershoots=sum(1 for d in deltas if d < -1e-9),
        rays=n_rays,
    )
