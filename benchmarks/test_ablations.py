"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not paper artifacts — these regenerate the trade-off numbers behind the
suite's own implementation decisions (NN index, heuristic inflation,
particle density, ICP matcher, roadmap sizing, bidirectional search,
ray-cast method).
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.experiments.ablations import (
    ablate_bidirectional,
    ablate_bo_acquisition,
    ablate_ekf_landmarks,
    ablate_epsilon,
    ablate_icp_correspondence,
    ablate_icp_metric,
    ablate_mpc_horizon,
    ablate_nn_strategy,
    ablate_particles,
    ablate_prm_roadmap,
    ablate_raycast_method,
    ablate_symbolic_heuristics,
)


def test_nn_strategy(benchmark):
    result = run_once(benchmark, ablate_nn_strategy)
    assert result.both_found
    # The KD-tree prunes: it must touch far fewer candidates.
    assert result.kdtree_visits < result.linear_visits / 2
    benchmark.extra_info["kdtree_time"] = round(result.kdtree_time, 3)
    benchmark.extra_info["linear_time"] = round(result.linear_time, 3)
    benchmark.extra_info["visit_ratio"] = round(
        result.linear_visits / max(result.kdtree_visits, 1), 1
    )


def test_epsilon_tradeoff(benchmark):
    points = run_once(benchmark, ablate_epsilon)
    costs = [p.cost for p in points]
    expansions = [p.expansions for p in points]
    # Suboptimality bound: every inflated cost within epsilon * optimal.
    optimal = costs[0]
    for p in points:
        assert p.cost <= p.epsilon * optimal + 1e-9
    # Search effort falls (weakly) as epsilon rises, and substantially
    # from plain A* to the largest inflation.
    assert expansions[-1] < expansions[0] / 2
    assert all(b <= a * 1.2 for a, b in zip(expansions[:-1], expansions[1:]))
    benchmark.extra_info["expansions"] = expansions
    benchmark.extra_info["costs"] = [round(c, 1) for c in costs]


def test_particle_scaling(benchmark):
    points = run_once(benchmark, ablate_particles)
    # Ray-cast work scales roughly linearly with particle count.
    checks = [p.raycast_checks for p in points]
    counts = [p.particles for p in points]
    ratio_low = checks[0] / counts[0]
    ratio_high = checks[-1] / counts[-1]
    assert 0.5 < ratio_high / ratio_low < 2.0
    # The densest filter converges.
    assert points[-1].spread_after < 1.0
    benchmark.extra_info["checks_per_particle"] = [
        round(c / n) for c, n in zip(checks, counts)
    ]
    benchmark.extra_info["errors"] = [round(p.error, 2) for p in points]


def test_icp_correspondence(benchmark):
    result = run_once(benchmark, ablate_icp_correspondence)
    # The same registration bit for bit on both tiers...
    assert result.both_converged_close
    assert result.translation_gap == 0
    # ...and the compiled kd-tree beats the numpy full scan (the reason
    # srec's optimized tier uses it).
    assert result.vectorized_time < result.reference_time
    benchmark.extra_info["reference_time"] = round(result.reference_time, 3)
    benchmark.extra_info["vectorized_time"] = round(result.vectorized_time, 3)


def test_prm_roadmap_size(benchmark):
    points = run_once(benchmark, ablate_prm_roadmap)
    # Bigger roadmaps succeed (the largest always must).
    assert points[-1].found
    # Offline cost grows with samples.
    assert points[-1].offline_time > points[0].offline_time
    # The online search/L2/NN share grows with roadmap size (EXPERIMENTS.md
    # deviation #2: toward the paper's search-dominated regime).
    assert points[-1].online_search_share > points[0].online_search_share
    benchmark.extra_info["search_shares"] = [
        round(p.online_search_share, 2) for p in points
    ]


def test_bidirectional(benchmark):
    result = run_once(benchmark, ablate_bidirectional)
    assert len(result.seeds) >= 3
    # RRT-Connect solves with no more samples on average.
    assert np.mean(result.connect_samples) <= np.mean(result.rrt_samples)
    benchmark.extra_info["rrt_samples"] = result.rrt_samples
    benchmark.extra_info["connect_samples"] = result.connect_samples


def test_ekf_state_scaling(benchmark):
    points = run_once(benchmark, ablate_ekf_landmarks)
    # Per-update cost grows superlinearly with landmark count: the
    # covariance algebra is O(state_dim^2)+ per observation, and more
    # landmarks also mean more observations per step.
    t_small = points[0].time_per_update
    t_large = points[-1].time_per_update
    n_ratio = points[-1].landmarks / points[0].landmarks
    assert t_large > t_small * n_ratio
    benchmark.extra_info["per_update_ms"] = [
        round(p.time_per_update * 1e3, 2) for p in points
    ]


def test_symbolic_heuristics(benchmark):
    points = run_once(benchmark, ablate_symbolic_heuristics)
    by_kind = {p.heuristic: p for p in points}
    # All three find plans of the same length on this domain (hmax and
    # goal-count are optimality-safe here; hadd happens to agree).
    lengths = {p.plan_length for p in points}
    assert len(lengths) == 1
    # The informed delete-relaxation heuristic expands far fewer nodes.
    assert by_kind["hadd"].expansions < by_kind["goal-count"].expansions / 2
    benchmark.extra_info["expansions"] = {
        p.heuristic: p.expansions for p in points
    }


def test_icp_metric(benchmark):
    result = run_once(benchmark, ablate_icp_metric)
    # Both metrics register within 2 cm...
    assert result.p2p_error < 0.02
    assert result.p2plane_error < 0.02
    # ...and point-to-plane needs no more iterations on the planar scene.
    assert result.p2plane_iterations <= result.p2p_iterations
    benchmark.extra_info["iterations"] = {
        "point_to_point": result.p2p_iterations,
        "point_to_plane": result.p2plane_iterations,
    }


def test_bo_acquisition(benchmark):
    result = run_once(benchmark, ablate_bo_acquisition)
    # Both acquisitions land within half a meter of the goal on average.
    assert result.ucb_best > -0.5
    assert result.ei_best > -0.5
    benchmark.extra_info["ucb_best"] = round(result.ucb_best, 4)
    benchmark.extra_info["ei_best"] = round(result.ei_best, 4)


def test_mpc_horizon(benchmark):
    points = run_once(benchmark, ablate_mpc_horizon)
    # Optimization cost grows with horizon length...
    assert points[-1].roi_time > points[0].roi_time * 1.5
    # ...and tracking does not get worse for it (longer lookahead sees
    # the curves earlier).
    assert points[-1].mean_error <= points[0].mean_error * 1.2
    benchmark.extra_info["mean_errors"] = [
        round(p.mean_error, 3) for p in points
    ]
    benchmark.extra_info["times"] = [round(p.roi_time, 3) for p in points]


def test_raycast_method(benchmark):
    result = run_once(benchmark, ablate_raycast_method)
    # The sampled caster only ever overshoots (it can miss a wall, never
    # invent one)...
    assert result.undershoots == 0
    # ...its typical error is within one step...
    assert result.median_disagreement <= 0.125 + 1e-9
    # ...but a small fraction of rays tunnel through thin walls crossed
    # near corners — the exact traverser exists for exactly this reason.
    assert result.tunneled_rays < result.rays * 0.1
    benchmark.extra_info["sampled_time"] = round(result.sampled_time, 3)
    benchmark.extra_info["exact_time"] = round(result.exact_time, 3)
    benchmark.extra_info["tunneled"] = (
        f"{result.tunneled_rays}/{result.rays}"
    )
    benchmark.extra_info["max_disagreement"] = round(
        result.max_disagreement, 4
    )
