"""Tests for RRT (08.rrt) and its shared machinery."""

import numpy as np
import pytest

from repro.envs.arm_maps import default_arm, map_c, map_f
from repro.harness.profiler import PhaseProfiler
from repro.planning.prm import distant_free_pair
from repro.planning.rrt import RRT, RrtConfig, RrtKernel, make_arm_workload
from repro.planning.rrt_connect import RrtConnectKernel
from repro.planning.rrt_postprocess import RrtPpKernel
from repro.planning.rrt_star import RrtStarConfig, RrtStarKernel

FAMILY = (RrtKernel, RrtStarKernel, RrtPpKernel, RrtConnectKernel)


@pytest.fixture(scope="module")
def free_setup():
    ws = map_f()
    arm = default_arm()
    rng = np.random.default_rng(0)
    start, goal = distant_free_pair(arm, ws, rng)
    return arm, ws, start, goal


def test_validation(free_setup):
    arm, ws, _, _ = free_setup
    with pytest.raises(ValueError):
        RRT(arm, ws, epsilon=0.0)
    with pytest.raises(ValueError):
        RRT(arm, ws, goal_bias=1.5)
    with pytest.raises(ValueError):
        RRT(arm, ws, backend="quantum")


def test_plan_free_space(free_setup):
    arm, ws, start, goal = free_setup
    planner = RRT(arm, ws, rng=np.random.default_rng(1))
    result = planner.plan(start, goal)
    assert result.found
    assert np.allclose(result.path[0], start)
    assert np.allclose(result.path[-1], goal)
    assert result.cost >= float(np.linalg.norm(goal - start)) - 1e-9


def test_path_steps_bounded_by_epsilon(free_setup):
    arm, ws, start, goal = free_setup
    epsilon = 0.4
    planner = RRT(arm, ws, epsilon=epsilon, goal_threshold=0.8,
                  rng=np.random.default_rng(2))
    result = planner.plan(start, goal)
    assert result.found
    steps = [
        float(np.linalg.norm(b - a))
        for a, b in zip(result.path[:-1], result.path[1:])
    ]
    # All tree extensions obey epsilon; the final goal hop obeys threshold.
    assert all(s <= 0.8 + 1e-9 for s in steps)


def test_path_is_collision_free_on_map_c():
    w = make_arm_workload(5, "map-c", seed=2)
    planner = RRT(w.arm, w.workspace, goal_threshold=0.8,
                  rng=np.random.default_rng(0), max_samples=4000)
    result = planner.plan(w.start, w.goal)
    assert result.found
    for a, b in zip(result.path[:-1], result.path[1:]):
        assert not w.workspace.edge_collides(w.arm, a, b, step=0.05)


def test_linear_and_kdtree_strategies_agree_statistically(free_setup):
    """Both backends find the same path (the kd-tree and the buffer scan)."""
    arm, ws, start, goal = free_setup
    results = [
        RRT(arm, ws, backend=backend, rng=np.random.default_rng(3)).plan(
            start, goal
        )
        for backend in ("reference", "array")
    ]
    assert all(result.found for result in results)
    assert results[0].cost == results[1].cost
    assert all(
        np.array_equal(a, b) for a, b in zip(results[0].path, results[1].path)
    )


def test_sample_budget_respected(free_setup):
    arm, ws, start, goal = free_setup
    planner = RRT(arm, ws, max_samples=5, goal_bias=0.0,
                  rng=np.random.default_rng(4))
    result = planner.plan(start, np.asarray(goal) * 0 + 99.0)  # unreachable
    assert not result.found
    assert result.samples_drawn == 5


def test_profiler_phases(free_setup):
    arm, ws, start, goal = free_setup
    prof = PhaseProfiler()
    planner = RRT(arm, ws, rng=np.random.default_rng(5), profiler=prof)
    planner.plan(start, goal)
    for phase in ("sampling", "nn_search", "collision", "extend"):
        assert phase in prof.stats, phase
    assert prof.counters.get("rrt_samples_drawn", 0) > 0


def test_goal_bias_accelerates_free_space(free_setup):
    arm, ws, start, goal = free_setup
    biased = RRT(arm, ws, goal_bias=0.3, rng=np.random.default_rng(6))
    unbiased = RRT(arm, ws, goal_bias=0.0, rng=np.random.default_rng(6))
    r_biased = biased.plan(start, goal)
    r_unbiased = unbiased.plan(start, goal)
    assert r_biased.found
    if r_unbiased.found:
        assert r_biased.samples_drawn <= r_unbiased.samples_drawn


def test_kernel_end_to_end():
    result = RrtKernel().run(RrtConfig(seed=2))
    assert result.output.found
    fr = result.profiler.fractions()
    assert fr.get("nn_search", 0) + fr.get("collision", 0) > 0.5


@pytest.mark.parametrize("field, value", [
    ("dof", 0), ("samples", 0), ("samples", -1), ("epsilon", 0.0),
    ("epsilon", float("nan")), ("bias", -0.1), ("bias", 1.5),
    ("radius", -1.0), ("gamma", 0.0), ("shortcut_iterations", -1),
    ("map", "map-x"),
])
def test_kernels_reject_bad_config_before_setup(field, value, monkeypatch):
    def no_setup(self, config):
        raise AssertionError("setup ran")

    monkeypatch.setattr(RrtKernel, "setup", no_setup)
    checked = 0
    for cls in FAMILY:
        if not hasattr(cls.config_cls(), field):
            continue
        checked += 1
        config = cls.config_cls(**{field: value})
        with pytest.raises(ValueError, match=field):
            cls().run(config)
        with pytest.raises(ValueError, match=field):
            cls().open_session(config)
    assert checked


def test_rrtstar_honors_samples():
    result = RrtStarKernel().run(RrtStarConfig(samples=40))
    assert result.output.samples_drawn == 40
    assert result.profiler.counters["rrt_samples_drawn"] == 40
