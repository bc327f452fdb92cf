"""Tests for probabilistic roadmaps (07.prm)."""

import numpy as np
import pytest

from repro.envs.arm_maps import default_arm, map_c, map_f
from repro.harness.profiler import PhaseProfiler
from repro.planning.prm import (
    PrmConfig,
    PrmKernel,
    ProbabilisticRoadmap,
    distant_free_pair,
    find_free_configuration,
    select_workspace,
)


@pytest.fixture(scope="module")
def free_roadmap():
    ws = map_f()
    arm = default_arm()
    roadmap = ProbabilisticRoadmap(arm, ws, k_neighbors=6)
    roadmap.build(120, np.random.default_rng(0))
    return roadmap, arm, ws


def test_build_produces_connected_ish_graph(free_roadmap):
    roadmap, _, _ = free_roadmap
    assert roadmap.n_nodes == 120
    assert roadmap.n_edges > roadmap.n_nodes  # well connected in free space


def test_all_nodes_are_collision_free(free_roadmap):
    roadmap, arm, ws = free_roadmap
    for q in roadmap.nodes[:50]:
        assert not ws.config_collides(arm, q)


def test_edges_are_symmetric(free_roadmap):
    roadmap, _, _ = free_roadmap
    for i, adj in roadmap.edges.items():
        for j, dist in adj:
            back = [d for k, d in roadmap.edges[j] if k == i]
            assert back and back[0] == pytest.approx(dist)


def test_query_finds_path_in_free_space(free_roadmap):
    roadmap, arm, ws = free_roadmap
    rng = np.random.default_rng(5)
    start, goal = distant_free_pair(arm, ws, rng)
    result, waypoints = roadmap.query(start, goal)
    assert result.found
    assert np.allclose(waypoints[0], start)
    assert np.allclose(waypoints[-1], goal)


def test_query_rejects_colliding_endpoint():
    ws = map_c()
    arm = default_arm()
    roadmap = ProbabilisticRoadmap(arm, ws)
    roadmap.build(30, np.random.default_rng(0))
    rect = ws.obstacles[0]
    target = ((rect.xmin + rect.xmax) / 2, (rect.ymin + rect.ymax) / 2)
    angle = np.arctan2(target[1] - ws.base[1], target[0] - ws.base[0])
    colliding = np.array([angle] + [0.0] * (arm.dof - 1))
    if ws.config_collides(arm, colliding):
        with pytest.raises(ValueError, match="collides"):
            roadmap.query(colliding, roadmap.nodes[0])


def test_roadmap_path_edges_are_collision_free():
    ws = map_c()
    arm = default_arm()
    roadmap = ProbabilisticRoadmap(arm, ws, k_neighbors=8, edge_step=0.1)
    roadmap.build(250, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    start, goal = distant_free_pair(arm, ws, rng)
    result, waypoints = roadmap.query(start, goal)
    if result.found:
        for a, b in zip(waypoints[:-1], waypoints[1:]):
            assert not ws.edge_collides(arm, a, b, step=0.1)


def test_find_free_configuration_has_clearance():
    ws = map_c()
    arm = default_arm()
    rng = np.random.default_rng(3)
    q = find_free_configuration(arm, ws, rng)
    assert not ws.config_collides(arm, q)


def test_distant_free_pair_distance_bounds():
    ws = map_f()
    arm = default_arm()
    rng = np.random.default_rng(4)
    a, b = distant_free_pair(arm, ws, rng, min_distance=2.0, max_distance=4.0)
    assert 2.0 <= float(np.linalg.norm(a - b)) <= 4.0


def test_select_workspace_takes_only_the_declared_names():
    assert select_workspace("map-c").name == "Map-C"
    assert select_workspace("map-f").name == "Map-F"
    for name in ("MAP_F", "cluttered", "c", "mars"):
        with pytest.raises(ValueError, match="map-c or map-f"):
            select_workspace(name)


def test_kernel_profiles_online_phases():
    result = PrmKernel().run(PrmConfig(samples=150))
    out = result.output
    assert out["result"].found
    assert out["offline_time"] > 0.0
    # Online phases present in the ROI profiler.
    assert "search" in result.profiler.stats or "l2_norm" in result.profiler.stats


@pytest.mark.parametrize("field, value", [
    ("dof", 0), ("samples", 0), ("neighbors", 0), ("edge_step", 0.0),
    ("edge_step", -0.1), ("edge_step", float("nan")),
    ("edge_step", float("inf")), ("map", "map-x"),
])
def test_kernel_rejects_bad_config_before_setup(field, value, monkeypatch):
    def no_setup(self, config):
        raise AssertionError("setup ran")

    monkeypatch.setattr(PrmKernel, "setup", no_setup)
    config = PrmConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        PrmKernel().run(config)
    with pytest.raises(ValueError, match=field):
        PrmKernel().open_session(config)
