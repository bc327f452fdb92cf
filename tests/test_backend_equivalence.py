"""Reference vs optimized-tier backend equivalence.

Each kernel's one optimized tier (``vectorized`` for pfl and srec,
``array`` for pp2d, pp3d and movtar) must be a drop-in replacement for
the reference hot paths: ray ranges and cell-check counters bitwise
equal (both casters run the exact traversal), collision verdicts
identical, nearest-neighbor correspondences identical, and
planner paths, costs and search counters identical.  Each test
sweeps seeded random workloads so the equivalence claim covers more than
one hand-picked map.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.envs.arm_maps import default_arm, map_f
from repro.envs.costmap import synthetic_costmap, target_trajectory
from repro.envs.mapgen import campus_like_3d, city_like, wean_hall_like
from repro.geometry.collision import (
    _footprint_index_tables,
    footprint_points,
    oriented_footprint_collides,
    oriented_footprint_grid_mask,
    oriented_footprints_collide_batch,
)
from repro.geometry.grid2d import OccupancyGrid2D
from repro.geometry.kdtree import (
    BatchKDTree,
    CertifiedNN,
    KDTree,
    LinearNN,
    _tree_distances,
)
from repro.geometry.raycast import (
    cast_ray_dda,
    cast_rays_dda_batch,
    cast_rays_dda_lockstep,
    cast_rays_march_lockstep,
)
from repro.perception.icp import icp
from repro.perception.particle_filter import (
    ParticleFilter,
    PflConfig,
    PflKernel,
)
from repro.planning.moving_target import MovingTargetPlanner
from repro.planning.pp2d import plan_2d
from repro.planning.pp3d import far_apart_free_voxels, plan_3d
from repro.planning.rrt import RRT
from repro.search.grid_core import MOVES_2D_8
from repro.sensors.lidar import Lidar


def _random_rays(grid, n, seed):
    rng = np.random.default_rng(seed)
    free = np.argwhere(~grid.cells)
    sel = free[rng.integers(0, len(free), n)]
    res = grid.resolution
    ox, oy = grid.origin
    xs = (sel[:, 1] + rng.uniform(0.2, 0.8, n)) * res + ox
    ys = (sel[:, 0] + rng.uniform(0.2, 0.8, n)) * res + oy
    angles = rng.uniform(-np.pi, np.pi, n)
    return xs, ys, angles


# -- ray casting ---------------------------------------------------------------


# The reference (lock-step numpy) and vectorized (compiled) batch casters:
# each runs cast_ray_dda's traversal, so each test below holds both to it.
_CASTERS = (cast_rays_dda_lockstep, cast_rays_dda_batch)


def _batch_cast(caster, grid, xs, ys, angles, max_range):
    """One batch caster's distances and its counter."""
    total = {"raycast_cell_checks": 0}

    def count(name, k):
        total[name] += k

    distances = caster(grid, xs, ys, angles, max_range, count=count)
    return distances, total["raycast_cell_checks"]


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_raycast_ranges_within_resolution(seed):
    """The two tiers' rays agree to the bit (so within any resolution)."""
    grid = wean_hall_like(rows=120, cols=150, resolution=0.25, seed=seed)
    xs, ys, angles = _random_rays(grid, 400, seed + 100)
    ref, ref_checks = _batch_cast(cast_rays_dda_lockstep, grid, xs, ys,
                                  angles, 12.0)
    vec, vec_checks = _batch_cast(cast_rays_dda_batch, grid, xs, ys, angles,
                                  12.0)
    assert np.array_equal(ref, vec)
    assert ref_checks == vec_checks > 0


def _scalar_dda(grid, xs, ys, angles, max_range):
    """Per-ray :func:`cast_ray_dda` distances and their summed counter."""
    total = {"raycast_cell_checks": 0}

    def count(name, k):
        total[name] += k

    distances = np.array(
        [
            cast_ray_dda(grid, x, y, a, max_range, count=count)
            for x, y, a in zip(xs, ys, angles)
        ]
    )
    return distances, total["raycast_cell_checks"]


def test_raycast_matches_scalar_dda_exactly():
    grid = wean_hall_like(rows=120, cols=150, resolution=0.25, seed=5)
    xs, ys, angles = _random_rays(grid, 300, 42)
    scalar = _scalar_dda(grid, xs, ys, angles, 12.0)
    # Both casters run the scalar traversal's own float arithmetic.
    for caster in _CASTERS:
        distances, checks = _batch_cast(caster, grid, xs, ys, angles, 12.0)
        assert np.array_equal(distances, scalar[0]), caster.__name__
        assert checks == scalar[1], caster.__name__


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 24),
    cols=st.integers(1, 24),
    density=st.floats(0.0, 0.5),
    resolution=st.sampled_from([0.1, 0.25, 0.3, 1.0]),
    origin=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    max_range=st.floats(0.05, 12.0),
)
def test_raycast_batch_matches_scalar_dda_property(
    seed, rows, cols, density, resolution, origin, max_range
):
    rng = np.random.default_rng(seed)
    grid = OccupancyGrid2D(
        rng.random((rows, cols)) < density, resolution, origin
    )
    n = 64
    # Origins cover the map and a one-cell rim outside it; a quarter of
    # the rays start on exact cell corners or run axis-parallel.
    xs = origin[0] + rng.uniform(-1.0, cols + 1.0, n) * resolution
    ys = origin[1] + rng.uniform(-1.0, rows + 1.0, n) * resolution
    xs[: n // 8] = origin[0] + rng.integers(0, cols + 1, n // 8) * resolution
    ys[: n // 8] = origin[1] + rng.integers(0, rows + 1, n // 8) * resolution
    angles = rng.uniform(-np.pi, np.pi, n)
    angles[n // 8 : n // 4] = rng.choice(
        [0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, np.pi / 4], n // 8
    )
    scalar, scalar_checks = _scalar_dda(grid, xs, ys, angles, max_range)
    for caster in _CASTERS:
        batch, batch_checks = _batch_cast(caster, grid, xs, ys, angles,
                                          max_range)
        assert np.array_equal(batch, scalar), caster.__name__
        assert batch_checks == scalar_checks, caster.__name__


def test_raycast_edge_cases_match_scalar_dda():
    grid = OccupancyGrid2D.empty(10, 12, resolution=0.5, origin=(1.0, -2.0))
    grid.cells[4, 6] = True
    # In a wall, left of the map, above the map; then from one free cell:
    # along +x with sin exactly +0.0 and -0.0 (no y border is ever
    # crossed), up, down, -x, into the wall; last, from the top-right
    # free cell out through the map corner.
    xs = np.array([4.25, 0.0, 4.25] + [3.7] * 6 + [6.99])
    ys = np.array([0.25, 0.0, 9.0] + [0.6] * 6 + [2.99])
    angles = np.array(
        [1.0, 0.3, -1.0, 0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, np.pi / 4,
         np.pi / 4]
    )
    assert np.sin(angles[3:5]).tolist() == [0.0, -0.0]
    scalar, scalar_checks = _scalar_dda(grid, xs, ys, angles, 30.0)
    for caster in _CASTERS:
        batch, batch_checks = _batch_cast(caster, grid, xs, ys, angles, 30.0)
        assert np.array_equal(batch, scalar), caster.__name__
        assert batch_checks == scalar_checks, caster.__name__
        assert batch[:3].tolist() == [0.0, 0.0, 0.0]
        assert batch[3] == batch[4] == pytest.approx(7.0 - 3.7)
        assert 0.0 < batch[-1] < 30.0


def test_raycast_empty_batch():
    grid = OccupancyGrid2D.empty(4, 4)
    for caster in _CASTERS:
        out, checks = _batch_cast(
            caster, grid, np.empty(0), np.empty(0), np.empty(0), 5.0
        )
        assert out.shape == (0,)
        assert checks == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["xs", "ys", "angles"])
def test_raycast_rejects_non_finite_input(field, bad):
    grid = OccupancyGrid2D.empty(4, 4)
    rays = {"xs": np.full(3, 1.5), "ys": np.full(3, 1.5), "angles": np.zeros(3)}
    rays[field][1] = bad
    # The world marcher shares the casters' validation.
    for caster in _CASTERS + (cast_rays_march_lockstep,):
        with pytest.raises(ValueError, match="finite"):
            caster(grid, rays["xs"], rays["ys"], rays["angles"], 5.0)


def test_raycast_work_counter_reported():
    grid = wean_hall_like(rows=120, cols=150, resolution=0.25, seed=1)
    xs, ys, angles = _random_rays(grid, 200, 9)
    _, checks = _batch_cast(cast_rays_dda_batch, grid, xs, ys, angles, 12.0)
    assert checks > 0


def test_lidar_backend_dispatch():
    grid = wean_hall_like(rows=120, cols=150, resolution=0.25, seed=2)
    lidar = Lidar(n_beams=24, max_range=12.0)
    rng = np.random.default_rng(3)
    free = np.argwhere(~grid.cells)
    sel = free[rng.integers(0, len(free), 20)]
    poses = np.column_stack(
        [
            (sel[:, 1] + 0.5) * grid.resolution,
            (sel[:, 0] + 0.5) * grid.resolution,
            rng.uniform(-np.pi, np.pi, 20),
        ]
    )
    ref = lidar.expected_ranges_batch(grid, poses, backend="reference")
    vec = lidar.expected_ranges_batch(grid, poses, backend="vectorized")
    assert ref.shape == vec.shape == (20, 24)
    assert np.array_equal(ref, vec)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    region=st.integers(0, 4),
    particles=st.integers(1, 120),
    beams=st.integers(1, 16),
    steps=st.integers(1, 5),
)
def test_pfl_tiers_bitwise_equal(seed, region, particles, beams, steps):
    """pfl's two tiers run one ray model: same output bits, same counters."""
    config = PflConfig(particles=particles, beams=beams, steps=steps,
                       region=region, seed=seed, map_rows=60, map_cols=80)
    ref = PflKernel().run(config)
    vec = PflKernel().run(config.replace(backend="vectorized"))
    assert repr(ref.output) == repr(vec.output)
    assert ref.profiler.counters == vec.profiler.counters


def test_particle_filter_rejects_unknown_backend():
    grid = wean_hall_like(rows=40, cols=50, resolution=0.5, seed=0)
    from repro.sensors.odometry import OdometryModel

    with pytest.raises(ValueError):
        ParticleFilter(
            grid, Lidar(n_beams=4), OdometryModel(), n_particles=10,
            backend="gpu",
        )


# -- collision -----------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 4, 11])
def test_footprint_batch_verdicts_identical(seed):
    grid = wean_hall_like(rows=100, cols=120, resolution=0.25, seed=seed)
    rng = np.random.default_rng(seed + 50)
    n = 300
    xs = rng.uniform(0.0, grid.width, n)
    ys = rng.uniform(0.0, grid.height, n)
    thetas = rng.uniform(-np.pi, np.pi, n)
    body = footprint_points(1.2, 0.6, grid.resolution)
    scalar = np.array(
        [
            oriented_footprint_collides(grid, x, y, t, body)
            for x, y, t in zip(xs, ys, thetas)
        ]
    )
    batch = oriented_footprints_collide_batch(grid, xs, ys, thetas, body)
    assert np.array_equal(scalar, batch)
    assert scalar.any() and not scalar.all()  # non-degenerate workload


def test_footprint_batch_counts_match_scalar():
    grid = wean_hall_like(rows=60, cols=60, resolution=0.5, seed=0)
    body = footprint_points(2.0, 1.0, grid.resolution)
    xs = np.array([5.0, 12.0, 20.0])
    ys = np.array([5.0, 12.0, 20.0])
    thetas = np.array([0.0, 1.0, 2.0])
    scalar_counts = {}
    batch_counts = {}
    for x, y, t in zip(xs, ys, thetas):
        oriented_footprint_collides(
            grid, x, y, t, body,
            count=lambda k, n: scalar_counts.__setitem__(
                k, scalar_counts.get(k, 0) + n
            ),
        )
    oriented_footprints_collide_batch(
        grid, xs, ys, thetas, body,
        count=lambda k, n: batch_counts.__setitem__(
            k, batch_counts.get(k, 0) + n
        ),
    )
    assert scalar_counts == batch_counts


_MOVE_HEADINGS = [math.atan2(dr, dc) for dr, dc in MOVES_2D_8]

# Mask builder inputs whose points all read a constant shift of the grid
# (integer resolution and origin), and inputs where most points gather
# (resolution 0.1 with a fractional origin) and a few still shift.
_ALL_SHIFT_MASK = dict(rows=12, cols=10, resolution=1.0, ox=0.0, oy=0.0,
                       length=4.8, width=1.8, theta=_MOVE_HEADINGS[4],
                       fill=0.3, seed=2)
_GATHER_MASK = dict(rows=14, cols=14, resolution=0.1, ox=0.37, oy=-1.13,
                    length=0.9, width=0.5, theta=_MOVE_HEADINGS[3],
                    fill=0.3, seed=3)


def _mask_inputs(rows, cols, resolution, ox, oy, length, width, fill, seed,
                 **_):
    rng = np.random.default_rng(seed)
    grid = OccupancyGrid2D(
        rng.random((rows, cols)) < fill, resolution, (ox, oy)
    )
    return grid, footprint_points(length, width, resolution)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 14),
    cols=st.integers(1, 14),
    resolution=st.sampled_from([0.25, 0.5, 1.0, 1.7]),
    ox=st.floats(-6.0, 6.0, allow_nan=False),
    oy=st.floats(-6.0, 6.0, allow_nan=False),
    length=st.floats(0.1, 12.0),
    width=st.floats(0.1, 12.0),
    theta=st.one_of(
        st.sampled_from(_MOVE_HEADINGS), st.floats(-2 * math.pi, 2 * math.pi)
    ),
    fill=st.floats(0.0, 0.6),
    seed=st.integers(0, 2**16),
)
@example(rows=1, cols=13, resolution=0.5, ox=-2.25, oy=0.3, length=9.0,
         width=4.0, theta=_MOVE_HEADINGS[1], fill=0.2, seed=0)
@example(rows=9, cols=1, resolution=1.7, ox=0.1, oy=-3.9, length=2.0,
         width=1.0, theta=_MOVE_HEADINGS[2], fill=0.0, seed=1)
@example(**_ALL_SHIFT_MASK)
@example(**_GATHER_MASK)
def test_grid_mask_equals_batch_at_every_cell_center(
    rows, cols, resolution, ox, oy, length, width, theta, fill, seed
):
    """The per-axis mask builder reproduces the pose batch bitwise.

    Covers 1xN and non-square grids, non-unit resolutions, negative and
    fractional origins, footprints larger than the map, both the eight
    move headings and arbitrary ones, and both ways a point's cells are
    read (shifted slice and gather); the reported
    ``collision_cell_checks`` must equal the batch's too.
    """
    grid, body = _mask_inputs(rows, cols, resolution, ox, oy, length, width,
                              fill, seed)
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    xs = ox + (cc.ravel() + 0.5) * resolution
    ys = oy + (rr.ravel() + 0.5) * resolution
    batch_counts, mask_counts = {}, {}
    batch = oriented_footprints_collide_batch(
        grid, xs, ys, np.full(xs.shape, theta), body,
        count=lambda k, n: batch_counts.__setitem__(
            k, batch_counts.get(k, 0) + n
        ),
    )
    mask = oriented_footprint_grid_mask(
        grid, theta, body,
        count=lambda k, n: mask_counts.__setitem__(
            k, mask_counts.get(k, 0) + n
        ),
    )
    assert mask.shape == (rows, cols) and mask.dtype == bool
    assert np.array_equal(mask, batch.reshape(rows, cols))
    assert mask_counts == batch_counts


def test_grid_mask_examples_take_the_slice_and_the_gather_path():
    """The two examples above run both of the mask builder's read paths."""
    def paths(example):
        grid, body = _mask_inputs(**example)
        _, _, shifted = _footprint_index_tables(grid, example["theta"], body)
        return int(shifted.sum()), int((~shifted).sum())

    sliced, gathered = paths(_ALL_SHIFT_MASK)
    assert sliced > 0 and gathered == 0
    sliced, gathered = paths(_GATHER_MASK)
    assert sliced > 0 and gathered > 0


# -- planners end to end -------------------------------------------------------


def test_planners_reject_the_removed_vectorized_tier():
    grid2 = city_like(rows=16, cols=16, seed=0)
    with pytest.raises(ValueError, match="'reference' or 'array'"):
        plan_2d(grid2, (1, 1), (14, 14), backend="vectorized")
    grid3 = campus_like_3d(nx=8, ny=8, nz=4, seed=0)
    with pytest.raises(ValueError, match="'reference' or 'array'"):
        plan_3d(grid3, (1, 1, 1), (1, 6, 6), backend="vectorized")
    field = synthetic_costmap(rows=8, cols=8, n_bumps=1, seed=0)
    traj = target_trajectory(field, length=4, seed=0)
    with pytest.raises(ValueError, match="'reference' or 'array'"):
        MovingTargetPlanner(field, traj, backend="vectorized")
    with pytest.raises(ValueError, match="'reference' or 'array'"):
        RRT(default_arm(), map_f(), backend="vectorized")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pp2d_array_backend_identical_plan(seed):
    """The flat-array core must replicate the reference plan bitwise.

    The search counters (expansions/pushes/pops) must match exactly;
    collision_cell_checks is architecturally different (the array
    backend precomputes full-grid footprint masks per heading) and is
    intentionally excluded from the comparison.
    """
    from repro.harness.profiler import PhaseProfiler
    from repro.planning.pp2d import far_apart_free_cells

    grid = city_like(rows=96, cols=96, seed=seed)
    rng = np.random.default_rng(seed)
    clearance = footprint_points(4.8, 4.8, grid.resolution)
    start, goal = far_apart_free_cells(grid, rng, clearance)
    prof_ref, prof_arr = PhaseProfiler(), PhaseProfiler()
    ref = plan_2d(grid, start, goal, profiler=prof_ref)
    arr = plan_2d(grid, start, goal, profiler=prof_arr, backend="array")
    assert arr.found == ref.found
    assert arr.path == ref.path
    assert arr.cost == ref.cost  # identical float arithmetic: bitwise
    for counter in ("astar_expansions", "search_pushes", "search_pops"):
        assert prof_arr.counters[counter] == prof_ref.counters[counter]


def test_pp2d_array_backend_identical_plan_off_unit_grid():
    """Resolution 0.5 and an off-integer origin: same plan and counters."""
    from repro.harness.profiler import PhaseProfiler
    from repro.planning.pp2d import far_apart_free_cells

    city = city_like(rows=80, cols=80, resolution=0.5, seed=4)
    grid = OccupancyGrid2D(city.cells, city.resolution, (-7.3, 12.25))
    rng = np.random.default_rng(4)
    clearance = footprint_points(2.4, 2.4, grid.resolution)
    start, goal = far_apart_free_cells(grid, rng, clearance)
    prof_ref, prof_arr = PhaseProfiler(), PhaseProfiler()
    ref = plan_2d(grid, start, goal, profiler=prof_ref)
    arr = plan_2d(grid, start, goal, profiler=prof_arr, backend="array")
    assert ref.found
    assert arr.path == ref.path
    assert arr.cost == ref.cost
    for counter in ("astar_expansions", "search_pushes", "search_pops"):
        assert prof_arr.counters[counter] == prof_ref.counters[counter]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pp3d_array_backend_identical_plan_and_counters(seed):
    from repro.harness.profiler import PhaseProfiler

    grid = campus_like_3d(nx=40, ny=40, nz=10, seed=seed)
    start, goal = far_apart_free_voxels(grid)
    prof_ref, prof_arr = PhaseProfiler(), PhaseProfiler()
    ref = plan_3d(grid, start, goal, profiler=prof_ref)
    arr = plan_3d(grid, start, goal, profiler=prof_arr, backend="array")
    assert arr.found == ref.found
    assert arr.path == ref.path
    assert arr.cost == ref.cost
    # pp3d's collision test is per-voxel in both backends, so here *all*
    # counters are comparable, collision_cell_checks included.
    assert prof_arr.counters == prof_ref.counters


def test_movtar_array_backend_identical_plan():
    from repro.harness.profiler import PhaseProfiler

    field = synthetic_costmap(rows=64, cols=64, n_bumps=6, seed=3)
    traj = target_trajectory(field, length=40, seed=3)
    prof_ref, prof_arr = PhaseProfiler(), PhaseProfiler()
    ref_planner = MovingTargetPlanner(
        field, traj, profiler=prof_ref, backend="reference"
    )
    arr_planner = MovingTargetPlanner(
        field, traj, profiler=prof_arr, backend="array"
    )
    h_ref = ref_planner.precompute_heuristic()
    h_arr = arr_planner.precompute_heuristic()
    assert np.array_equal(np.isfinite(h_ref), np.isfinite(h_arr))
    finite = np.isfinite(h_ref)
    np.testing.assert_allclose(
        h_arr[finite], h_ref[finite], rtol=0.0, atol=1e-9
    )
    start = (2, 2) if not field.obstacles[2, 2] else tuple(
        int(v) for v in np.argwhere(~field.obstacles)[0]
    )
    ref = ref_planner.plan(start)
    arr = arr_planner.plan(start)
    assert arr.found == ref.found
    assert arr.cost == pytest.approx(ref.cost, abs=1e-9)


@pytest.mark.parametrize("name, samples", [
    ("08.rrt", 1000), ("09.rrtstar", 300), ("10.rrtpp", 1000),
    ("17.rrtconnect", 1000),
])
@pytest.mark.parametrize("map_name", ["map-c", "map-f"])
def test_rrt_family_array_tier_bitwise_equal(name, samples, map_name):
    """The buffer-scan tier plans exactly as the kd-tree does.

    Cost bits, every path array, tree size, samples drawn and every
    counter but ``nn_node_visits`` (points scanned vs tree nodes
    visited) are equal, over seeds 0-5.
    """
    from repro.harness.runner import load_all_kernels, registry

    load_all_kernels()
    cls = registry.get(name)
    found = 0
    for seed in range(6):
        runs = [
            cls().run(cls.config_cls(
                seed=seed, map=map_name, samples=samples, backend=backend
            ))
            for backend in ("reference", "array")
        ]
        ref, arr = (run.output for run in runs)
        assert arr.found == ref.found
        assert arr.cost.hex() == ref.cost.hex()
        assert len(arr.path) == len(ref.path)
        assert all(
            a.tobytes() == r.tobytes() for a, r in zip(arr.path, ref.path)
        )
        assert (arr.tree_size, arr.samples_drawn) == (
            ref.tree_size, ref.samples_drawn
        )
        counters = [dict(run.profiler.counters) for run in runs]
        assert all(c.pop("nn_node_visits") > 0 for c in counters)
        assert counters[0] == counters[1]
        found += ref.found
    assert found >= 3  # the pin covers found paths, not only failures


# -- nearest neighbors / ICP ---------------------------------------------------


@pytest.mark.parametrize("seed", [0, 2])
def test_nn_batch_matches_kdtree(seed):
    rng = np.random.default_rng(seed)
    target = rng.random((600, 3))
    queries = rng.random((250, 3))
    tree = KDTree.build(target)
    idx, dist = BatchKDTree(target).query(queries)
    assert np.array_equal(idx, np.argmin(
        ((queries[:, None, :] - target[None, :, :]) ** 2).sum(axis=2), axis=1
    ))
    for i, q in enumerate(queries):
        _, payload, d = tree.nearest(q)
        # Same direct sum-of-squares arithmetic: exact equality.
        assert payload == idx[i]
        assert d == dist[i]


def _assert_brute_force_answers(target, queries):
    """The core's nearest index, nearest distance bits and second-distance
    bits equal a full scan's: ``_tree_distances`` to every target point,
    then ``argmin`` (the lowest index among equal distances)."""
    tree = BatchKDTree(target)
    idx, dist, second = tree.query_two(queries)
    idx1, dist1 = tree.query(queries)
    for i, q in enumerate(queries):
        scan = _tree_distances(np.broadcast_to(q, target.shape), target)
        want = int(np.argmin(scan))
        want_second = np.partition(scan, 1)[1] if len(scan) > 1 else np.inf
        assert idx[i] == idx1[i] == want
        assert dist[i].hex() == dist1[i].hex() == scan[want].hex()
        assert second[i].hex() == float(want_second).hex()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    duplicates=st.integers(0, 30),
    lattice=st.booleans(),
    scale=st.sampled_from([1.0, 2.0**-537]),
    offset=st.sampled_from([0.0, -3.0, 1e6]),
)
@example(seed=0, n=1, duplicates=0, lattice=False, scale=1.0, offset=0.0)
@example(seed=0, n=2, duplicates=0, lattice=False, scale=1.0, offset=1e6)
@example(seed=1, n=400, duplicates=30, lattice=True, scale=1.0, offset=0.0)
@example(seed=2, n=400, duplicates=0, lattice=False, scale=2.0**-537,
         offset=0.0)
def test_nn_core_matches_brute_force_property(
    seed, n, duplicates, lattice, scale, offset
):
    """Lattice targets put many points at equal distances from lattice
    and half-lattice queries, and every split plane through the queries
    that sit on target points; duplicates tie exactly.  At scale 2^-537
    squared gaps are deep subnormals, so ``sqrt(g*g)`` falls short of a
    gap ``g`` and distances round coarsely and tie often."""
    rng = np.random.default_rng(seed)
    if lattice:
        target = rng.integers(0, 4, size=(n, 3)) * 0.5
    else:
        target = rng.random((n, 3)) * 2.0
    target = np.vstack([target, target[rng.integers(0, n, duplicates)]])
    queries = np.vstack([
        target[rng.integers(0, len(target), 8)],
        rng.integers(0, 8, size=(8, 3)) * 0.25,
        rng.random((8, 3)) * 3.0 - 0.5,
    ])
    _assert_brute_force_answers(
        target * scale + offset, queries * scale + offset
    )


def test_nn_core_one_and_two_point_targets():
    """One point: the second distance is inf.  Two points: the origin
    ties them, and the lower index wins in either order."""
    queries = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [3.0, 1.0, 1.0]])
    one = np.array([[1.0, 2.0, 3.0]])
    assert np.isinf(BatchKDTree(one).query_two(queries)[2]).all()
    two = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    for target in (one, two, two[::-1].copy()):
        _assert_brute_force_answers(target, queries)
    idx, dist, second = BatchKDTree(two).query_two(queries[:1])
    assert (idx[0], dist[0], second[0]) == (0, 1.0, 1.0)


def _assert_same_neighbors(got, want):
    """Same payloads in the same order, equal points, equal distance bits."""
    assert [payload for _, payload, _ in got] == [
        payload for _, payload, _ in want
    ]
    for (p_got, _, d_got), (p_want, _, d_want) in zip(got, want):
        assert np.array_equal(p_got, p_want)
        assert d_got.hex() == d_want.hex()


@settings(max_examples=80, deadline=None)
@given(
    dims=st.integers(1, 7),
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    copies=st.lists(st.integers(0, 10**6), max_size=12),
    radius=st.sampled_from([0.0, 0.2, 0.7, 1.5, 4.0]),
)
def test_linear_nn_matches_kdtree_property(dims, n, seed, copies, radius):
    """Buffer scan and kd-tree agree bitwise, exact duplicates included.

    Each entry of ``copies`` re-inserts an earlier point later on, so
    ties between twins are common; queries include stored points, so
    radius 0 returns every twin of the query.
    """
    rng = np.random.default_rng(seed)
    points = list(rng.normal(size=(n, dims)))
    for c in copies:
        twin = points[c % len(points)].copy()
        points.insert(c % len(points) + 1 + int(rng.integers(0, 4)), twin)
    linear, tree = LinearNN(dims), KDTree(dims)
    for i, p in enumerate(points):
        linear.insert(p, i)
        tree.insert(p, i)
    queries = [points[int(i)] for i in rng.integers(0, len(points), 4)]
    queries += list(rng.normal(size=(3, dims)))
    for q in queries:
        scanned = []
        _assert_same_neighbors(
            [linear.nearest(q, count=lambda _, k: scanned.append(k))],
            [tree.nearest(q)],
        )
        _assert_same_neighbors(
            linear.within_radius(q, radius), tree.within_radius(q, radius)
        )
        assert scanned == [len(points)]


def test_linear_nn_ties_go_to_the_first_inserted_twin():
    """Forty twins of one point, interleaved with other points."""
    rng = np.random.default_rng(5)
    twin = rng.normal(size=3)
    linear, tree = LinearNN(3), KDTree(3)
    for i in range(120):
        p = twin if i % 3 == 0 else rng.normal(size=3)
        linear.insert(p, i)
        tree.insert(p, i)
    for radius in (0.0, 1.0):
        got = linear.within_radius(twin, radius)
        _assert_same_neighbors(got, tree.within_radius(twin, radius))
        assert [i for _, i, _ in got][:40] == list(range(0, 120, 3))
    _assert_same_neighbors([linear.nearest(twin)], [tree.nearest(twin)])
    assert linear.nearest(twin)[1] == 0


def test_nn_batch_counts_queries():
    rng = np.random.default_rng(1)
    counters = {}

    def count(name, k):
        counters[name] = counters.get(name, 0) + k

    BatchKDTree(rng.random((50, 3))).query(rng.random((20, 3)), count)
    assert counters == {"nn_queries": 20}


def test_nn_batch_rejects_empty_points():
    with pytest.raises(ValueError, match="no points"):
        BatchKDTree(np.empty((0, 3))).query(np.zeros((4, 3)))


def test_nn_batch_empty_queries_return_empty_arrays():
    idx, dist = BatchKDTree(np.ones((5, 3))).query(np.empty((0, 3)))
    assert idx.shape == (0,) and dist.shape == (0,)
    assert idx.dtype.kind == "i"


def _offset_cloud():
    rng = np.random.default_rng(4)
    target = rng.random((400, 3))
    # A slightly rotated/translated subset as the source cloud.
    angle = 0.05
    rot = np.array(
        [
            [math.cos(angle), -math.sin(angle), 0.0],
            [math.sin(angle), math.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    source = target[:300] @ rot.T + np.array([0.02, -0.01, 0.03])
    return source, target


def _assert_same_registration(a, b):
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(
        np.asarray(a.error_history), np.asarray(b.error_history)
    )
    np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)
    np.testing.assert_array_equal(
        a.transform.translation, b.transform.translation
    )


def test_icp_vectorized_identical_correspondences():
    """Vectorized ICP is pinned bitwise to the exact kd-tree reference.

    Against ``correspondence="brute"`` only the correspondences (hence
    iterations and transform) are bitwise: brute's expanded-form
    distances ``|q|^2 - 2 q.p + |p|^2`` carry cancellation error (~7e-9
    where the exact distance is ~7e-16), so its ``error_history`` is
    compared with a declared ``abs=1e-8`` tolerance.
    """
    source, target = _offset_cloud()
    kd = icp(source, target, max_iterations=10, correspondence="kdtree")
    brute = icp(source, target, max_iterations=10, correspondence="brute")
    vec = icp(source, target, max_iterations=10, backend="vectorized")
    _assert_same_registration(kd, vec)
    assert brute.iterations == vec.iterations
    np.testing.assert_array_equal(
        brute.transform.rotation, vec.transform.rotation
    )
    np.testing.assert_array_equal(
        brute.transform.translation, vec.transform.translation
    )
    assert brute.error_history == pytest.approx(vec.error_history, abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_target=st.integers(8, 160),
    angle=st.floats(-0.15, 0.15),
    shift=st.tuples(*[st.floats(-0.1, 0.1)] * 3),
)
def test_icp_vectorized_matches_kdtree_property(seed, n_target, angle, shift):
    rng = np.random.default_rng(seed)
    target = rng.random((n_target, 3))
    rot = np.array(
        [
            [math.cos(angle), 0.0, math.sin(angle)],
            [0.0, 1.0, 0.0],
            [-math.sin(angle), 0.0, math.cos(angle)],
        ]
    )
    n_source = max(4, n_target * 3 // 4)
    source = target[rng.permutation(n_target)[:n_source]] @ rot.T
    source = source + np.asarray(shift)
    kd = icp(source, target, max_iterations=6, correspondence="kdtree")
    vec = icp(source, target, max_iterations=6, backend="vectorized")
    _assert_same_registration(kd, vec)


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("cloud", ["source", "target"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_icp_rejects_non_finite_input(backend, cloud, bad):
    source, target = _offset_cloud()
    clouds = {"source": source.copy(), "target": target.copy()}
    clouds[cloud][7, 1] = bad
    for correspondence in ("kdtree", "brute"):
        with pytest.raises(ValueError, match="finite"):
            icp(
                clouds["source"], clouds["target"], backend=backend,
                correspondence=correspondence,
            )


def _rotation_z(angle):
    return np.array(
        [
            [math.cos(angle), -math.sin(angle), 0.0],
            [math.sin(angle), math.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def _converging_clouds(source, steps, angle, shift):
    """Clouds closing on ``source`` as ICP does: the pose error halves."""
    centre = source.mean(axis=0)
    return [
        (source - centre) @ _rotation_z(angle * 0.5**t).T
        + centre
        + np.asarray(shift) * 0.5**t
        for t in range(steps)
    ]


def _certified_against_fresh(target, clouds):
    """Every call's ``(idx, dist)`` equals a fresh query; returns counters."""
    tree = BatchKDTree(target)
    matcher = CertifiedNN(tree)
    counters = {}

    def count(name, k):
        counters[name] = counters.get(name, 0) + k

    for cloud in clouds:
        idx, dist = matcher.query(cloud, count=count)
        want_idx, want_dist = tree.query(cloud)
        np.testing.assert_array_equal(idx, want_idx)
        assert dist.tobytes() == want_dist.tobytes()
    assert counters["nn_queries"] + counters["nn_reused"] == sum(
        len(cloud) for cloud in clouds
    )
    return counters


def test_certified_nn_defers_exact_ties_to_the_single_query():
    """Duplicated target points tie exactly; the lowest index is the
    match, as a single-nearest query answers, and the point is never
    certified from that anchor."""
    rng = np.random.default_rng(5)
    base = rng.random((150, 3))
    target = np.vstack([base, base[:60][::-1], base[:20]])
    source = base[rng.permutation(150)[:120]]
    counters = _certified_against_fresh(
        target, _converging_clouds(source, 12, 0.2, (0.05, -0.03, 0.02))
    )
    assert counters["nn_reused"] > 0


def test_certified_nn_one_point_target():
    """k=2 on one point returns an infinite second distance."""
    rng = np.random.default_rng(6)
    source = rng.random((50, 3))
    counters = _certified_against_fresh(
        rng.random((1, 3)),
        _converging_clouds(source, 6, 0.5, (0.4, 0.1, -0.2)),
    )
    assert counters == {"nn_queries": 50, "nn_reused": 250}


def test_certified_nn_far_from_the_origin():
    """The margin scales with coordinate magnitude (a 1e6 m offset)."""
    rng = np.random.default_rng(7)
    target = rng.random((300, 3)) + 1e6
    source = target[rng.permutation(300)[:200]]
    counters = _certified_against_fresh(
        target, _converging_clouds(source, 12, 0.1, (0.03, 0.02, -0.01))
    )
    assert counters["nn_reused"] > counters["nn_queries"] // 2


def test_certified_nn_re_anchors_a_cloud_that_moves_back():
    """A cloud that jumps between two poses: each re-query moves the
    anchor, so the certificate is measured from the latest one."""
    rng = np.random.default_rng(9)
    target = rng.random((300, 3))
    here = target[rng.permutation(300)[:200]]
    there = here + np.array([0.04, -0.03, 0.02])
    counters = _certified_against_fresh(target, [here, there] * 4)
    assert counters["nn_reused"] > 0


def test_certified_nn_large_misalignment_requeries():
    rng = np.random.default_rng(8)
    target = rng.random((300, 3))
    source = target[rng.permutation(300)[:200]]
    clouds = _converging_clouds(source, 8, 2.5, (1.5, -1.0, 0.5))
    counters = _certified_against_fresh(target, clouds)
    assert counters["nn_queries"] > 4 * 200


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_target=st.integers(1, 200),
    duplicates=st.integers(0, 40),
    offset=st.sampled_from([0.0, -3.0, 1e3, 1e6]),
    angle=st.floats(-1.0, 1.0),
    shift=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
)
def test_certified_nn_matches_fresh_query_property(
    seed, n_target, duplicates, offset, angle, shift
):
    rng = np.random.default_rng(seed)
    target = rng.random((n_target, 3)) + offset
    target = np.vstack([target, target[rng.integers(0, n_target, duplicates)]])
    source = target[rng.integers(0, len(target), 60)]
    _certified_against_fresh(
        target, _converging_clouds(source, 8, angle, shift)
    )


def test_certified_nn_rejects_a_cloud_of_another_shape():
    matcher = CertifiedNN(BatchKDTree(np.eye(3)))
    matcher.query(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="shape"):
        matcher.query(np.zeros((5, 3)))


def test_icp_nn_counters_cover_every_point_iteration():
    from repro.harness.profiler import PhaseProfiler

    source, target = _offset_cloud()
    prof = PhaseProfiler()
    result = icp(source, target, max_iterations=10, backend="vectorized",
                 profiler=prof)
    total = prof.counters["nn_queries"] + prof.counters["nn_reused"]
    assert total == result.iterations * len(source)
    assert prof.counters["nn_reused"] > 0


def test_srec_nn_counters_cover_every_point_iteration():
    """One NN answer per scan point per ICP iteration (one SVD each)."""
    from repro.perception.scene_recon import SrecConfig, SrecKernel

    config = SrecConfig(backend="vectorized", frames=4, scan_points=500,
                        scene_points=3000, icp_iterations=8)
    result = SrecKernel().run(config)
    counters = result.profiler.counters
    assert counters["nn_queries"] + counters["nn_reused"] == (
        counters["svd_solves"] * config.scan_points
    )
    assert counters["nn_reused"] > 0


def test_srec_vectorized_matches_reference_on_perfbench_pool():
    """srec's optimized tier reproduces reference outputs bit for bit.

    Scenes 0-1 at 6 frames and 800 points per scan are the srec episodes
    of the benchmark's reconstruct_plan pool.
    """
    from repro.harness.profiler import PhaseProfiler
    from repro.perception.scene_recon import SrecConfig, SrecKernel

    kernel = SrecKernel()
    for seed in (0, 1):
        outputs = {}
        for backend in ("reference", "vectorized"):
            config = SrecConfig(
                backend=backend, seed=seed, frames=6, scan_points=800
            )
            outputs[backend] = kernel.run_roi(
                config, kernel.setup(config), PhaseProfiler()
            )
        ref, vec = outputs["reference"], outputs["vectorized"]
        assert ref["pose_errors"] == vec["pose_errors"]
        assert ref["model_points"] == vec["model_points"]
        np.testing.assert_array_equal(
            ref["recon"].model_points(), vec["recon"].model_points()
        )


def test_icp_rejects_unknown_backend():
    pts = np.zeros((4, 3))
    with pytest.raises(ValueError):
        icp(pts, pts, backend="fpga")
