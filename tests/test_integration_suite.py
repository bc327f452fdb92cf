"""Suite-level integration tests: every kernel runs end to end.

Each kernel runs with a scaled-down configuration (the flexibility the
paper's Fig. 20 CLI provides) so the whole-suite check stays fast while
still executing every code path: setup, ROI, profiler, output.
"""

import numpy as np
import pytest

from repro.harness.runner import load_all_kernels, registry, run_kernel

# kernel name -> (small-config overrides, output validator)
SMALL_CONFIGS = {
    "01.pfl": dict(particles=150, beams=8, steps=5),
    "02.ekfslam": dict(steps=30),
    "03.srec": dict(frames=3, scan_points=600, scene_points=3000,
                    icp_iterations=6),
    "04.pp2d": dict(rows=96, cols=96),
    "05.pp3d": dict(nx=48, ny=48, nz=12),
    "06.movtar": dict(rows=40, cols=40, horizon=96),
    "07.prm": dict(samples=120),
    "08.rrt": dict(map="map-f", samples=2000),
    "09.rrtstar": dict(map="map-f", samples=800),
    "10.rrtpp": dict(map="map-f", samples=2000, shortcut_iterations=50),
    "11.sym-blkw": dict(blocks=4),
    "12.sym-fext": dict(locations=4),
    "13.dmp": dict(demo_steps=100, dt=0.01),
    "14.mpc": dict(steps=40),
    "15.cem": dict(iterations=3, samples=10),
    "16.bo": dict(iterations=12, candidates=128),
    "17.rrtconnect": dict(map="map-f", samples=2000),
}


@pytest.fixture(scope="module", autouse=True)
def _load():
    load_all_kernels()


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
def test_kernel_runs_and_profiles(name):
    result = run_kernel(name, **SMALL_CONFIGS[name])
    assert result.kernel == name
    assert result.roi_time > 0.0
    assert result.profiler.stats, "kernel produced no phase data"
    assert result.profiler.total_time() > 0.0
    # Fractions always partition to 1.
    assert sum(result.profiler.fractions().values()) == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
def test_kernel_is_deterministic_in_seed(name):
    if name in ("01.pfl", "03.srec"):
        pytest.skip("sub-microsecond float jitter accumulates; covered by "
                    "their dedicated module tests")
    a = run_kernel(name, seed=1, **SMALL_CONFIGS[name])
    b = run_kernel(name, seed=1, **SMALL_CONFIGS[name])
    # Compare a scalar outcome per kernel type.
    for result in (a, b):
        assert result.output is not None

    def scalar(result):
        out = result.output
        if isinstance(out, dict):
            for key in ("error", "final_pose_error", "best_reward",
                        "mean_error"):
                if key in out:
                    return out[key]
            if "result" in out:
                return out["result"].cost
            return None
        return getattr(out, "cost", None)

    sa, sb = scalar(a), scalar(b)
    if sa is not None and np.isfinite(sa):
        assert sa == pytest.approx(sb, rel=1e-6)


def test_all_registered_kernels_covered():
    assert set(SMALL_CONFIGS) == set(registry.names())


def test_stage_pipeline_composition():
    """Perception output feeds planning feeds control — the Fig. 1 pipe.

    A miniature end-to-end robot: localize on a map, plan from the
    estimated pose to a goal, then drive the planned path with the
    tracking controller.
    """
    from repro.control.mpc import ModelPredictiveController
    from repro.envs.mapgen import wean_hall_like
    from repro.perception.particle_filter import make_pfl_workload, ParticleFilter
    from repro.planning.fast_astar import fast_grid_astar
    from repro.robots.bicycle import BicycleModel, BicycleState

    workload = make_pfl_workload(region=0, n_steps=8, n_beams=12, seed=0)
    pf = ParticleFilter(
        workload.grid, workload.lidar, workload.motion_model,
        n_particles=300, rng=np.random.default_rng(0),
    )
    pf.initialize_around(workload.true_poses[0], 0.5, 0.2)
    for odom, scan in zip(workload.odometry, workload.scans):
        pf.update(odom, scan)
    estimate = pf.estimate()

    # Plan from the estimated cell to a far free cell.
    start = workload.grid.world_to_cell(estimate.x, estimate.y)
    free = np.argwhere(~workload.grid.cells)
    goal = tuple(free[np.argmax(np.abs(free - np.asarray(start)).sum(axis=1))])
    plan = fast_grid_astar(workload.grid, start, goal)
    assert plan.found

    # Track the first stretch of the planned path with MPC.
    waypoints = np.array(
        [workload.grid.cell_to_world(r, c) for r, c in plan.path[:40]]
    )
    headings = np.arctan2(
        np.gradient(waypoints[:, 1]), np.gradient(waypoints[:, 0])
    )
    speed = 1.0
    reference = np.column_stack(
        [waypoints[:, 0], waypoints[:, 1], headings,
         np.full(len(waypoints), speed)]
    )
    model = BicycleModel(wheelbase=0.3, max_speed=2.0)
    controller = ModelPredictiveController(model, horizon=8, dt=0.25)
    initial = BicycleState(
        x=waypoints[0, 0], y=waypoints[0, 1], theta=headings[0], v=speed
    )
    outcome = controller.track(initial, reference)
    assert outcome["errors"].mean() < 1.0
