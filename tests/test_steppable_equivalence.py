"""Batch vs steppable equivalence for every converted kernel.

The steppable protocol's contract is that driving an episode one
``step()`` at a time — the per-iteration real-time path — produces
*bitwise-identical* outputs and operation counters to the pre-refactor
batch ``run_roi``.  Each converted kernel's original batch body is
frozen here verbatim (as it stood before the conversion) and compared
against both the inherited ``run_roi`` (which now drives the step loop)
and a manually stepped session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import load_all_kernels, registry

load_all_kernels()


def assert_bitwise_equal(a, b, path="output"):
    """Recursively assert two kernel outputs carry identical numbers.

    Arrays compare element-exact (no tolerance), scalars with ``==``;
    arbitrary objects (filters, controllers) recurse into ``vars()``
    with profilers skipped — they hold wall-clock timings, the one
    thing the two paths legitimately do differently.
    """
    if isinstance(a, PhaseProfiler) or isinstance(b, PhaseProfiler):
        return
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: keys differ"
        for key in a:
            assert_bitwise_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: lengths differ"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bitwise_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape, f"{path}: shapes differ"
        assert a.dtype == b.dtype, f"{path}: dtypes differ"
        assert np.array_equal(a, b, equal_nan=True), f"{path}: values differ"
    elif isinstance(a, (bool, int, float, complex, np.generic)):
        if isinstance(a, float) and np.isnan(a) and np.isnan(b):
            return
        assert a == b, f"{path}: {a!r} != {b!r}"
    elif a is None or isinstance(a, (str, bytes)):
        assert a == b, f"{path}: {a!r} != {b!r}"
    elif hasattr(a, "__dict__"):
        assert_bitwise_equal(vars(a), vars(b), f"{path}.__dict__")
    else:  # pragma: no cover - exotic output type
        assert a == b, f"{path}: {a!r} != {b!r}"


# -- frozen pre-refactor batch implementations --------------------------------


def frozen_pfl(config, state, profiler):
    from repro.perception.particle_filter import ParticleFilter

    pf = ParticleFilter(
        state.grid,
        state.lidar,
        state.motion_model,
        n_particles=config.particles,
        hit_sigma=config.hit_sigma,
        rng=np.random.default_rng(config.seed),
        profiler=profiler,
        backend=config.backend,
    )
    pf.initialize_uniform()
    spread_before = pf.spread()
    for odom, scan in zip(state.odometry, state.scans):
        pf.update(odom, scan)
    estimate = pf.estimate()
    true_final = state.true_poses[-1]
    return {
        "estimate": estimate,
        "true_pose": true_final,
        "error": estimate.distance_to(true_final),
        "spread_before": spread_before,
        "spread_after": pf.spread(),
    }


def frozen_ekfslam(config, state, profiler):
    from repro.perception.ekf_slam import EKFSlam

    slam = EKFSlam(
        n_landmarks=len(state.landmarks),
        range_sigma=config.range_sigma,
        bearing_sigma=config.bearing_sigma,
        profiler=profiler,
    )
    slam.set_pose(state.true_poses[0])
    pose_errors = []
    for (v, w), obs, true_pose in zip(
        state.controls, state.observations, state.true_poses[1:]
    ):
        slam.predict(v, w, state.dt)
        with profiler.phase("sensing"):
            pass
        slam.update(obs)
        with profiler.phase("bookkeeping"):
            pose_errors.append(slam.pose_estimate().distance_to(true_pose))
    landmark_errors = [
        float(np.linalg.norm(slam.landmark_estimate(j) - state.landmarks[j]))
        for j in range(len(state.landmarks))
        if slam.seen[j]
    ]
    return {
        "pose_errors": pose_errors,
        "final_pose_error": pose_errors[-1],
        "landmark_errors": landmark_errors,
        "mean_landmark_error": float(np.mean(landmark_errors)),
        "slam": slam,
    }


def frozen_srec(config, state, profiler):
    from repro.perception.scene_recon import SceneReconstruction

    recon = SceneReconstruction(
        icp_iterations=config.icp_iterations,
        profiler=profiler,
        backend=config.backend,
    )
    pose_errors = []
    for scan in state.scans:
        estimated = recon.integrate(scan.points)
        true = scan.true_pose
        pose_errors.append(
            float(np.linalg.norm(estimated.translation - true.translation))
        )
    return {
        "pose_errors": pose_errors,
        "final_pose_error": pose_errors[-1],
        "model_points": recon.n_points,
        "recon": recon,
    }


def frozen_mpc(config, state, profiler):
    from repro.control.mpc import ModelPredictiveController
    from repro.robots.bicycle import BicycleModel, BicycleState

    model = BicycleModel(max_speed=config.speed * 1.5)
    controller = ModelPredictiveController(
        model,
        horizon=config.horizon,
        dt=config.dt,
        iterations=config.iterations,
        profiler=profiler,
    )
    initial = BicycleState(x=0.0, y=0.0, theta=0.0, v=config.speed)
    # The pre-refactor receding-horizon loop, inlined verbatim.
    reference = state
    prof = controller.profiler
    n = len(reference) - 1
    current = initial
    driven = [initial.as_array()]
    applied = []
    errors = []
    for t in range(n):
        with prof.phase("setup"):
            window = controller._window(reference, t)
        plan = controller.solve(current, window)
        u = plan[0]
        with prof.phase("dynamics"):
            current = controller.model.step(current, u[0], u[1], controller.dt)
        driven.append(current.as_array())
        applied.append(u.copy())
        errors.append(
            float(np.hypot(current.x - reference[t + 1, 0],
                           current.y - reference[t + 1, 1]))
        )
    outcome = {
        "states": np.vstack(driven),
        "controls": np.vstack(applied) if applied else np.empty((0, 2)),
        "errors": np.array(errors),
    }
    outcome["mean_error"] = float(outcome["errors"].mean())
    outcome["max_error"] = float(outcome["errors"].max())
    return outcome


def frozen_cem(config, state, profiler):
    from repro.control.cem import CrossEntropyMethod

    cem = CrossEntropyMethod(
        reward_fn=state.reward,
        bounds=state.parameter_bounds,
        n_samples=config.samples,
        elite_fraction=config.elite_fraction,
        rng=np.random.default_rng(config.seed),
        profiler=profiler,
    )
    policy, best = cem.optimize(config.iterations)
    return {
        "policy": policy,
        "best_reward": best,
        "reward_history": cem.reward_history,
        "sample_rewards": cem.sample_rewards,
        "final_landing_error": -best,
    }


def frozen_dmp(config, state, profiler):
    from repro.control.dmp import DynamicMovementPrimitive

    dmp = DynamicMovementPrimitive(
        n_basis=config.basis, k_gain=config.k_gain, profiler=profiler
    )
    dmp.fit(state, dt=0.01)
    # The pre-refactor Euler integration loop, inlined verbatim.
    dt = config.dt
    y0 = dmp.y0.copy()
    goal = dmp.goal.copy()
    tau = dmp.tau
    steps = int(round(tau / dt)) + 1
    dims = len(y0)
    ys = np.empty((steps, dims))
    vs = np.empty((steps, dims))
    accs = np.empty((steps, dims))
    y = y0.copy()
    v = np.zeros(dims)
    s = 1.0
    with profiler.phase("integrate"):
        for t in range(steps):
            with profiler.phase("basis_eval"):
                psi = dmp._basis(np.array([s]))[0]
                denom = float(psi.sum()) + 1e-10
                f = (dmp.weights @ psi) * s / denom
                profiler.count("basis_evaluations", dmp.n_basis)
            acc = (
                dmp.k_gain * (goal - y) - dmp.d_gain * v + f
            ) / (tau * tau)
            ys[t] = y
            vs[t] = v / tau
            accs[t] = acc
            v = v + acc * dt * tau
            y = y + v * dt / tau
            s = s + (-dmp.alpha_s * s) * dt / tau
    demo_resampled = np.column_stack(
        [
            np.interp(
                np.linspace(0, 1, len(ys)),
                np.linspace(0, 1, len(state)),
                state[:, d],
            )
            for d in range(state.shape[1])
        ]
    )
    rms = float(np.sqrt(np.mean((ys - demo_resampled) ** 2)))
    return {
        "trajectory": ys,
        "velocity": vs,
        "acceleration": accs,
        "reference": demo_resampled,
        "rms_error": rms,
        "endpoint_error": float(np.linalg.norm(ys[-1] - state[-1])),
    }


#: (kernel, frozen batch fn, small-but-representative config overrides).
CASES = [
    (
        "01.pfl",
        frozen_pfl,
        dict(particles=80, beams=6, steps=4, map_rows=80, map_cols=100),
    ),
    ("02.ekfslam", frozen_ekfslam, dict(steps=20)),
    (
        "03.srec",
        frozen_srec,
        dict(frames=3, scan_points=200, scene_points=900, icp_iterations=4),
    ),
    ("14.mpc", frozen_mpc, dict(steps=8, horizon=5, iterations=2)),
    ("15.cem", frozen_cem, dict(samples=8, iterations=3)),
    ("13.dmp", frozen_dmp, dict(demo_steps=60, dt=0.02, basis=12)),
]

CASE_IDS = [case[0] for case in CASES]


def _make(name, overrides):
    cls = registry.get(name)
    kernel = cls()
    config = cls.config_cls(**overrides)
    state = kernel.setup(config)
    return kernel, config, state


@pytest.mark.parametrize("name,frozen,overrides", CASES, ids=CASE_IDS)
def test_converted_kernels_are_steppable(name, frozen, overrides):
    assert registry.get(name).is_steppable()


@pytest.mark.parametrize("name,frozen,overrides", CASES, ids=CASE_IDS)
def test_batch_run_roi_matches_frozen_implementation(
    name, frozen, overrides
):
    """Inherited ``run_roi`` (the step loop) == pre-refactor batch body."""
    kernel, config, state = _make(name, overrides)
    batch_prof = PhaseProfiler()
    frozen_prof = PhaseProfiler()
    got = kernel.run_roi(config, state, batch_prof)
    want = frozen(config, state, frozen_prof)
    assert_bitwise_equal(got, want)
    assert batch_prof.counters == frozen_prof.counters


@pytest.mark.parametrize("name,frozen,overrides", CASES, ids=CASE_IDS)
def test_manual_stepping_matches_frozen_implementation(
    name, frozen, overrides
):
    """Driving the session step by step == pre-refactor batch body."""
    kernel, config, state = _make(name, overrides)
    session = kernel.open_session(config, state=state)
    steps = 0
    while not session.exhausted:
        session.step()
        steps += 1
    assert steps == session.total_steps > 1
    got = session.finish()
    frozen_prof = PhaseProfiler()
    want = frozen(config, state, frozen_prof)
    assert_bitwise_equal(got, want)
    assert session.profiler.counters == frozen_prof.counters


#: Small configurations for every registered kernel: a reopened session
#: over one workload must replay the first episode exactly.
REPLAY_CONFIGS = {
    **{name: overrides for name, _, overrides in CASES},
    "04.pp2d": dict(rows=64, cols=64),
    "05.pp3d": dict(nx=32, ny=32, nz=8),
    "06.movtar": dict(rows=32, cols=32, horizon=64),
    "07.prm": dict(samples=60),
    "08.rrt": dict(samples=200),
    "09.rrtstar": dict(samples=150),
    "10.rrtpp": dict(samples=200, shortcut_iterations=10),
    "11.sym-blkw": dict(blocks=3),
    "12.sym-fext": dict(locations=3),
    "16.bo": dict(iterations=4, candidates=64),
    "17.rrtconnect": dict(samples=200),
}

REPLAY_CASES = [
    (name, backend)
    for name in registry.names()
    for backend in registry.get(name).backends
]


@pytest.mark.parametrize(
    "name,backend",
    REPLAY_CASES,
    ids=[
        name if backend == "reference" else f"{name}-{backend}"
        for name, backend in REPLAY_CASES
    ],
)
def test_reopened_session_replays_the_episode(name, backend):
    """A second episode over the same state reproduces the first."""
    kernel, config, state = _make(
        name, dict(REPLAY_CONFIGS[name], backend=backend)
    )
    first = kernel.open_session(config, state=state)
    while not first.exhausted:
        first.step()
    first_output = first.finish()
    second = kernel.open_session(config, state=state)
    while not second.exhausted:
        second.step()
    assert_bitwise_equal(second.finish(), first_output)
    assert second.profiler.counters == first.profiler.counters
