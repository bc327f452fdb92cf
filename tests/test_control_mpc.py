"""Tests for model predictive control (14.mpc)."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control.mpc import (
    ModelPredictiveController,
    MpcConfig,
    MpcKernel,
    reference_trajectory,
)
from repro.harness.profiler import PhaseProfiler
from repro.geometry.transforms import wrap_angle
from repro.robots.bicycle import BicycleModel, BicycleState


class FrozenBicycleModel(BicycleModel):
    """The plant as it was before the float helper, verbatim."""

    def step(self, state, a, delta, dt):
        a, delta = self.clamp_control(a, delta)
        v = max(0.0, min(self.max_speed, state.v + a * dt))
        theta = wrap_angle(
            state.theta + state.v / self.wheelbase * math.tan(delta) * dt
        )
        return BicycleState(
            x=state.x + state.v * math.cos(state.theta) * dt,
            y=state.y + state.v * math.sin(state.theta) * dt,
            theta=theta,
            v=v,
        )

    def rollout(self, state, controls, dt):
        controls = np.asarray(controls, dtype=float)
        states = np.empty((len(controls) + 1, 4))
        states[0] = state.as_array()
        current = state
        for t, (a, delta) in enumerate(controls):
            current = self.step(current, float(a), float(delta), dt)
            states[t + 1] = current.as_array()
        return states

    def jacobians(self, state, a, delta, dt):
        v, theta = state.v, state.theta
        ct, st = math.cos(theta), math.sin(theta)
        tan_d = math.tan(delta)
        A = np.array(
            [
                [1, 0, -v * st * dt, ct * dt],
                [0, 1, v * ct * dt, st * dt],
                [0, 0, 1, tan_d / self.wheelbase * dt],
                [0, 0, 0, 1],
            ]
        )
        B = np.array(
            [
                [0.0, 0.0],
                [0.0, 0.0],
                [0.0, v / (self.wheelbase * math.cos(delta) ** 2) * dt],
                [dt, 0.0],
            ]
        )
        return A, B


class FrozenController(ModelPredictiveController):
    """The matrix-form per-step solve the scalar one replaced, verbatim."""

    def solve(self, state, reference):
        prof = self.profiler
        t_len = self.horizon
        controls = np.zeros((t_len, 2))
        with prof.phase("optimize"):
            for _ in range(self.iterations):
                with prof.phase("dynamics"):
                    states = self.model.rollout(state, controls, self.dt)
                # Linearize along the nominal trajectory.
                a_mats = np.empty((t_len, 4, 4))
                b_mats = np.empty((t_len, 4, 2))
                for t in range(t_len):
                    st = BicycleState.from_array(states[t])
                    a_mats[t], b_mats[t] = self.model.jacobians(
                        st, controls[t, 0], controls[t, 1], self.dt
                    )
                # Backward Riccati pass on the error system.
                s_mat = self.q.copy()
                s_vec = self.q @ self._state_error(states[t_len], reference[t_len])
                k_gains = np.empty((t_len, 2, 4))
                k_ff = np.empty((t_len, 2))
                for t in range(t_len - 1, -1, -1):
                    a, b = a_mats[t], b_mats[t]
                    btsb = b.T @ s_mat @ b + self.r
                    inv = np.linalg.inv(btsb)
                    k_gains[t] = inv @ (b.T @ s_mat @ a)
                    k_ff[t] = inv @ (b.T @ s_vec + self.r @ controls[t])
                    a_cl = a - b @ k_gains[t]
                    s_vec = (
                        a_cl.T @ (s_vec - s_mat @ b @ k_ff[t])
                        + self.q @ self._state_error(states[t], reference[t])
                    )
                    s_mat = (
                        a_cl.T @ s_mat @ a_cl
                        + k_gains[t].T @ self.r @ k_gains[t]
                        + self.q
                    )
                    prof.count("riccati_steps", 1)
                # Forward pass: apply the affine policy, clamped.
                new_controls = np.empty_like(controls)
                current = state
                for t in range(t_len):
                    err = self._state_error(
                        current.as_array(), reference[t]
                    )
                    u = controls[t] - k_gains[t] @ err - 0.2 * k_ff[t]
                    u[0], u[1] = self.model.clamp_control(u[0], u[1])
                    new_controls[t] = u
                    with prof.phase("dynamics"):
                        current = self.model.step(
                            current, u[0], u[1], self.dt
                        )
                controls = new_controls
        return controls

    @staticmethod
    def _state_error(state, reference):
        err = state - reference
        err[2] = wrap_angle(err[2])
        return err


#: sha256 of the ``states``, ``controls`` and ``errors`` bytes of one mpc
#: kernel ROI, and its counters.  The first three are perfbench's
#: localize_track episodes; the solve does no BLAS call, so these hold
#: whatever kernel OpenBLAS picks at run time.
GOLDEN_EPISODES = {
    "speed6": (
        MpcConfig(speed=6.0),
        "2ee8297e67cd1483ae3b4eecbfa4c6b7427c4f7209a5a82d0e16210ae4e7de4b",
        {"riccati_steps": 5400},
    ),
    "speed8": (
        MpcConfig(speed=8.0),
        "fa75c5aaa859c7d6a42a271d10af6130ac2468ae7524d790dbc26f551de8ec65",
        {"riccati_steps": 5400},
    ),
    "speed10": (
        MpcConfig(speed=10.0),
        "602c6f778d2faae68adf8e68c8166b061371131cf4d6c39dd704f99c001958c6",
        {"riccati_steps": 5400},
    ),
    "short-horizon": (
        MpcConfig(steps=40, horizon=3, iterations=2, speed=8.0),
        "0bec732517ca900066d4b24407062ed3e71e8be66088532bb0eb873b03365a71",
        {"riccati_steps": 240},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EPISODES))
def test_tracking_matches_golden_digest(name):
    config, digest, counters = GOLDEN_EPISODES[name]
    kernel, prof = MpcKernel(), PhaseProfiler()
    out = kernel.run_roi(config, kernel.setup(config), prof)
    sha = hashlib.sha256()
    for key in ("states", "controls", "errors"):
        assert out[key].dtype == np.float64
        sha.update(out[key].tobytes())
    assert sha.hexdigest() == digest
    assert prof.counters == counters


#: Bound on |scalar plan - matrix plan|, fixed from rounding alone: a
#: solve makes < 10^5 float operations on values of magnitude < 10^3,
#: each rounded to within 2^-53 (~1.1e-16) of its value.  Errors of
#: either sign add up like a random walk, to ~sqrt(10^5) * 10^3 *
#: 1.1e-16 ~ 3.5e-11; 1e-9 leaves a 30x margin for their growth over
#: the iterations, far below what a wrong or missing term moves.
PLAN_ATOL = 1e-9


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.integers(1, 20),
    iterations=st.integers(1, 4),
    speed=st.floats(2.0, 12.0),
    curvature=st.floats(0.0, 0.6),
    start=st.integers(0, 20),
    dx=st.floats(-2.0, 2.0),
    dy=st.floats(-2.0, 2.0),
    dtheta=st.floats(-0.5, 0.5),
    v=st.floats(0.0, 15.0),
)
def test_solve_matches_frozen_matrix_form(
    horizon, iterations, speed, curvature, start, dx, dy, dtheta, v
):
    reference = reference_trajectory(
        n_steps=40, speed=speed, curvature=curvature
    )
    window = reference[start:start + horizon + 1]
    x, y, theta, _ = window[0].tolist()
    state = BicycleState(x + dx, y + dy, theta + dtheta, v)
    plans, counters = [], []
    for model_cls, controller_cls in (
        (BicycleModel, ModelPredictiveController),
        (FrozenBicycleModel, FrozenController),
    ):
        prof = PhaseProfiler()
        controller = controller_cls(
            model_cls(max_speed=speed * 1.5),
            horizon=horizon,
            iterations=iterations,
            profiler=prof,
        )
        plans.append(controller.solve(state, window))
        counters.append(prof.counters)
    assert plans[0].shape == (horizon, 2)
    np.testing.assert_allclose(plans[0], plans[1], rtol=0.0, atol=PLAN_ATOL)
    assert counters[0] == counters[1]


finite = st.floats(-50.0, 50.0, allow_nan=False)


@given(finite, finite, st.floats(-1.5, 1.5))
def test_jacobian_entries_equal_frozen_jacobians(theta, v, delta):
    model, frozen = BicycleModel(), FrozenBicycleModel()
    a02, a03, a12, a13, a23, b21 = model.jacobian_entries(
        theta, v, delta, 0.1
    )
    a_mat = np.eye(4)
    a_mat[0, 2], a_mat[0, 3], a_mat[1, 2] = a02, a03, a12
    a_mat[1, 3], a_mat[2, 3] = a13, a23
    b_mat = np.zeros((4, 2))
    b_mat[2, 1], b_mat[3, 0] = b21, 0.1
    state = BicycleState(0.0, 0.0, theta, v)
    for a, b in (model.jacobians(state, 0.0, delta, 0.1),
                 frozen.jacobians(state, 0.0, delta, 0.1)):
        assert a.tobytes() == a_mat.tobytes()
        assert b.tobytes() == b_mat.tobytes()


@given(finite, finite, finite, st.floats(0.0, 20.0), finite,
       st.floats(-2.0, 2.0))
def test_propagate_equals_frozen_step(x, y, theta, v, a, delta):
    model, frozen = BicycleModel(), FrozenBicycleModel()
    expected = frozen.step(BicycleState(x, y, theta, v), a, delta, 0.1)
    got = model.propagate(x, y, theta, v, a, delta, 0.1)
    assert np.array(got).tobytes() == expected.as_array().tobytes()
    assert model.step(BicycleState(x, y, theta, v), a, delta, 0.1) == expected


def test_tick_state_stays_python_float():
    # A plan row's np.float64 entries must not leak into the plant state:
    # the next tick's solve would then run in numpy-scalar arithmetic.
    controller = ModelPredictiveController(BicycleModel(), horizon=8)
    session = controller.track_begin(
        BicycleState(v=8.0), reference_trajectory(n_steps=20)
    )
    for t in range(2):
        controller.track_step(session, t)
    for field in ("x", "y", "theta", "v"):
        assert type(getattr(session.state, field)) is float, field


@settings(max_examples=40, deadline=None)
@given(
    horizon=st.integers(1, 16),
    iterations=st.integers(1, 4),
    start=st.integers(0, 20),
    dx=st.floats(-2.0, 2.0),
    dy=st.floats(-2.0, 2.0),
    dtheta=st.floats(-0.5, 0.5),
    v=st.floats(0.0, 15.0),
)
def test_solve_on_numpy_scalar_state_equals_float_state(
    horizon, iterations, start, dx, dy, dtheta, v
):
    window = reference_trajectory(n_steps=40)[start:start + horizon + 1]
    x, y, theta, _ = window[0].tolist()
    fields = (x + dx, y + dy, theta + dtheta, v)
    controller = ModelPredictiveController(
        BicycleModel(max_speed=12.0), horizon=horizon, iterations=iterations
    )
    plan = controller.solve(BicycleState(*fields), window)
    numpy_plan = controller.solve(
        BicycleState(*map(np.float64, fields)), window
    )
    assert numpy_plan.dtype == plan.dtype == np.float64
    assert numpy_plan.tobytes() == plan.tobytes()


def test_validation():
    with pytest.raises(ValueError):
        ModelPredictiveController(BicycleModel(), horizon=0)
    with pytest.raises(ValueError, match="iterations"):
        ModelPredictiveController(BicycleModel(), iterations=0)
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError, match="dt"):
            ModelPredictiveController(BicycleModel(), dt=dt)


@pytest.mark.parametrize("field", ["x", "theta", "v"])
def test_solve_rejects_non_finite_state(field):
    controller = ModelPredictiveController(BicycleModel(), horizon=8)
    ref = reference_trajectory(n_steps=8)
    state = BicycleState(v=8.0)
    setattr(state, field, math.nan)
    with pytest.raises(ValueError, match="finite"):
        controller.solve(state, ref)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_rejects_non_finite_reference(bad):
    controller = ModelPredictiveController(BicycleModel(), horizon=8)
    ref = reference_trajectory(n_steps=8)
    ref[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        controller.solve(BicycleState(v=8.0), ref)


@pytest.mark.parametrize("shape", [(8, 4), (10, 4), (9, 3)])
def test_solve_rejects_misshapen_reference(shape):
    controller = ModelPredictiveController(BicycleModel(), horizon=8)
    with pytest.raises(ValueError, match="reference window"):
        controller.solve(BicycleState(v=8.0), np.zeros(shape))


def test_singular_control_cost_raises_linalg_error():
    # Zero steering weight at standstill: B's steering column is zero,
    # so B^T S B + R is singular.
    controller = ModelPredictiveController(
        BicycleModel(), horizon=8, r_weights=(0.01, 0.0)
    )
    ref = np.zeros((9, 4))
    with pytest.raises(np.linalg.LinAlgError):
        controller.solve(BicycleState(v=0.0), ref)


def test_reference_trajectory_shape():
    ref = reference_trajectory(n_steps=50, speed=5.0)
    assert ref.shape == (51, 4)
    assert (ref[:, 3] == 5.0).all()
    # Consecutive points spaced ~speed*dt.
    step = np.linalg.norm(np.diff(ref[:, :2], axis=0), axis=1)
    assert np.allclose(step, 0.5, atol=0.05)


def test_solve_returns_bounded_controls():
    model = BicycleModel()
    controller = ModelPredictiveController(model, horizon=8, dt=0.1)
    ref = reference_trajectory(n_steps=20, speed=8.0)
    plan = controller.solve(BicycleState(v=8.0), ref[: 8 + 1])
    assert plan.shape == (8, 2)
    assert (np.abs(plan[:, 0]) <= model.max_accel + 1e-9).all()
    assert (np.abs(plan[:, 1]) <= model.max_steer + 1e-9).all()


def test_tracking_straight_road():
    model = BicycleModel()
    controller = ModelPredictiveController(model, horizon=10, dt=0.1)
    ref = reference_trajectory(n_steps=60, speed=8.0, curvature=0.0)
    out = controller.track(BicycleState(v=8.0), ref)
    assert out["errors"].mean() < 0.2


def test_tracking_curvy_road_stays_close():
    model = BicycleModel()
    controller = ModelPredictiveController(model, horizon=12, dt=0.1)
    ref = reference_trajectory(n_steps=100, speed=8.0, curvature=0.3)
    out = controller.track(BicycleState(v=8.0), ref)
    assert out["errors"].mean() < 0.5
    assert out["errors"].max() < 2.0


def test_tracking_recovers_from_initial_offset():
    model = BicycleModel()
    controller = ModelPredictiveController(model, horizon=12, dt=0.1)
    ref = reference_trajectory(n_steps=80, speed=8.0, curvature=0.0)
    out = controller.track(BicycleState(y=1.5, v=8.0), ref)
    # The cross-track error shrinks from the initial 1.5 m offset.
    assert out["errors"][-1] < out["errors"][0]
    assert out["errors"][-1] < 0.4


def test_speed_constraint_respected():
    model = BicycleModel(max_speed=6.0)
    controller = ModelPredictiveController(model, horizon=10, dt=0.1)
    ref = reference_trajectory(n_steps=50, speed=12.0)  # wants too fast
    out = controller.track(BicycleState(v=6.0), ref)
    assert (out["states"][:, 3] <= 6.0 + 1e-9).all()


def test_optimize_phase_dominates():
    prof = PhaseProfiler()
    model = BicycleModel()
    controller = ModelPredictiveController(model, horizon=10, dt=0.1,
                                           profiler=prof)
    ref = reference_trajectory(n_steps=30, speed=8.0)
    controller.track(BicycleState(v=8.0), ref)
    assert prof.fraction("optimize") > 0.6
    assert prof.counters["riccati_steps"] > 0


def test_solve_rolls_the_plan_out_once():
    # One rollout of the initial plan, then each iteration's forward pass
    # propagates the plan that the next iteration linearizes around.
    class CountingModel(BicycleModel):
        calls = 0

        def propagate(self, *args):
            CountingModel.calls += 1
            return super().propagate(*args)

    prof = PhaseProfiler()
    controller = ModelPredictiveController(
        CountingModel(), horizon=10, dt=0.1, iterations=3, profiler=prof
    )
    ref = reference_trajectory(n_steps=30, speed=8.0)
    controller.solve(BicycleState(v=8.0), ref[:11])
    assert prof.stats["dynamics"].calls == 1
    assert CountingModel.calls == 10 * (1 + 3)


def test_window_pads_at_the_end():
    model = BicycleModel()
    controller = ModelPredictiveController(model, horizon=10, dt=0.1)
    ref = reference_trajectory(n_steps=5)
    window = controller._window(ref, 3)
    assert window.shape == (11, 4)
    assert np.allclose(window[-1], ref[-1])


def test_kernel_end_to_end():
    result = MpcKernel().run(MpcConfig(steps=60))
    assert result.output["mean_error"] < 0.5
    assert result.profiler.fraction("optimize") > 0.6
