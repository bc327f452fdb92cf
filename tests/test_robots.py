"""Tests for the robot models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.transforms import SE2
from repro.robots.arm import PlanarArm
from repro.robots.ball_thrower import BallThrower
from repro.robots.bicycle import BicycleModel, BicycleState
from repro.robots.differential import DifferentialDrive


# -- arm -------------------------------------------------------------------


def test_arm_validation():
    with pytest.raises(ValueError):
        PlanarArm([])
    with pytest.raises(ValueError):
        PlanarArm([1.0, -1.0])
    with pytest.raises(ValueError):
        PlanarArm([1.0], joint_limits=[(-1, 1), (-1, 1)])


def test_arm_straight_configuration():
    arm = PlanarArm([1.0, 1.0, 1.0])
    points = arm.link_points([0.0, 0.0, 0.0])
    assert points[-1] == pytest.approx((3.0, 0.0))
    assert len(points) == 4


def test_arm_right_angle():
    arm = PlanarArm([1.0, 1.0])
    x, y = arm.end_effector([math.pi / 2.0, math.pi / 2.0])
    assert x == pytest.approx(-1.0, abs=1e-12)
    assert y == pytest.approx(1.0, abs=1e-12)


def test_arm_base_offset():
    arm = PlanarArm([2.0])
    x, y = arm.end_effector([0.0], base=(5.0, 7.0))
    assert (x, y) == pytest.approx((7.0, 7.0))


def test_arm_wrong_dof_raises():
    arm = PlanarArm([1.0, 1.0])
    with pytest.raises(ValueError):
        arm.link_points([0.0])


@settings(max_examples=30)
@given(st.lists(st.floats(-3.1, 3.1), min_size=3, max_size=3))
def test_arm_links_have_constant_length(q):
    arm = PlanarArm([0.5, 0.7, 0.3])
    points = arm.link_points(q)
    for (a, b), length in zip(zip(points[:-1], points[1:]), arm.link_lengths):
        assert math.hypot(b[0] - a[0], b[1] - a[1]) == pytest.approx(length)


def test_arm_limits_and_clamp(rng):
    arm = PlanarArm([1.0, 1.0], joint_limits=[(-1.0, 1.0), (0.0, 2.0)])
    assert arm.within_limits([0.5, 1.0])
    assert not arm.within_limits([1.5, 1.0])
    clamped = arm.clamp([5.0, -5.0])
    assert clamped == pytest.approx([1.0, 0.0])
    for _ in range(50):
        assert arm.within_limits(arm.sample_configuration(rng))


# -- differential drive --------------------------------------------------------


def test_diff_drive_straight_motion():
    robot = DifferentialDrive()
    pose = robot.step(SE2(0, 0, 0), v=1.0, w=0.0, dt=2.0)
    assert pose.x == pytest.approx(2.0)
    assert pose.y == pytest.approx(0.0)


def test_diff_drive_full_circle():
    robot = DifferentialDrive(max_v=10.0, max_w=10.0)
    pose = SE2(1.0, 0.0, math.pi / 2.0)
    # One full circle of radius 1: v = r*w.
    n = 100
    for _ in range(n):
        pose = robot.step(pose, v=1.0, w=1.0, dt=2 * math.pi / n)
    assert pose.x == pytest.approx(1.0, abs=1e-6)
    assert pose.y == pytest.approx(0.0, abs=1e-6)


def test_diff_drive_clamps_controls():
    robot = DifferentialDrive(max_v=1.0, max_w=1.0)
    assert robot.clamp(5.0, -7.0) == (1.0, -1.0)


def test_diff_drive_validation():
    with pytest.raises(ValueError):
        DifferentialDrive(max_v=0.0)


def test_odometry_between_matches_sensor_model():
    robot = DifferentialDrive()
    before = SE2(0, 0, 0)
    after = SE2(1.0, 0.0, 0.5)
    rot1, trans, rot2 = robot.odometry_between(before, after)
    assert trans == pytest.approx(1.0)
    assert rot1 == pytest.approx(0.0)
    assert rot2 == pytest.approx(0.5)


# -- bicycle ---------------------------------------------------------------------


def test_bicycle_straight():
    model = BicycleModel()
    state = BicycleState(v=10.0)
    nxt = model.step(state, a=0.0, delta=0.0, dt=1.0)
    assert nxt.x == pytest.approx(10.0)
    assert nxt.theta == pytest.approx(0.0)


def test_bicycle_speed_limits():
    model = BicycleModel(max_speed=5.0, max_accel=100.0)
    state = BicycleState(v=4.9)
    nxt = model.step(state, a=100.0, delta=0.0, dt=1.0)
    assert nxt.v == 5.0
    nxt = model.step(BicycleState(v=0.1), a=-100.0, delta=0.0, dt=1.0)
    assert nxt.v == 0.0  # no reversing


def test_bicycle_steering_turns():
    model = BicycleModel()
    state = BicycleState(v=5.0)
    left = model.step(state, a=0.0, delta=0.3, dt=0.5)
    assert left.theta > 0.0


def test_bicycle_rollout_shape():
    model = BicycleModel()
    controls = np.zeros((10, 2))
    states = model.rollout(BicycleState(v=3.0), controls, dt=0.1)
    assert states.shape == (11, 4)
    assert states[-1, 0] == pytest.approx(3.0, abs=1e-9)


def test_bicycle_linearization_is_locally_accurate():
    model = BicycleModel()
    state = BicycleState(x=1.0, y=2.0, theta=0.2, v=6.0)
    a0, d0 = 0.5, 0.1
    A, B, c = model.linearize(state, a0, d0, dt=0.1)
    # Exact next state equals the linear model at the expansion point.
    exact = model.step(state, a0, d0, 0.1).as_array()
    linear = A @ state.as_array() + B @ np.array([a0, d0]) + c
    assert np.allclose(exact, linear, atol=1e-12)
    # Small perturbations are tracked to first order.
    da, dd = 0.01, 0.005
    exact2 = model.step(state, a0 + da, d0 + dd, 0.1).as_array()
    linear2 = A @ state.as_array() + B @ np.array([a0 + da, d0 + dd]) + c
    assert np.allclose(exact2, linear2, atol=1e-3)


def test_bicycle_jacobians_equal_linearize_a_and_b():
    model = BicycleModel()
    rng = np.random.default_rng(0)
    for _ in range(20):
        state = BicycleState(*rng.uniform(-5.0, 5.0, 3), v=rng.uniform(0, 15))
        a0, d0 = rng.uniform(-4.0, 4.0), rng.uniform(-0.8, 0.8)
        A, B, _ = model.linearize(state, a0, d0, dt=0.1)
        jA, jB = model.jacobians(state, a0, d0, dt=0.1)
        assert np.array_equal(A, jA) and np.array_equal(B, jB)


def test_bicycle_validation():
    with pytest.raises(ValueError):
        BicycleModel(wheelbase=0.0)


# -- ball thrower -----------------------------------------------------------------


def test_thrower_validation():
    with pytest.raises(ValueError):
        BallThrower(link1=0.0)


def test_thrower_reward_is_negative_distance():
    thrower = BallThrower(goal_x=3.0)
    result = thrower.throw(np.array([0.8, -0.2, 10.0]))
    assert result.reward == pytest.approx(-abs(result.landing_x - 3.0))


def test_thrower_harder_throw_lands_farther():
    thrower = BallThrower()
    soft = thrower.throw(np.array([0.8, -0.2, 5.0]))
    hard = thrower.throw(np.array([0.8, -0.2, 15.0]))
    assert hard.landing_x > soft.landing_x


def test_thrower_clips_to_bounds():
    thrower = BallThrower()
    wild = thrower.throw(np.array([100.0, -100.0, 1e9]))
    assert np.isfinite(wild.landing_x)


def test_thrower_perfect_throw_exists():
    """Some parameter triple lands within 10 cm of the goal."""
    thrower = BallThrower(goal_x=3.0)
    rng = np.random.default_rng(0)
    bounds = thrower.parameter_bounds
    best = min(
        abs(thrower.throw(rng.uniform(bounds[:, 0], bounds[:, 1])).landing_x - 3.0)
        for _ in range(500)
    )
    assert best < 0.1


def test_thrower_drag_shortens_flight():
    no_drag = BallThrower(drag=0.0).throw(np.array([0.8, -0.2, 12.0]))
    with_drag = BallThrower(drag=0.5).throw(np.array([0.8, -0.2, 12.0]))
    assert with_drag.landing_x < no_drag.landing_x


def test_thrower_ballistics_consistency():
    """Closed-form landing matches a fine Euler integration (no drag)."""
    thrower = BallThrower()
    params = np.array([1.0, -0.4, 10.0])
    analytic = thrower.throw(params)
    (rx, ry), (vx, vy) = thrower.release_state(*params)
    x, y, t, dt = rx, ry, 0.0, 1e-5
    while y > 0.0:
        x += vx * dt
        vy -= 9.81 * dt
        y += vy * dt
        t += dt
    assert x == pytest.approx(analytic.landing_x, abs=1e-2)
