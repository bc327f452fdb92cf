"""Tests for SE(2)/SE(3) transforms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.geometry.transforms import (
    SE2,
    RigidTransform3D,
    rotation_matrix_3d,
    wrap_angle,
    wrap_angles,
)

angles = st.floats(-50.0, 50.0, allow_nan=False)
coords = st.floats(-100.0, 100.0, allow_nan=False)


@given(angles)
def test_wrap_angle_range(theta):
    wrapped = wrap_angle(theta)
    assert -math.pi < wrapped <= math.pi


@given(angles)
def test_wrap_angle_preserves_direction(theta):
    assert math.cos(wrap_angle(theta)) == pytest.approx(math.cos(theta), abs=1e-9)
    assert math.sin(wrap_angle(theta)) == pytest.approx(math.sin(theta), abs=1e-9)


_odd_pis = [k * math.pi for k in (-3.0, -1.0, 1.0, 3.0)]


@given(
    st.lists(
        st.floats(-1e12, 1e12, allow_nan=False)
        | st.sampled_from(_odd_pis + [0.0, -0.0, 2.0 * math.pi, 1e300, -1e300]),
        min_size=1,
        max_size=20,
    )
)
@example(_odd_pis + [0.0, -0.0, 1e300])
def test_wrap_angles_vectorized_matches_scalar(values):
    vector = wrap_angles(np.array(values))
    scalar = np.array([wrap_angle(v) for v in values])
    assert vector.tobytes() == scalar.tobytes()


@given(coords, coords, angles)
def test_se2_compose_with_inverse_is_identity(x, y, theta):
    pose = SE2(x, y, wrap_angle(theta))
    identity = pose @ pose.inverse()
    assert identity.x == pytest.approx(0.0, abs=1e-6)
    assert identity.y == pytest.approx(0.0, abs=1e-6)
    assert wrap_angle(identity.theta) == pytest.approx(0.0, abs=1e-9)


def test_se2_compose_translation():
    a = SE2(1.0, 2.0, math.pi / 2.0)
    b = SE2(3.0, 0.0, 0.0)
    c = a @ b
    # b's x axis maps onto a's y axis after the 90 degree rotation.
    assert c.x == pytest.approx(1.0, abs=1e-12)
    assert c.y == pytest.approx(5.0, abs=1e-12)


def test_se2_apply_matches_compose():
    pose = SE2(1.0, -2.0, 0.7)
    point = (0.5, 0.25)
    via_apply = pose.apply(point)
    via_compose = pose @ SE2(point[0], point[1], 0.0)
    assert via_apply[0] == pytest.approx(via_compose.x)
    assert via_apply[1] == pytest.approx(via_compose.y)


def test_se2_apply_many_matches_apply(rng):
    pose = SE2(0.3, 1.7, -1.1)
    points = rng.normal(size=(10, 2))
    batch = pose.apply_many(points)
    for point, mapped in zip(points, batch):
        expected = pose.apply(tuple(point))
        assert mapped[0] == pytest.approx(expected[0])
        assert mapped[1] == pytest.approx(expected[1])


def test_se2_array_round_trip():
    pose = SE2(1.0, 2.0, 0.5)
    assert SE2.from_array(pose.as_array()) == pose


def test_se2_distance():
    assert SE2(0, 0, 0).distance_to(SE2(3, 4, 1)) == pytest.approx(5.0)


@given(st.floats(-3, 3), st.floats(-1.5, 1.5), st.floats(-3, 3))
def test_rotation_matrix_3d_orthonormal(roll, pitch, yaw):
    r = rotation_matrix_3d(roll, pitch, yaw)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


def test_rigid_transform_identity():
    t = RigidTransform3D.identity()
    points = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(t.apply(points), points)


def test_rigid_transform_inverse_round_trip(rng):
    r = rotation_matrix_3d(0.2, -0.4, 1.1)
    t = RigidTransform3D(r, np.array([1.0, -2.0, 0.5]))
    points = rng.normal(size=(20, 3))
    recovered = t.inverse().apply(t.apply(points))
    assert np.allclose(recovered, points, atol=1e-9)


def test_rigid_transform_compose_order(rng):
    t1 = RigidTransform3D(rotation_matrix_3d(0.3, 0, 0), np.array([1.0, 0, 0]))
    t2 = RigidTransform3D(rotation_matrix_3d(0, 0.5, 0), np.array([0, 2.0, 0]))
    points = rng.normal(size=(5, 3))
    assert np.allclose(
        t1.compose(t2).apply(points), t1.apply(t2.apply(points)), atol=1e-9
    )


def test_rotation_angle():
    r = rotation_matrix_3d(0.0, 0.0, 0.7)
    t = RigidTransform3D(r, np.zeros(3))
    assert t.rotation_angle() == pytest.approx(0.7, abs=1e-9)
    assert RigidTransform3D.identity().rotation_angle() == pytest.approx(0.0)
