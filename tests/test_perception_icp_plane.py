"""Tests for normal estimation and point-to-plane ICP."""

import numpy as np
import pytest

from repro.envs.pointcloud import living_room
from repro.geometry.transforms import RigidTransform3D, rotation_matrix_3d
from repro.perception.icp import (
    best_fit_point_to_plane,
    estimate_normals,
    icp,
)


def test_normals_are_unit_vectors(rng):
    points = rng.normal(size=(100, 3))
    normals = estimate_normals(points, k=8)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)


def test_normals_of_a_plane_are_perpendicular(rng):
    # Points on the z = 0 plane: normals must be +-e_z.
    points = np.column_stack(
        [rng.uniform(0, 1, 200), rng.uniform(0, 1, 200), np.zeros(200)]
    )
    normals = estimate_normals(points, k=10)
    assert np.allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)


def test_normals_of_a_sphere_are_radial(rng):
    directions = rng.normal(size=(300, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    points = 5.0 * directions
    normals = estimate_normals(points, k=10)
    alignment = np.abs(np.einsum("ij,ij->i", normals, directions))
    assert np.median(alignment) > 0.95


def test_normals_need_three_points():
    with pytest.raises(ValueError):
        estimate_normals(np.zeros((2, 3)))


def test_point_to_plane_step_recovers_small_motion(rng):
    scene = living_room(1200, seed=0)
    normals = estimate_normals(scene)
    true = RigidTransform3D(
        rotation_matrix_3d(0.02, -0.015, 0.01), np.array([0.02, 0.01, -0.015])
    )
    source = true.inverse().apply(scene)
    # One linearized step against perfect correspondences.
    delta = best_fit_point_to_plane(source, scene, normals)
    registered = delta.apply(source)
    residual = np.einsum("ij,ij->i", registered - scene, normals)
    before = np.einsum("ij,ij->i", source - scene, normals)
    assert np.abs(residual).mean() < np.abs(before).mean() / 5.0


def test_point_to_plane_returns_proper_rotation(rng):
    source = rng.normal(size=(50, 3))
    target = source + rng.normal(0, 0.01, size=(50, 3))
    normals = rng.normal(size=(50, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    delta = best_fit_point_to_plane(source, target, normals)
    assert np.allclose(delta.rotation @ delta.rotation.T, np.eye(3),
                       atol=1e-9)
    assert np.linalg.det(delta.rotation) == pytest.approx(1.0)


@pytest.mark.parametrize("metric", ["point_to_point", "point_to_plane"])
def test_icp_metrics_both_register(rng, metric):
    scene = living_room(1500, seed=1)
    true = RigidTransform3D(
        rotation_matrix_3d(0.05, -0.04, 0.06), np.array([0.08, -0.06, 0.05])
    )
    source = true.inverse().apply(scene[:500])
    result = icp(source, scene, max_iterations=30, metric=metric)
    error = np.linalg.norm(result.transform.translation - true.translation)
    assert error < 0.02, metric


def test_icp_unknown_metric_raises():
    with pytest.raises(ValueError, match="metric"):
        icp(np.zeros((4, 3)), np.zeros((4, 3)), metric="chamfer")
