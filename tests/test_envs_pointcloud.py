"""Tests for point-cloud scene generation and scan simulation."""

import numpy as np
import pytest

from repro.envs.pointcloud import living_room, scan_trajectory, simulate_scan
from repro.geometry.transforms import RigidTransform3D, rotation_matrix_3d


def test_living_room_shape_and_extent():
    scene = living_room(n_points=3000, seed=0)
    assert scene.shape[1] == 3
    assert len(scene) > 2000
    # Inside a room-sized bounding box.
    assert scene[:, 0].min() >= -0.1 and scene[:, 0].max() <= 5.1
    assert scene[:, 2].min() >= -0.1 and scene[:, 2].max() <= 2.6


@pytest.mark.parametrize(
    "n_points, count", [(8, 4), (9, 5), (800, 800), (9000, 8998), (12000, 12000)]
)
def test_living_room_floors_each_surface_share(n_points, count):
    # Each surface gets int(n_points * share) points, so the scene holds
    # at most n_points; srec's default 9000 loses two to the floors.
    assert living_room(n_points, seed=0).shape == (count, 3)


def test_living_room_deterministic():
    assert np.array_equal(living_room(1000, seed=4), living_room(1000, seed=4))


def test_living_room_has_floor_and_elevation():
    scene = living_room(4000, seed=0)
    near_floor = (scene[:, 2] < 0.05).mean()
    elevated = (scene[:, 2] > 0.5).mean()
    assert near_floor > 0.1
    assert elevated > 0.1


def test_simulate_scan_identity_pose(rng):
    scene = living_room(2000, seed=1)
    scan = simulate_scan(scene, RigidTransform3D.identity(), n_points=500,
                         noise_sigma=0.0, rng=rng)
    assert len(scan.points) == 500
    # With no noise and identity pose, points are scene points.
    for p in scan.points[:10]:
        assert np.min(np.linalg.norm(scene - p, axis=1)) < 1e-9


def test_simulate_scan_inverse_maps_back(rng):
    scene = living_room(2000, seed=1)
    pose = RigidTransform3D(rotation_matrix_3d(0.1, 0.2, 0.3),
                            np.array([0.5, -0.2, 0.1]))
    scan = simulate_scan(scene, pose, n_points=300, noise_sigma=0.0, rng=rng)
    world = pose.apply(scan.points)
    for p in world[:10]:
        assert np.min(np.linalg.norm(scene - p, axis=1)) < 1e-9


def test_simulate_scan_noise_perturbs(rng):
    scene = living_room(1000, seed=2)
    noisy = simulate_scan(scene, RigidTransform3D.identity(), n_points=200,
                          noise_sigma=0.05, rng=rng)
    dists = [np.min(np.linalg.norm(scene - p, axis=1)) for p in noisy.points[:50]]
    assert np.mean(dists) > 0.01


def test_simulate_scan_dropout(rng):
    scene = living_room(1000, seed=3)
    scan = simulate_scan(scene, RigidTransform3D.identity(), n_points=400,
                         dropout=0.5, rng=rng)
    assert 100 < len(scan.points) < 300


def test_scan_trajectory_motion_is_bounded():
    scans = scan_trajectory(living_room(2000, seed=0), n_frames=4,
                            max_rotation=0.05, max_translation=0.08, seed=1)
    assert len(scans) == 4
    for a, b in zip(scans[:-1], scans[1:]):
        delta = b.true_pose.compose(a.true_pose.inverse())
        assert np.linalg.norm(delta.translation) < 0.3
        assert delta.rotation_angle() < 0.3
