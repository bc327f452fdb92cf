"""Tests for the sensor models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.envs.mapgen import wean_hall_like
from repro.geometry.transforms import SE2
from repro.sensors.landmarks import LandmarkSensor
from repro.sensors.lidar import Lidar
from repro.sensors.noise import GaussianNoise
from repro.sensors.odometry import OdometryModel, OdometryReading


# -- noise ---------------------------------------------------------------------


def test_gaussian_noise_zero_sigma_is_identity(rng):
    noise = GaussianNoise(0.0)
    assert noise.perturb(3.0, rng) == 3.0
    values = np.array([1.0, 2.0])
    assert np.array_equal(noise.perturb_array(values, rng), values)


def test_gaussian_noise_perturbs(rng):
    noise = GaussianNoise(1.0)
    samples = [noise.perturb(0.0, rng) for _ in range(200)]
    assert 0.7 < np.std(samples) < 1.3


def test_gaussian_noise_negative_sigma_raises():
    with pytest.raises(ValueError):
        GaussianNoise(-1.0)


# -- odometry ----------------------------------------------------------------------


def test_reading_between_recovers_motion():
    before = SE2(0.0, 0.0, 0.0)
    after = SE2(1.0, 1.0, math.pi / 2.0)
    reading = OdometryModel.reading_between(before, after)
    assert reading.trans == pytest.approx(math.sqrt(2.0))
    assert reading.rot1 == pytest.approx(math.pi / 4.0)
    assert reading.rot2 == pytest.approx(math.pi / 4.0)


def test_noiseless_model_reproduces_pose(rng):
    model = OdometryModel(0.0, 0.0, 0.0, 0.0)
    before = SE2(1.0, 2.0, 0.3)
    after = SE2(2.5, 2.8, 1.1)
    reading = OdometryModel.reading_between(before, after)
    propagated = model.sample(before, reading, rng)
    assert propagated.x == pytest.approx(after.x, abs=1e-6)
    assert propagated.y == pytest.approx(after.y, abs=1e-6)
    assert propagated.theta == pytest.approx(after.theta, abs=1e-6)


def test_sample_batch_shape_and_spread(rng):
    model = OdometryModel(0.1, 0.01, 0.1, 0.01)
    poses = np.zeros((500, 3))
    reading = OdometryReading(rot1=0.2, trans=1.0, rot2=-0.1)
    out = model.sample_batch(poses, reading, rng)
    assert out.shape == (500, 3)
    # Mean motion is approximately the commanded motion.
    assert np.hypot(out[:, 0].mean(), out[:, 1].mean()) == pytest.approx(
        1.0, abs=0.1
    )
    # Noise actually spreads the particles.
    assert out[:, 0].std() > 0.0


def test_zero_motion_stays_near_pose(rng):
    model = OdometryModel()
    poses = np.tile([3.0, 4.0, 0.5], (100, 1))
    out = model.sample_batch(poses, OdometryReading(0.0, 0.0, 0.0), rng)
    assert np.allclose(out[:, :2].mean(axis=0), [3.0, 4.0], atol=0.05)


def test_negative_alpha_raises():
    with pytest.raises(ValueError):
        OdometryModel(alpha1=-0.1)


# -- lidar -------------------------------------------------------------------------


def test_lidar_validation():
    with pytest.raises(ValueError):
        Lidar(n_beams=0)
    with pytest.raises(ValueError):
        Lidar(max_range=0.0)


def test_lidar_beam_angles_span_fov():
    lidar = Lidar(n_beams=4, fov=math.pi)
    angles = lidar.beam_angles(0.0)
    assert angles[0] == pytest.approx(-math.pi / 2.0)
    assert len(angles) == 4


def test_expected_ranges_batch_matches_single():
    grid = wean_hall_like(rows=60, cols=60, seed=0)
    lidar = Lidar(n_beams=6, max_range=8.0)
    free = np.argwhere(~grid.cells)
    poses = []
    for i in (0, len(free) // 2, -1):
        r, c = free[i]
        x, y = grid.cell_to_world(int(r), int(c))
        poses.append([x, y, 0.7])
    poses = np.array(poses)
    batch = lidar.expected_ranges_batch(grid, poses)
    for pose, ranges in zip(poses, batch):
        single = lidar.expected_ranges(grid, pose[0], pose[1], pose[2])
        assert np.allclose(ranges, single)


def test_measure_clips_to_range(rng):
    grid = wean_hall_like(rows=60, cols=60, seed=0)
    lidar = Lidar(n_beams=12, max_range=5.0, noise_sigma=0.5)
    free = np.argwhere(~grid.cells)
    r, c = free[len(free) // 2]
    x, y = grid.cell_to_world(int(r), int(c))
    scan = lidar.measure(grid, x, y, 0.0, rng)
    assert (scan >= 0.0).all()
    assert (scan <= 5.0).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noiseless_measure_equals_expected_ranges_bitwise(seed):
    """``measure`` casts per beam; the batch marcher must agree exactly."""
    grid = wean_hall_like(rows=120, cols=150, resolution=0.25, seed=seed)
    lidar = Lidar(n_beams=24, max_range=12.0)
    rng = np.random.default_rng(seed + 10)
    free = np.argwhere(~grid.cells)
    for r, c in free[rng.integers(0, len(free), 40)]:
        x = (c + rng.uniform(0.05, 0.95)) * grid.resolution
        y = (r + rng.uniform(0.05, 0.95)) * grid.resolution
        theta = rng.uniform(-math.pi, math.pi)
        scan = lidar.measure(grid, x, y, theta, rng=None)
        assert np.array_equal(scan, lidar.expected_ranges(grid, x, y, theta))


# -- landmarks -----------------------------------------------------------------------


def test_landmark_sensor_validation():
    with pytest.raises(ValueError):
        LandmarkSensor(np.zeros((3, 3)))


def test_true_observation_geometry():
    sensor = LandmarkSensor(np.array([[10.0, 0.0]]))
    obs = sensor.true_observation(SE2(0.0, 0.0, 0.0), 0)
    assert obs.range == pytest.approx(10.0)
    assert obs.bearing == pytest.approx(0.0)
    obs_rotated = sensor.true_observation(SE2(0.0, 0.0, math.pi / 2.0), 0)
    assert obs_rotated.bearing == pytest.approx(-math.pi / 2.0)


def test_observe_filters_by_range(rng):
    sensor = LandmarkSensor(
        np.array([[1.0, 0.0], [100.0, 0.0]]), max_range=10.0
    )
    observations = sensor.observe(SE2(0, 0, 0), rng)
    assert [o.landmark_id for o in observations] == [0]


def test_observe_noise_statistics(rng):
    sensor = LandmarkSensor(
        np.array([[5.0, 0.0]]), range_sigma=0.2, bearing_sigma=0.05
    )
    ranges = [sensor.observe(SE2(0, 0, 0), rng)[0].range for _ in range(300)]
    assert np.mean(ranges) == pytest.approx(5.0, abs=0.1)
    assert 0.1 < np.std(ranges) < 0.3


def test_observe_noiseless_without_rng():
    sensor = LandmarkSensor(np.array([[3.0, 4.0]]))
    obs = sensor.observe(SE2(0, 0, 0))[0]
    assert obs.range == pytest.approx(5.0)
