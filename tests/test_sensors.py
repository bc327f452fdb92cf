"""Tests for the sensor models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.envs.mapgen import wean_hall_like
from repro.geometry.transforms import SE2
from repro.sensors.landmarks import LandmarkSensor
from repro.sensors.lidar import Lidar
from repro.sensors.odometry import OdometryModel, OdometryReading


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
        single = lidar.expected_ranges_batch(grid, pose[None, :])
        assert single.shape == (1, 6)
        assert np.array_equal(ranges, single[0])


def test_measure_clips_to_range(rng):
    grid = wean_hall_like(rows=60, cols=60, seed=0)
    lidar = Lidar(n_beams=12, max_range=5.0, noise_sigma=0.5)
    free = np.argwhere(~grid.cells)
    r, c = free[len(free) // 2]
    x, y = grid.cell_to_world(int(r), int(c))
    scans = lidar.measure(grid, np.array([[x, y, 0.0]]), rng)
    assert scans.shape == (1, 12)
    assert (scans >= 0.0).all()
    assert (scans <= 5.0).all()


def _free_poses(grid, n, seed):
    rng = np.random.default_rng(seed)
    free = np.argwhere(~grid.cells)
    sel = free[rng.integers(0, len(free), n)]
    return np.column_stack([
        (sel[:, 1] + rng.uniform(0.05, 0.95, n)) * grid.resolution,
        (sel[:, 0] + rng.uniform(0.05, 0.95, n)) * grid.resolution,
        rng.uniform(-math.pi, math.pi, n),
    ])


def test_measure_batch_is_scan_by_scan_in_pose_order():
    """One batch of poses reads, and draws noise, like one pose at a time."""
    grid = wean_hall_like(rows=60, cols=60, seed=1)
    lidar = Lidar(n_beams=9, max_range=6.0, noise_sigma=0.2)
    poses = _free_poses(grid, 7, 4)
    rng_batch, rng_single = np.random.default_rng(5), np.random.default_rng(5)
    batch = lidar.measure(grid, poses, rng_batch)
    single = np.vstack([lidar.measure(grid, pose[None, :], rng_single)
                        for pose in poses])
    assert batch.shape == (7, 9)
    assert np.array_equal(batch.view(np.int64), single.view(np.int64))
    assert rng_batch.random() == rng_single.random()


def test_measure_empty_pose_batch(rng):
    grid = wean_hall_like(rows=40, cols=40, seed=0)
    lidar = Lidar(n_beams=5)
    scans = lidar.measure(grid, np.empty((0, 3)), rng)
    assert scans.shape == (0, 5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_measure_rejects_non_finite_pose(column, bad):
    grid = wean_hall_like(rows=40, cols=40, seed=0)
    poses = np.full((3, 3), 1.0)
    poses[1, column] = bad
    with pytest.raises(ValueError, match="finite"):
        Lidar(n_beams=4).measure(grid, poses)


@pytest.mark.parametrize("shape", [(3,), (2, 2), (1, 4)])
def test_measure_rejects_poses_of_another_shape(shape):
    grid = wean_hall_like(rows=40, cols=40, seed=0)
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        Lidar(n_beams=4).measure(grid, np.ones(shape))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noiseless_measure_within_half_cell_of_expected_ranges(seed):
    """The world (``measure``'s half-cell marcher) reads each wall at or
    less than half a cell beyond the filter's exact model."""
    grid = wean_hall_like(rows=120, cols=150, resolution=0.25, seed=seed)
    lidar = Lidar(n_beams=24, max_range=12.0)
    rng = np.random.default_rng(seed + 10)
    free = np.argwhere(~grid.cells)
    poses = []
    for r, c in free[rng.integers(0, len(free), 40)]:
        x = (c + rng.uniform(0.05, 0.95)) * grid.resolution
        y = (r + rng.uniform(0.05, 0.95)) * grid.resolution
        poses.append([x, y, rng.uniform(-math.pi, math.pi)])
    poses = np.array(poses)
    scans = lidar.measure(grid, poses)
    gap = scans - lidar.expected_ranges_batch(grid, poses)
    slack = 1e-9 * grid.resolution
    assert gap.min() >= -slack
    assert gap.max() < 0.5 * grid.resolution + slack
    assert (gap > slack).any()  # the two ray models do differ


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
