"""Tests for particle filter localization (01.pfl)."""

import hashlib

import numpy as np
import pytest

from repro.envs.mapgen import wean_hall_like
from repro.geometry.transforms import SE2
from repro.perception.particle_filter import (
    ParticleFilter,
    PflConfig,
    PflKernel,
    make_pfl_workload,
)
from repro.sensors.lidar import Lidar
from repro.sensors.odometry import OdometryModel, OdometryReading


@pytest.fixture(scope="module")
def small_workload():
    return make_pfl_workload(region=0, n_steps=10, n_beams=10, seed=0)


def _make_filter(workload, n=200, seed=0):
    return ParticleFilter(
        workload.grid,
        workload.lidar,
        workload.motion_model,
        n_particles=n,
        rng=np.random.default_rng(seed),
    )


def test_validation():
    grid = wean_hall_like(rows=40, cols=40)
    with pytest.raises(ValueError):
        ParticleFilter(grid, Lidar(), OdometryModel(), n_particles=0)


@pytest.mark.parametrize("hit_sigma", [0.0, -1.0, float("nan"), float("inf")])
def test_rejects_bad_hit_sigma(hit_sigma):
    grid = wean_hall_like(rows=40, cols=40)
    with pytest.raises(ValueError, match="hit_sigma"):
        ParticleFilter(grid, Lidar(), OdometryModel(), hit_sigma=hit_sigma)


@pytest.mark.parametrize("field, value", [
    ("particles", 0), ("beams", 0), ("steps", 0), ("steps", -1),
    ("region", -1), ("region", 5),
])
def test_kernel_rejects_bad_config_before_setup(field, value, monkeypatch):
    def no_setup(self, config):
        raise AssertionError("setup ran")

    monkeypatch.setattr(PflKernel, "setup", no_setup)
    config = PflConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        PflKernel().run(config)
    with pytest.raises(ValueError, match=field):
        PflKernel().open_session(config)


def test_initialize_uniform_spreads_over_free_space(small_workload):
    pf = _make_filter(small_workload)
    pf.initialize_uniform()
    occupied = small_workload.grid.occupied_world_batch(
        pf.poses[:, 0], pf.poses[:, 1]
    )
    assert not occupied.any()
    assert pf.spread() > 5.0  # building-scale spread


def test_initialize_around_concentrates(small_workload):
    pf = _make_filter(small_workload)
    pf.initialize_around(SE2(10.0, 10.0, 0.0), sigma_xy=0.1, sigma_theta=0.05)
    assert pf.spread() < 1.0


def test_weights_stay_normalized(small_workload):
    pf = _make_filter(small_workload)
    pf.initialize_uniform()
    pf.update(small_workload.odometry[0], small_workload.scans[0])
    assert pf.weights.sum() == pytest.approx(1.0)
    assert (pf.weights >= 0).all()


def test_tracking_mode_follows_robot(small_workload):
    """Initialized at the true pose, the filter tracks it to the end."""
    pf = _make_filter(small_workload, n=300)
    pf.initialize_around(
        small_workload.true_poses[0], sigma_xy=0.3, sigma_theta=0.1
    )
    for odom, scan in zip(small_workload.odometry, small_workload.scans):
        pf.update(odom, scan)
    error = pf.estimate().distance_to(small_workload.true_poses[-1])
    assert error < 1.5


def test_estimate_circular_mean():
    grid = wean_hall_like(rows=40, cols=40)
    pf = ParticleFilter(grid, Lidar(n_beams=4), OdometryModel(),
                        n_particles=2, rng=np.random.default_rng(0))
    # Two particles straddling the +-pi seam must average to ~pi, not 0.
    pf.poses = np.array([[5.0, 5.0, np.pi - 0.1], [5.0, 5.0, -np.pi + 0.1]])
    pf.weights = np.array([0.5, 0.5])
    estimate = pf.estimate()
    assert abs(abs(estimate.theta) - np.pi) < 0.15


def test_resampling_preserves_particle_count(small_workload):
    pf = _make_filter(small_workload, n=123)
    pf.initialize_uniform()
    pf.update(small_workload.odometry[0], small_workload.scans[0])
    assert pf.poses.shape == (123, 3)


def test_degenerate_weights_recover(small_workload):
    """All-zero likelihoods fall back to uniform weights, not NaNs."""
    pf = _make_filter(small_workload)
    pf.initialize_uniform()
    impossible_scan = np.full(small_workload.lidar.n_beams, -1e6)
    pf.update(small_workload.odometry[0], impossible_scan)
    assert np.isfinite(pf.weights).all()
    assert pf.weights.sum() == pytest.approx(1.0)


def test_workload_regions_differ():
    a = make_pfl_workload(region=0, n_steps=5, seed=0)
    b = make_pfl_workload(region=2, n_steps=5, seed=0)
    assert a.true_poses[0].distance_to(b.true_poses[0]) > 1.0


def test_workload_odometry_consistent_with_poses():
    w = make_pfl_workload(region=1, n_steps=8, seed=1)
    assert len(w.odometry) == len(w.scans) == len(w.true_poses) - 1
    # Propagating the true pose through noiseless odometry reproduces it.
    model = OdometryModel(0, 0, 0, 0)
    rng = np.random.default_rng(0)
    pose = w.true_poses[0]
    for odom, target in zip(w.odometry, w.true_poses[1:]):
        pose = model.sample(pose, odom, rng)
        assert pose.distance_to(target) < 1e-6


def test_kidnapped_robot_recovery():
    """Augmented MCL: a filter initialized around the WRONG pose recovers
    once the injection mechanism reseeds hypotheses (paper-adjacent
    robustness; plain MCL would stay stuck forever)."""
    w = make_pfl_workload(region=0, n_steps=70, n_beams=24, seed=0,
                          map_rows=100, map_cols=120)
    true_start = w.true_poses[0]
    # A deliberately wrong prior, far from the robot.
    wrong = SE2(true_start.x + 15.0, true_start.y, true_start.theta + 2.0)
    pf = ParticleFilter(w.grid, w.lidar, w.motion_model, n_particles=2500,
                        rng=np.random.default_rng(1))
    pf.initialize_around(wrong, sigma_xy=1.0, sigma_theta=0.3)
    errors = []
    for odom, scan in zip(w.odometry, w.scans):
        pf.update(odom, scan)
        errors.append(pf.estimate().distance_to(
            w.true_poses[len(errors) + 1]))
    # The likelihood bookkeeping ran (injection trigger available)...
    assert pf.w_slow > 0.0
    # ...the injection reseeded the filter mid-run, and it fully
    # relocalized: sub-meter error by the end of the drive.
    assert errors[0] > 10.0
    assert errors[-1] < 1.0


def test_kernel_run_profiles_raycast():
    result = PflKernel().run(PflConfig(particles=150, beams=8, steps=5))
    assert result.profiler.fraction("raycast") > 0.4
    assert result.profiler.counters.get("raycast_cell_checks", 0) > 0
    assert "resample" in result.profiler.stats


@pytest.mark.parametrize("seed, region", [(2, 0), (3, 1), (0, 2), (1, 3), (0, 4)])
def test_default_config_converges(seed, region):
    # The map/region pairs of perfbench's localize pool: global
    # localization ends within a meter, the cloud collapsed.  Both tiers
    # return the same bits (test_backend_equivalence pins that), so the
    # compiled one runs here for speed.
    config = PflConfig(backend="vectorized", seed=seed, region=region)
    output = PflKernel().run(config).output
    assert output["error"] < 1.0
    assert output["spread_after"] < output["spread_before"] / 10


# sha256 of the world scans and of the true poses, from the per-beam scalar
# marcher the batch one replaced: perfbench's five (seed, region) episodes
# at the kernel's default 24 beams x 25 steps, then one other size.
_WORKLOAD_DIGESTS = [
    (2, 0, 24, 25,
     "34c2e3861438946cf4eff2878bf22a8def0d09a39a3c38bae4a564d4484544cf",
     "2fb070b0910a0b116ad512b9f9e2a8a8a41d163d87bec9dc5f554711252addb1"),
    (3, 1, 24, 25,
     "290b17b0d69cda7a4d63a01769bcaa63fe6d317512e12bb4133af93369afd930",
     "06183de0cdabb42546791f0b92c70b8b871a54e1948bf7a609b2ddf3ee329578"),
    (0, 2, 24, 25,
     "b8ee01e88757d959b08e7b6c4741142b7db37ab850de5de1bd24bcd6bd59aa2c",
     "363691f6437cde60b75990da1d5c245e3be9ca4cb951c6a5ed678181941be0a3"),
    (1, 3, 24, 25,
     "2f5d265ed2ac3286a6cb7a9e4cf1a29c78d789549a8a43cb56eaa1df4741844b",
     "33233d1cfa90d60950366b49e3d68966a0398e12bae61ff0f6339977e2e7c7dd"),
    (0, 4, 24, 25,
     "c9992f2855199d2b1106b02534976f9184776d84d678a8f233442b236ffb2acc",
     "524cc9da7565cda68f70bbdc62a90eeb7ce371de5c298c1eadd9a8443f43dfab"),
    (5, 1, 7, 9,
     "3d0b039ffc283ff351b8f4d1c2377e8473ffe214e43839392f8100b1cfaab3c8",
     "7b91641968255918451fa0be19de682fc29c0a5e2d4ebdfec180cef1e1cfe997"),
]


@pytest.mark.parametrize(
    "seed, region, beams, steps, scans_sha, poses_sha", _WORKLOAD_DIGESTS
)
def test_workload_scans_and_poses_match_golden_digests(
    seed, region, beams, steps, scans_sha, poses_sha
):
    w = make_pfl_workload(region=region, n_steps=steps, n_beams=beams,
                          seed=seed)
    poses = np.array([[p.x, p.y, p.theta] for p in w.true_poses])
    assert len(w.scans) == steps
    assert hashlib.sha256(np.array(w.scans).tobytes()).hexdigest() == scans_sha
    assert hashlib.sha256(poses.tobytes()).hexdigest() == poses_sha
