"""Tests for ICP registration."""

import numpy as np
import pytest

from repro.envs.pointcloud import living_room
from repro.geometry.transforms import RigidTransform3D, rotation_matrix_3d
from repro.harness.profiler import PhaseProfiler
from repro.perception.icp import best_fit_transform, icp


def _random_transform(rng, angle=0.1, translation=0.1):
    rot = rotation_matrix_3d(
        rng.uniform(-angle, angle),
        rng.uniform(-angle, angle),
        rng.uniform(-angle, angle),
    )
    return RigidTransform3D(rot, rng.uniform(-translation, translation, 3))


def test_best_fit_exact_recovery(rng):
    points = rng.normal(size=(50, 3))
    true = _random_transform(rng, angle=0.5, translation=1.0)
    moved = true.apply(points)
    est = best_fit_transform(points, moved)
    assert np.allclose(est.rotation, true.rotation, atol=1e-9)
    assert np.allclose(est.translation, true.translation, atol=1e-9)


def test_best_fit_no_reflection(rng):
    points = rng.normal(size=(30, 3))
    target = rng.normal(size=(30, 3))
    est = best_fit_transform(points, target)
    assert np.linalg.det(est.rotation) == pytest.approx(1.0, abs=1e-9)


def test_icp_validates_shapes():
    with pytest.raises(ValueError):
        icp(np.zeros((5, 2)), np.zeros((5, 3)))
    with pytest.raises(ValueError):
        icp(np.zeros((5, 3)), np.zeros(5))


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_icp_recovers_small_misalignment(rng, backend):
    scene = living_room(1500, seed=0)
    true = _random_transform(rng, angle=0.06, translation=0.08)
    source = true.inverse().apply(scene[:600])
    result = icp(source, scene, max_iterations=30, backend=backend)
    # Applying the estimated transform must land points back on the scene.
    registered = result.transform.apply(source)
    dists = np.linalg.norm(registered - scene[:600], axis=1)
    assert np.median(dists) < 0.03
    assert result.rms_error < 0.05


def test_icp_brute_matches_kdtree(rng):
    # The reference backend scans every target point; the vectorized one
    # queries the compiled kd-tree.  Both register the scene identically.
    scene = living_room(800, seed=1)
    true = _random_transform(rng, angle=0.04, translation=0.05)
    source = true.inverse().apply(scene[:300])
    a = icp(source, scene, max_iterations=15, backend="vectorized")
    b = icp(source, scene, max_iterations=15, backend="reference")
    assert a.iterations == b.iterations
    assert a.error_history == b.error_history
    np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)
    np.testing.assert_array_equal(
        a.transform.translation, b.transform.translation
    )


def test_icp_identity_when_aligned(rng):
    scene = living_room(800, seed=2)
    result = icp(scene[:300], scene, max_iterations=10)
    assert result.converged
    assert np.linalg.norm(result.transform.translation) < 1e-3
    assert result.transform.rotation_angle() < 1e-3


def test_icp_error_history_decreases(rng):
    scene = living_room(1000, seed=3)
    true = _random_transform(rng, angle=0.08, translation=0.08)
    source = true.inverse().apply(scene[:400])
    result = icp(source, scene, max_iterations=25)
    assert result.error_history[-1] <= result.error_history[0] + 1e-9


def test_icp_uses_initial_guess(rng):
    scene = living_room(1000, seed=4)
    true = _random_transform(rng, angle=0.3, translation=0.5)  # large offset
    source = true.inverse().apply(scene[:400])
    warm = icp(source, scene, max_iterations=10, initial=true)
    assert warm.rms_error < 0.05


def test_icp_max_correspondence_distance_filters(rng):
    scene = living_room(600, seed=5)
    source = scene[:200] + rng.normal(0, 0.002, (200, 3))
    # Add gross outliers to the source.
    source = np.vstack([source, rng.uniform(10, 20, size=(20, 3))])
    result = icp(source, scene, max_iterations=15,
                 max_correspondence_distance=0.5)
    assert np.linalg.norm(result.transform.translation) < 0.05


def test_icp_profiles_phases(rng):
    prof = PhaseProfiler()
    scene = living_room(500, seed=6)
    icp(scene[:150], scene, max_iterations=5, profiler=prof)
    assert "correspondence" in prof.stats
    assert "transform_estimation" in prof.stats
    assert prof.counters.get("svd_solves", 0) >= 1
