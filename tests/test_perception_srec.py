"""Tests for scene reconstruction (03.srec)."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.envs.pointcloud import living_room, scan_trajectory
from repro.perception.scene_recon import (
    SceneReconstruction,
    SrecConfig,
    SrecKernel,
    make_srec_workload,
)


def test_validation():
    with pytest.raises(ValueError):
        SceneReconstruction(fusion_voxel=0.0)


def test_first_scan_defines_world_frame():
    recon = SceneReconstruction()
    points = np.random.default_rng(0).normal(size=(100, 3))
    pose = recon.integrate(points)
    assert np.allclose(pose.translation, 0.0)
    assert recon.n_points > 0


def test_fusion_deduplicates_voxels():
    recon = SceneReconstruction(fusion_voxel=1.0)
    points = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [5.0, 5.0, 5.0]])
    recon.integrate(points)
    assert recon.n_points == 2  # first two share a voxel


def test_model_grows_with_coverage_not_frames():
    """Re-scanning the SAME surface must not balloon the model.

    Every frame observes the full scene (n_points == scene size) from the
    same pose with no sensor noise, so after the first frame the fused
    voxel set is saturated.  (With noise, points lying exactly on the
    scene's axis-aligned surfaces straddle voxel boundaries and duplicate
    — a real fusion property, but not what this test checks.)
    """
    scene = living_room(2000, seed=0)
    scans = scan_trajectory(scene, n_frames=3, max_rotation=0.0,
                            max_translation=0.0, n_points=len(scene),
                            noise_sigma=0.0, seed=0)
    recon = SceneReconstruction(icp_iterations=8)
    sizes = []
    for scan in scans:
        recon.integrate(scan.points)
        sizes.append(recon.n_points)
    # Later frames of the same surface add little (< 20% growth).
    assert sizes[-1] < sizes[0] * 1.2


def test_registration_tracks_camera_motion():
    workload = make_srec_workload(n_frames=4, scene_points=5000,
                                  scan_points=1200, seed=0)
    recon = SceneReconstruction(icp_iterations=12)
    errors = []
    for scan in workload.scans:
        estimated = recon.integrate(scan.points)
        errors.append(
            float(np.linalg.norm(estimated.translation
                                 - scan.true_pose.translation))
        )
    assert errors[-1] < 0.1


def test_empty_model_points():
    recon = SceneReconstruction()
    assert recon.model_points().shape == (0, 3)


def test_kernel_run_correspondence_dominates():
    result = SrecKernel().run(
        SrecConfig(frames=3, scan_points=800, scene_points=4000,
                   icp_iterations=8)
    )
    prof = result.profiler
    assert prof.fraction("correspondence") > 0.5
    assert result.output["final_pose_error"] < 0.15
    assert result.output["model_points"] > 500


# -- bad scans and empty episodes ----------------------------------------------


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_integrate_rejects_non_finite_scan_before_fusing(first, bad):
    rng = np.random.default_rng(3)
    recon = SceneReconstruction(icp_iterations=3)
    if not first:
        recon.integrate(rng.random((60, 3)))
    before = (recon.n_points, len(recon.poses), recon.model_points())
    scan = rng.random((60, 3))
    scan[11, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        recon.integrate(scan)
    assert recon.n_points == before[0]
    assert len(recon.poses) == before[1]
    np.testing.assert_array_equal(recon.model_points(), before[2])


@pytest.mark.parametrize(
    "shape", [(20, 2), (20, 4), (60,), (5, 3, 1), (0, 3)]
)
def test_integrate_rejects_scans_not_shaped_n_by_3(shape):
    recon = SceneReconstruction()
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        recon.integrate(np.ones(shape))
    assert recon.n_points == 0 and recon.poses == []


def test_fusion_rejects_keys_outside_the_packing_range():
    recon = SceneReconstruction(fusion_voxel=1e-6)
    with pytest.raises(ValueError, match="fusion_voxel"):
        recon.integrate(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    assert recon.n_points == 0
    # The same extent fits at a coarser voxel.
    SceneReconstruction(fusion_voxel=1e-5).integrate(
        np.array([[0.0, 0.0, 0.0], [-2.0, 0.0, 2.0]])
    )


@pytest.mark.parametrize("field", ["frames", "scan_points"])
@pytest.mark.parametrize("value", [0, -1])
def test_empty_episode_rejected_before_setup(monkeypatch, field, value):
    def no_setup(self, config):
        raise AssertionError("setup ran for an empty episode")

    monkeypatch.setattr(SrecKernel, "setup", no_setup)
    config = SrecConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        SrecKernel().run(config)
    with pytest.raises(ValueError, match=field):
        SrecKernel().open_session(config)


# -- fusion pinned to the dict fold ---------------------------------------------


class FrozenFusion:
    """The per-point dict fold the array-backed model replaced, verbatim."""

    def __init__(self, fusion_voxel):
        self.fusion_voxel = fusion_voxel
        self._voxels = {}

    @property
    def n_points(self):
        return len(self._voxels)

    def model_points(self):
        if not self._voxels:
            return np.empty((0, 3))
        return np.vstack(list(self._voxels.values()))

    def _fuse(self, world_points):
        keys = np.floor(world_points / self.fusion_voxel + 0.5).astype(int)
        for key, point in zip(map(tuple, keys), world_points):
            existing = self._voxels.get(key)
            if existing is None:
                self._voxels[key] = point.copy()
            else:
                self._voxels[key] = 0.5 * (existing + point)


def _assert_same_model(recon, frozen):
    assert recon.n_points == frozen.n_points
    got, want = recon.model_points(), frozen.model_points()
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # row order and every bit


@st.composite
def fusion_scans(draw):
    """Scans on a half-voxel lattice: voxel centres, exact voxel
    boundaries, negative coordinates and one voxel hit >= 5 times."""
    voxel = draw(st.sampled_from([0.05, 0.3, 1.0]))
    scans = []
    for _ in range(draw(st.integers(1, 4))):
        halves = draw(
            st.lists(
                st.tuples(*[st.integers(-9, 9)] * 3), min_size=1, max_size=30
            )
        )
        jitter = draw(
            st.lists(
                st.sampled_from([0.0, 0.0, 0.1, -0.1, 0.37, -0.49]),
                min_size=len(halves) * 3,
                max_size=len(halves) * 3,
            )
        )
        points = (
            np.asarray(halves, dtype=float)
            + np.reshape(jitter, (-1, 3))
        ) * (voxel / 2)
        hot = points[draw(st.integers(0, len(points) - 1))]
        centre = np.floor(hot / voxel + 0.5) * voxel
        hits = draw(st.integers(5, 8))
        offsets = np.linspace(-0.4, 0.3, hits)[:, None] * voxel
        rows = np.vstack([points, centre + offsets])
        order = draw(st.permutations(range(len(rows))))
        scans.append(rows[list(order)])
    return voxel, scans


@settings(max_examples=150, deadline=None)
@given(case=fusion_scans())
def test_fusion_matches_frozen_dict_fold(case):
    voxel, scans = case
    recon = SceneReconstruction(fusion_voxel=voxel)
    frozen = FrozenFusion(voxel)
    for scan in scans:
        recon._fuse(scan)
        frozen._fuse(scan)
        _assert_same_model(recon, frozen)


def test_fusion_buffer_growth_keeps_rows_and_bits():
    rng = np.random.default_rng(9)
    recon = SceneReconstruction(fusion_voxel=0.05)
    frozen = FrozenFusion(0.05)
    for _ in range(3):
        scan = rng.uniform(-4.0, 4.0, size=(1500, 3))
        scan = np.vstack([scan, scan[:400] + 0.001])  # repeat hits
        recon._fuse(scan)
        frozen._fuse(scan)
    assert recon.n_points > 4000  # past the initial capacity, twice
    _assert_same_model(recon, frozen)


# Sets srec up on each backend and reports whether the kd-tree core is built.
_SETUP_SCRIPT = """
import os
from repro.perception.scene_recon import SrecConfig, SrecKernel
def built():
    return any(n.startswith("_nn-") for n in os.listdir(os.environ["RTRBENCH_CACHE_DIR"]))
config = SrecConfig(frames=2, scan_points=60, scene_points=600)
SrecKernel().setup(config)
print(built())
SrecKernel().setup(config.replace(backend="vectorized"))
print(built())
"""


def test_vectorized_setup_imports_the_kd_tree_outside_the_roi(tmp_path):
    """The vectorized tier's one-time kd-tree core build is paid in setup."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    cache = tmp_path / "cache"
    cache.mkdir()
    env = dict(os.environ, PYTHONPATH=src, RTRBENCH_CACHE_DIR=str(cache))
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_SCRIPT], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout.split()
    assert out == ["False", "True"]
