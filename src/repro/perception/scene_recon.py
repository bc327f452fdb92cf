"""Kernel 03.srec — 3D scene reconstruction in dynamic scenes (V.3).

The robot's camera produces a sequence of point-cloud scans under unknown
(to the algorithm) motion; reconstruction registers each incoming scan
against the running model with ICP and fuses the aligned points into a
voxel-deduplicated global map, following the point-based-fusion approach
of Keller et al. that the paper implements.  Phases: ``correspondence``
(ICP nearest neighbors — the irregular memory traffic the paper measures
at >68% of time), ``transform_estimation`` (SVD), ``apply_transform``,
and ``fusion`` (model update).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.envs.pointcloud import (
    LIVING_ROOM_MIN_POINTS,
    SimulatedScan,
    living_room,
    scan_trajectory,
)
from repro.geometry.kdtree import load_core
from repro.geometry.transforms import RigidTransform3D
from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, registry
from repro.perception.icp import icp


#: Voxel keys pack into one int64 as three 21-bit fields, so each
#: integer key must lie strictly within ``±_KEY_LIMIT``.
_KEY_BITS = 21
_KEY_LIMIT = 1 << (_KEY_BITS - 1)

#: Rows the fused-model buffer starts with; it doubles when full.
_INITIAL_CAPACITY = 1024


class SceneReconstruction:
    """Incremental point-based scene model built by ICP registration.

    ``integrate`` aligns a new scan to the current model and merges the
    aligned points, deduplicating at ``fusion_voxel`` resolution so the
    model grows with *scene coverage* rather than frame count.

    The model is a float64 row buffer, one row per voxel in the order the
    voxels were first observed, plus a sorted index from packed voxel key
    to row.
    """

    def __init__(
        self,
        fusion_voxel: float = 0.05,
        icp_iterations: int = 20,
        icp_subsample: int = 1500,
        profiler: Optional[PhaseProfiler] = None,
        backend: str = "reference",
    ) -> None:
        if fusion_voxel <= 0:
            raise ValueError("fusion_voxel must be positive")
        self.fusion_voxel = float(fusion_voxel)
        self.icp_iterations = int(icp_iterations)
        self.icp_subsample = int(icp_subsample)
        self.backend = backend
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        # Zero-filled, so two models holding the same voxels compare equal
        # buffer and all.
        self._buffer = np.zeros((_INITIAL_CAPACITY, 3))
        self._count = 0
        self._keys = np.empty(0, dtype=np.int64)  # sorted packed keys
        self._key_rows = np.empty(0, dtype=np.int64)  # row of each key
        self.poses: List[RigidTransform3D] = []

    # -- model access -----------------------------------------------------------

    @property
    def n_points(self) -> int:
        """Number of fused model points."""
        return self._count

    def model_points(self) -> np.ndarray:
        """The fused model as an ``(n, 3)`` array (a copy)."""
        return self._buffer[: self._count].copy()

    # -- integration ---------------------------------------------------------------

    def integrate(self, scan_points: np.ndarray) -> RigidTransform3D:
        """Register one scan against the model and fuse it.

        The first scan defines the world frame.  Returns the estimated
        camera pose of the scan.  Raises ``ValueError`` before touching
        the model when the scan is not a non-empty ``(n, 3)`` array of
        finite coordinates.
        """
        prof = self.profiler
        scan_points = np.asarray(scan_points, dtype=float)
        if (
            scan_points.ndim != 2
            or scan_points.shape[1] != 3
            or len(scan_points) == 0
        ):
            raise ValueError(
                "scan must be a non-empty (n, 3) array, got shape "
                f"{scan_points.shape}"
            )
        if not np.isfinite(scan_points).all():
            raise ValueError("scan points must be finite")
        if self._count == 0:
            pose = RigidTransform3D.identity()
            self._fuse(scan_points)
            self.poses.append(pose)
            return pose
        model = self._buffer[: self._count]
        rng = np.random.default_rng(len(self.poses))
        src = scan_points
        if len(src) > self.icp_subsample:
            src = src[rng.choice(len(src), self.icp_subsample, replace=False)]
        if len(model) > 2 * self.icp_subsample:
            model = model[
                rng.choice(len(model), 2 * self.icp_subsample, replace=False)
            ]
        initial = self.poses[-1]  # motion prior: previous camera pose
        result = icp(
            src,
            model,
            max_iterations=self.icp_iterations,
            initial=initial,
            profiler=prof,
            backend=self.backend,
        )
        pose = result.transform
        with prof.phase("fusion"):
            self._fuse(pose.apply(scan_points))
        self.poses.append(pose)
        return pose

    def _fuse(self, world_points: np.ndarray) -> None:
        """Voxel-deduplicated point merge (running average per voxel).

        Keys round to the nearest voxel *center*, so flat surfaces lying
        on lattice-aligned coordinates sit mid-voxel instead of exactly on
        a boundary — otherwise sub-millimeter registration jitter flips
        half of a planar scene into neighboring voxels every frame.

        A voxel new to the model takes the next row, in the order its key
        first appears in the scan, and starts at that first point.  Every
        later hit folds in as ``0.5 * (row + point)``, one rank at a time,
        so the hits on one voxel fold in scan order.
        """
        scaled = np.floor(world_points / self.fusion_voxel + 0.5)
        if not (np.abs(scaled) < _KEY_LIMIT).all():
            raise ValueError(
                f"a scan point lies more than {_KEY_LIMIT - 1} voxels from "
                f"the origin at fusion_voxel={self.fusion_voxel}"
            )
        keys = scaled.astype(np.int64) + _KEY_LIMIT
        packed = (
            (keys[:, 0] << (2 * _KEY_BITS))
            | (keys[:, 1] << _KEY_BITS)
            | keys[:, 2]
        )
        voxels, first, inverse = np.unique(
            packed, return_index=True, return_inverse=True
        )
        slots = np.searchsorted(self._keys, voxels)
        known = slots < len(self._keys)
        known[known] = self._keys[slots[known]] == voxels[known]
        voxel_rows = np.empty(len(voxels), dtype=np.int64)
        voxel_rows[known] = self._key_rows[slots[known]]
        new = np.flatnonzero(~known)  # in key order
        arrival = new[np.argsort(first[new])]  # in scan order
        voxel_rows[arrival] = self._count + np.arange(len(new))
        self._keys = np.insert(self._keys, slots[new], voxels[new])
        self._key_rows = np.insert(self._key_rows, slots[new], voxel_rows[new])
        self._reserve(self._count + len(new))
        self._count += len(new)

        rows = voxel_rows[inverse]
        seeds = first[new]
        self._buffer[rows[seeds]] = world_points[seeds]
        # Rank of each point among its voxel's hits, in scan order.
        by_voxel = np.argsort(inverse, kind="stable")
        hits = np.bincount(inverse)
        rank = np.empty(len(world_points), dtype=np.int64)
        rank[by_voxel] = np.arange(len(world_points)) - np.repeat(
            np.cumsum(hits) - hits, hits
        )
        rank[seeds] = -1
        folds = np.flatnonzero(rank >= 0)
        folds = folds[np.argsort(rank[folds], kind="stable")]
        for group in np.split(folds, np.flatnonzero(np.diff(rank[folds])) + 1):
            target = rows[group]
            self._buffer[target] = 0.5 * (
                self._buffer[target] + world_points[group]
            )
        self.profiler.count("fused_points", len(world_points))

    def _reserve(self, rows: int) -> None:
        """Grow the buffer (doubling) until it holds ``rows`` rows."""
        capacity = len(self._buffer)
        if rows <= capacity:
            return
        while capacity < rows:
            capacity *= 2
        grown = np.zeros((capacity, 3))
        grown[: self._count] = self._buffer[: self._count]
        self._buffer = grown


# -- workload -----------------------------------------------------------------------


@dataclass
class SrecWorkload:
    """The scan sequence plus ground truth for error evaluation."""

    scans: List[SimulatedScan]
    scene: np.ndarray


def make_srec_workload(
    n_frames: int = 6,
    scene_points: int = 9000,
    scan_points: int = 1800,
    noise_sigma: float = 0.004,
    seed: int = 0,
) -> SrecWorkload:
    """Simulated living-room scan sequence (ICL-NUIM substitute)."""
    scene = living_room(n_points=scene_points, seed=seed)
    scans = scan_trajectory(
        scene,
        n_frames=n_frames,
        n_points=scan_points,
        noise_sigma=noise_sigma,
        seed=seed + 1,
    )
    return SrecWorkload(scans=scans, scene=scene)


# -- kernel --------------------------------------------------------------------------


@dataclass
class SrecConfig(KernelConfig):
    """Configuration of the srec kernel."""

    frames: int = option(6, "Number of camera frames to fuse", at_least=1)
    scan_points: int = option(1800, "Points per scan", at_least=1)
    scene_points: int = option(
        9000, "Points in the underlying scene", at_least=LIVING_ROOM_MIN_POINTS
    )
    icp_iterations: int = option(15, "Max ICP iterations per frame", at_least=1)
    noise_sigma: float = option(0.004, "Sensor noise std dev (m)", at_least=0)


@registry.register
class SrecKernel(Kernel):
    """Scene reconstruction over the synthetic living room."""

    name = "03.srec"
    stage = "perception"
    config_cls = SrecConfig
    description = "ICP scene reconstruction (memory/NN bound)"
    backends = ("reference", "vectorized")

    def setup(self, config: SrecConfig) -> SrecWorkload:
        if config.backend == "vectorized":
            load_core()  # builds the kd-tree core here, not in the ROI
        return make_srec_workload(
            n_frames=config.frames,
            scene_points=config.scene_points,
            scan_points=config.scan_points,
            noise_sigma=config.noise_sigma,
            seed=config.seed,
        )

    # Steppable protocol: one step integrates one incoming frame (the
    # full ICP refinement for that frame).  A frame is the natural rt
    # job — a deployed reconstructor is released per depth image, and
    # ICP iterations within a frame share mutable alignment state that
    # cannot meaningfully be preempted between releases.

    def begin_roi(
        self, config: SrecConfig, state: SrecWorkload, profiler: PhaseProfiler
    ) -> dict:
        recon = SceneReconstruction(
            icp_iterations=config.icp_iterations,
            profiler=profiler,
            backend=config.backend,
        )
        return {"recon": recon, "pose_errors": []}

    def num_steps(self, config: SrecConfig, state: SrecWorkload) -> int:
        return len(state.scans)

    def step(self, index, session, profiler) -> None:
        scan = session.state.scans[index]
        estimated = session.payload["recon"].integrate(scan.points)
        session.payload["pose_errors"].append(
            float(
                np.linalg.norm(
                    estimated.translation - scan.true_pose.translation
                )
            )
        )

    def finalize(self, session) -> dict:
        recon = session.payload["recon"]
        pose_errors = session.payload["pose_errors"]
        return {
            "pose_errors": pose_errors,
            "final_pose_error": pose_errors[-1],
            "model_points": recon.n_points,
            "recon": recon,
        }
