"""Synthetic point-cloud scenes and scan simulation.

The paper evaluates srec on the ICL-NUIM ``living_room`` RGB-D sequence.
This module generates a living-room-like scene — floor, walls, and box/
plane furniture surfaces, sampled into a dense point cloud — and simulates
the robot's successive scans: each scan is a subsampled, noise-perturbed
copy of the scene observed under a known rigid camera motion.  Ground-truth
motions let the experiments verify ICP's registration error, which the
real dataset cannot (it would need the authors' trajectory tooling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.envs.cache import cached_workload
from repro.geometry.transforms import RigidTransform3D, rotation_matrix_3d


def _sample_box_surface(
    rng: np.random.Generator,
    center: Tuple[float, float, float],
    size: Tuple[float, float, float],
    n: int,
) -> np.ndarray:
    """Sample ``n`` points uniformly from the surface of an axis-aligned box."""
    cx, cy, cz = center
    sx, sy, sz = size
    areas = np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy, sx * sy])
    faces = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(-0.5, 0.5, size=n)
    pts = np.empty((n, 3))
    for face in range(6):
        mask = faces == face
        axis = face // 2
        sign = 1.0 if face % 2 == 0 else -1.0
        size_v = np.array([sx, sy, sz])
        p = np.zeros((int(mask.sum()), 3))
        p[:, axis] = sign * size_v[axis] / 2.0
        others = [a for a in range(3) if a != axis]
        p[:, others[0]] = u[mask] * size_v[others[0]]
        p[:, others[1]] = v[mask] * size_v[others[1]]
        pts[mask] = p + np.array([cx, cy, cz])
    return pts


def _sample_plane(
    rng: np.random.Generator,
    origin: Tuple[float, float, float],
    extent_u: Tuple[float, float, float],
    extent_v: Tuple[float, float, float],
    n: int,
) -> np.ndarray:
    """Sample ``n`` points on a planar patch spanned by two edge vectors."""
    u = rng.uniform(0.0, 1.0, size=(n, 1))
    v = rng.uniform(0.0, 1.0, size=(n, 1))
    return (
        np.asarray(origin)
        + u * np.asarray(extent_u)
        + v * np.asarray(extent_v)
    )


# living_room gives each surface int(n_points * share) points.  The
# floor's 0.25 is the largest share, so 4 points is the smallest scene
# with any point (int(4 * 0.25) = 1; every share of 3 points rounds to 0).
# An empty scene makes empty scans, which srec cannot register.  A
# one-point scene makes one-point scans, which ICP registers and fusion
# keeps.
LIVING_ROOM_MIN_POINTS = 4


@cached_workload("living_room")
def living_room(
    n_points: int = 12000, seed: int = 0
) -> np.ndarray:
    """A living-room-like scene as an ``(m, 3)`` point cloud (meters).

    ``m`` is at most ``n_points``: each surface gets its share of
    ``n_points`` rounded down, so the floors can drop a few points
    (``n_points=9000`` gives 8998; 800 and 12000 are exact).

    Contents: floor, two walls, a sofa (two boxes), a table (top + legs),
    and a cabinet — flat and boxy surfaces like the ICL-NUIM room, which is
    what gives ICP its planar-patch correspondence structure.
    """
    rng = np.random.default_rng(seed)
    room_w, room_d, room_h = 5.0, 4.0, 2.5
    budget = {
        "floor": 0.25,
        "wall_x": 0.15,
        "wall_y": 0.15,
        "sofa_seat": 0.10,
        "sofa_back": 0.08,
        "table_top": 0.08,
        "cabinet": 0.12,
        "legs": 0.07,
    }
    clouds: List[np.ndarray] = []
    clouds.append(
        _sample_plane(rng, (0, 0, 0), (room_w, 0, 0), (0, room_d, 0),
                      int(n_points * budget["floor"]))
    )
    clouds.append(
        _sample_plane(rng, (0, 0, 0), (room_w, 0, 0), (0, 0, room_h),
                      int(n_points * budget["wall_x"]))
    )
    clouds.append(
        _sample_plane(rng, (0, 0, 0), (0, room_d, 0), (0, 0, room_h),
                      int(n_points * budget["wall_y"]))
    )
    clouds.append(
        _sample_box_surface(rng, (1.2, 3.2, 0.25), (1.8, 0.8, 0.5),
                            int(n_points * budget["sofa_seat"]))
    )
    clouds.append(
        _sample_box_surface(rng, (1.2, 3.7, 0.65), (1.8, 0.2, 0.8),
                            int(n_points * budget["sofa_back"]))
    )
    clouds.append(
        _sample_plane(rng, (2.6, 1.2, 0.7), (1.2, 0, 0), (0, 0.7, 0),
                      int(n_points * budget["table_top"]))
    )
    clouds.append(
        _sample_box_surface(rng, (4.4, 0.5, 0.6), (0.6, 0.9, 1.2),
                            int(n_points * budget["cabinet"]))
    )
    n_leg = int(n_points * budget["legs"]) // 4
    for lx, ly in ((2.65, 1.25), (3.75, 1.25), (2.65, 1.85), (3.75, 1.85)):
        clouds.append(
            _sample_box_surface(rng, (lx, ly, 0.35), (0.06, 0.06, 0.7), n_leg)
        )
    return np.vstack(clouds)


@dataclass
class SimulatedScan:
    """One sensor frame: points in the *camera* frame + ground-truth pose."""

    points: np.ndarray  # (n, 3) in the scan's own frame
    true_pose: RigidTransform3D  # camera-to-world: world = pose.apply(points)


def simulate_scan(
    scene: np.ndarray,
    pose: RigidTransform3D,
    n_points: int = 3000,
    noise_sigma: float = 0.005,
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> SimulatedScan:
    """Observe ``scene`` from camera pose ``pose``.

    Subsamples the scene, maps it into the camera frame (the inverse
    pose), adds isotropic Gaussian sensor noise, and optionally drops a
    fraction of points — giving two scans only partial overlap, as between
    consecutive RGB-D frames.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = min(n_points, len(scene))
    idx = rng.choice(len(scene), size=n, replace=False)
    world_pts = scene[idx]
    if dropout > 0.0:
        keep = rng.random(n) >= dropout
        world_pts = world_pts[keep]
    cam_pts = pose.inverse().apply(world_pts)
    cam_pts = cam_pts + rng.normal(0.0, noise_sigma, size=cam_pts.shape)
    return SimulatedScan(points=cam_pts, true_pose=pose)


def scan_trajectory(
    scene: np.ndarray,
    n_frames: int,
    max_rotation: float = 0.08,
    max_translation: float = 0.10,
    n_points: int = 3000,
    noise_sigma: float = 0.005,
    seed: int = 0,
) -> List[SimulatedScan]:
    """A sequence of scans under a smooth random-walk camera motion.

    Frame-to-frame motion stays small (``max_rotation`` rad,
    ``max_translation`` m) so ICP's local convergence assumption holds,
    matching consecutive frames of a handheld/robot camera.
    """
    rng = np.random.default_rng(seed)
    pose = RigidTransform3D.identity()
    scans = []
    for _ in range(n_frames):
        scans.append(
            simulate_scan(scene, pose, n_points, noise_sigma, rng=rng)
        )
        d_rot = rotation_matrix_3d(
            rng.uniform(-max_rotation, max_rotation),
            rng.uniform(-max_rotation, max_rotation),
            rng.uniform(-max_rotation, max_rotation),
        )
        d_t = rng.uniform(-max_translation, max_translation, size=3)
        pose = pose.compose(RigidTransform3D(d_rot, d_t))
    return scans
