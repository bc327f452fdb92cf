"""Planar and spatial rigid transforms.

SE(2) poses carry the robot state for the mobile-robot kernels (pfl, pp2d,
mpc); rotation matrices and rigid transforms in 3D support the point-cloud
kernels (srec) where ICP estimates an SE(3) alignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Vectorized :func:`wrap_angle` over an array, bitwise equal to it.

    ``fmod`` is exact, so ``np.fmod`` and ``math.fmod`` agree bit for bit;
    an ``np.mod`` form would instead return -pi at odd multiples of pi.
    """
    wrapped = np.fmod(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi)
    return np.where(wrapped <= 0.0, wrapped + 2.0 * np.pi, wrapped) - np.pi


@dataclass(frozen=True)
class SE2:
    """A planar rigid transform / robot pose (x, y, heading).

    Composition follows the usual convention: ``a @ b`` applies ``b`` in
    ``a``'s frame (``a`` is the parent).
    """

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __matmul__(self, other: "SE2") -> "SE2":
        c, s = math.cos(self.theta), math.sin(self.theta)
        return SE2(
            x=self.x + c * other.x - s * other.y,
            y=self.y + s * other.x + c * other.y,
            theta=wrap_angle(self.theta + other.theta),
        )

    def inverse(self) -> "SE2":
        """The transform mapping this pose's frame back to its parent."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return SE2(
            x=-(c * self.x + s * self.y),
            y=-(-s * self.x + c * self.y),
            theta=wrap_angle(-self.theta),
        )

    def apply(self, point: Tuple[float, float]) -> Tuple[float, float]:
        """Map a point from this pose's frame into the parent frame."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        px, py = point
        return (self.x + c * px - s * py, self.y + s * px + c * py)

    def apply_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`apply` for an ``(n, 2)`` array of points."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        rot = np.array([[c, -s], [s, c]])
        return points @ rot.T + np.array([self.x, self.y])

    def as_array(self) -> np.ndarray:
        """``[x, y, theta]`` as a numpy vector."""
        return np.array([self.x, self.y, self.theta])

    @staticmethod
    def from_array(v: np.ndarray) -> "SE2":
        """Inverse of :meth:`as_array`."""
        return SE2(float(v[0]), float(v[1]), wrap_angle(float(v[2])))

    def distance_to(self, other: "SE2") -> float:
        """Euclidean translation distance between two poses."""
        return math.hypot(self.x - other.x, self.y - other.y)


def rotation_matrix_3d(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """3x3 rotation from intrinsic roll-pitch-yaw Euler angles."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    return rz @ ry @ rx


@dataclass(frozen=True)
class RigidTransform3D:
    """An SE(3) transform: ``p' = R p + t``.  Used by ICP/scene recon."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    @staticmethod
    def identity() -> "RigidTransform3D":
        """The no-op transform."""
        return RigidTransform3D(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an ``(n, 3)`` point array."""
        return points @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform3D") -> "RigidTransform3D":
        """``self`` after ``other``: applies ``other`` first."""
        return RigidTransform3D(
            rotation=self.rotation @ other.rotation,
            translation=self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform3D":
        """The transform undoing this one."""
        rt = self.rotation.T
        return RigidTransform3D(rotation=rt, translation=-rt @ self.translation)

    def rotation_angle(self) -> float:
        """Magnitude of the rotation, in radians."""
        trace = float(np.trace(self.rotation))
        return math.acos(min(1.0, max(-1.0, (trace - 1.0) / 2.0)))
