"""Distance metrics.

L2-norm evaluation in joint space is one of the bottlenecks the paper
reports for PRM ("frequent L2-norm calculations ... to calculate the
distance of samples in n-dimension space"), so the metric functions are
factored here where the kernels can count them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    """L2 distance between two equal-length vectors."""
    return math.sqrt(squared_euclidean(a, b))


def squared_euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    """Squared L2 distance (avoids the sqrt when only comparing)."""
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    diff = av - bv
    return float(np.dot(diff, diff))


def angular_difference(a: float, b: float) -> float:
    """Smallest absolute difference between two angles, in [0, pi]."""
    diff = math.fmod(a - b, 2.0 * math.pi)
    if diff > math.pi:
        diff -= 2.0 * math.pi
    elif diff < -math.pi:
        diff += 2.0 * math.pi
    return abs(diff)


def joint_space_distance(
    a: Sequence[float], b: Sequence[float], wrap: bool = False
) -> float:
    """Distance between two joint configurations.

    With ``wrap=True`` each coordinate is treated as an angle and measured
    on the circle; otherwise the plain L2 distance is used (the paper's arm
    joints are limited-range, so planar L2 is the default metric).
    """
    if not wrap:
        return euclidean(a, b)
    total = 0.0
    for ai, bi in zip(a, b):
        d = angular_difference(ai, bi)
        total += d * d
    return math.sqrt(total)


def path_length(points: np.ndarray) -> float:
    """Total polyline length of an ``(n, d)`` array of waypoints."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
