"""Robot models: kinematics and simple physics plants.

The kernels share a handful of robot embodiments — a car-like vehicle
(pp2d, mpc), a planar n-DoF arm (prm, rrt family), and a 2-DoF ball
thrower (cem, bo, standing in for the paper's V-REP simulation).  pfl's
indoor robot moves through the odometry motion model in ``sensors``.
"""

from repro.robots.arm import PlanarArm
from repro.robots.ball_thrower import BallThrower, ThrowResult
from repro.robots.bicycle import BicycleModel, BicycleState

__all__ = [
    "PlanarArm",
    "BallThrower",
    "ThrowResult",
    "BicycleModel",
    "BicycleState",
]
