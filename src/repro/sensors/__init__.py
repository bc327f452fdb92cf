"""Sensor models: odometry, laser rangefinder, and landmark observations.

The perception kernels consume these: pfl fuses odometry with laser scans,
ekfslam fuses odometry with range-bearing landmark measurements.  All
models add configurable Gaussian noise, as the paper does ("We add
Gaussian-distributed noise to each sensor measurement").
"""

from repro.sensors.landmarks import LandmarkSensor, RangeBearing
from repro.sensors.lidar import Lidar
from repro.sensors.odometry import OdometryModel, OdometryReading

__all__ = [
    "LandmarkSensor",
    "RangeBearing",
    "Lidar",
    "OdometryModel",
    "OdometryReading",
]
