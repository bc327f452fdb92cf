"""Kernel 02.ekfslam — EKF simultaneous localization and mapping (V.2).

The robot moves through an environment with point landmarks, reading noisy
range/bearing measurements; the extended Kalman filter jointly estimates
the robot pose and every landmark position, carrying a full covariance so
uncertainty (the paper's red ellipses) is explicit.  The dominant phase is
the matrix algebra of the predict/update steps — the paper measures >85%
of execution time there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.transforms import SE2, wrap_angle
from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, registry
from repro.sensors.landmarks import LandmarkSensor, RangeBearing


class EKFSlam:
    """EKF-SLAM with known correspondences and range-bearing measurements.

    State vector: ``[x, y, theta, l1x, l1y, ..., lnx, lny]``.  Landmarks
    are initialized on first sight from the measurement; subsequent
    sightings update the joint state.  All matrix work happens inside the
    profiler's ``matrix_ops`` phase.
    """

    def __init__(
        self,
        n_landmarks: int,
        motion_noise: Tuple[float, float, float] = (0.05, 0.05, 0.02),
        range_sigma: float = 0.1,
        bearing_sigma: float = 0.02,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        if n_landmarks < 0:
            raise ValueError("n_landmarks must be non-negative")
        self.n_landmarks = int(n_landmarks)
        dim = 3 + 2 * self.n_landmarks
        self.mu = np.zeros(dim)
        large = 1e6
        self.sigma = np.zeros((dim, dim))
        self.sigma[3:, 3:] = np.eye(2 * self.n_landmarks) * large
        self.seen = [False] * self.n_landmarks
        self.motion_noise = np.diag([v * v for v in motion_noise])
        self.measurement_noise = np.diag(
            [range_sigma * range_sigma, bearing_sigma * bearing_sigma]
        )
        self.profiler = profiler if profiler is not None else PhaseProfiler()

    @property
    def dim(self) -> int:
        """Joint state dimension: 3 + 2 * n_landmarks."""
        return len(self.mu)

    def set_pose(self, pose: SE2) -> None:
        """Initialize the robot pose estimate (known start)."""
        self.mu[0:3] = [pose.x, pose.y, pose.theta]

    # -- EKF steps -------------------------------------------------------------

    def predict(self, v: float, w: float, dt: float) -> None:
        """Motion prediction with a velocity motion model."""
        prof = self.profiler
        with prof.phase("matrix_ops"):
            theta = self.mu[2]
            if abs(w) < 1e-9:
                dx = v * dt * math.cos(theta)
                dy = v * dt * math.sin(theta)
                dtheta = 0.0
                g_small = np.array(
                    [[1.0, 0.0, -v * dt * math.sin(theta)],
                     [0.0, 1.0, v * dt * math.cos(theta)],
                     [0.0, 0.0, 1.0]]
                )
            else:
                radius = v / w
                dx = radius * (math.sin(theta + w * dt) - math.sin(theta))
                dy = -radius * (math.cos(theta + w * dt) - math.cos(theta))
                dtheta = w * dt
                g_small = np.array(
                    [
                        [1.0, 0.0, radius * (math.cos(theta + w * dt) - math.cos(theta))],
                        [0.0, 1.0, radius * (math.sin(theta + w * dt) - math.sin(theta))],
                        [0.0, 0.0, 1.0],
                    ]
                )
            self.mu[0] += dx
            self.mu[1] += dy
            self.mu[2] = wrap_angle(self.mu[2] + dtheta)
            # Full-state Jacobian is identity outside the robot block.
            g = np.eye(self.dim)
            g[0:3, 0:3] = g_small
            r = np.zeros((self.dim, self.dim))
            r[0:3, 0:3] = self.motion_noise
            self.sigma = g @ self.sigma @ g.T + r
            prof.count("matrix_multiplies", 2)

    def update(self, observations: Sequence[RangeBearing]) -> None:
        """Correct the state with a batch of landmark observations."""
        prof = self.profiler
        for obs in observations:
            j = obs.landmark_id
            if not 0 <= j < self.n_landmarks:
                raise ValueError(f"landmark id {j} out of range")
            base = 3 + 2 * j
            with prof.phase("matrix_ops"):
                if not self.seen[j]:
                    # First sighting: place the landmark from the measurement.
                    self.mu[base] = self.mu[0] + obs.range * math.cos(
                        self.mu[2] + obs.bearing
                    )
                    self.mu[base + 1] = self.mu[1] + obs.range * math.sin(
                        self.mu[2] + obs.bearing
                    )
                    self.seen[j] = True
                dx = self.mu[base] - self.mu[0]
                dy = self.mu[base + 1] - self.mu[1]
                q = dx * dx + dy * dy
                sqrt_q = math.sqrt(q)
                z_hat = np.array(
                    [sqrt_q, wrap_angle(math.atan2(dy, dx) - self.mu[2])]
                )
                h = np.zeros((2, self.dim))
                h[0, 0] = -dx / sqrt_q
                h[0, 1] = -dy / sqrt_q
                h[1, 0] = dy / q
                h[1, 1] = -dx / q
                h[1, 2] = -1.0
                h[0, base] = dx / sqrt_q
                h[0, base + 1] = dy / sqrt_q
                h[1, base] = -dy / q
                h[1, base + 1] = dx / q
                s = h @ self.sigma @ h.T + self.measurement_noise
                k = self.sigma @ h.T @ np.linalg.inv(s)
                innovation = np.array(
                    [obs.range - z_hat[0], wrap_angle(obs.bearing - z_hat[1])]
                )
                self.mu = self.mu + k @ innovation
                self.mu[2] = wrap_angle(self.mu[2])
                self.sigma = (np.eye(self.dim) - k @ h) @ self.sigma
                prof.count("matrix_multiplies", 5)
                prof.count("matrix_inversions", 1)

    # -- estimates ---------------------------------------------------------------

    def pose_estimate(self) -> SE2:
        """Current robot pose estimate."""
        return SE2(float(self.mu[0]), float(self.mu[1]), float(self.mu[2]))

    def landmark_estimate(self, j: int) -> np.ndarray:
        """Estimated (x, y) of landmark ``j``."""
        base = 3 + 2 * j
        return self.mu[base : base + 2].copy()

    def landmark_covariance(self, j: int) -> np.ndarray:
        """2x2 covariance block of landmark ``j`` (the uncertainty ellipse)."""
        base = 3 + 2 * j
        return self.sigma[base : base + 2, base : base + 2].copy()

    def pose_covariance(self) -> np.ndarray:
        """3x3 covariance block of the robot pose."""
        return self.sigma[0:3, 0:3].copy()


# -- workload --------------------------------------------------------------------


@dataclass
class EkfSlamWorkload:
    """Controls, observations, and ground truth for one SLAM run."""

    landmarks: np.ndarray
    controls: List[Tuple[float, float]]
    observations: List[List[RangeBearing]]
    true_poses: List[SE2]
    dt: float
    sensor: LandmarkSensor


def make_ekfslam_workload(
    n_landmarks: int = 6,
    n_steps: int = 120,
    dt: float = 0.1,
    seed: int = 0,
) -> EkfSlamWorkload:
    """The paper's synthetic setting: a loop drive among landmarks.

    Landmarks ring the robot's circular trajectory; the robot drives the
    loop reading noisy range/bearing measurements each step (Fig. 3-(a)).
    """
    rng = np.random.default_rng(seed)
    radius = 8.0
    angles = np.linspace(0, 2 * math.pi, n_landmarks, endpoint=False)
    ring = radius * 1.5
    landmarks = np.column_stack(
        [ring * np.cos(angles), ring * np.sin(angles)]
    ) + rng.normal(0, 1.0, size=(n_landmarks, 2))
    sensor = LandmarkSensor(landmarks, max_range=30.0)
    v = 2.0 * math.pi * radius / (n_steps * dt)  # one full loop
    w = 2.0 * math.pi / (n_steps * dt)
    pose = SE2(radius, 0.0, math.pi / 2.0)
    true_poses = [pose]
    controls: List[Tuple[float, float]] = []
    observations: List[List[RangeBearing]] = []
    for _ in range(n_steps):
        controls.append((v, w))
        # Integrate the exact unicycle arc.
        theta = pose.theta
        r = v / w
        pose = SE2(
            pose.x + r * (math.sin(theta + w * dt) - math.sin(theta)),
            pose.y - r * (math.cos(theta + w * dt) - math.cos(theta)),
            wrap_angle(theta + w * dt),
        )
        true_poses.append(pose)
        observations.append(sensor.observe(pose, rng))
    return EkfSlamWorkload(
        landmarks=landmarks,
        controls=controls,
        observations=observations,
        true_poses=true_poses,
        dt=dt,
        sensor=sensor,
    )


# -- kernel ------------------------------------------------------------------------


@dataclass
class EkfSlamConfig(KernelConfig):
    """Configuration of the ekfslam kernel."""

    landmarks: int = option(6, "Number of landmarks in the environment", at_least=1)
    steps: int = option(120, "Trajectory length (filter updates)", at_least=1)
    dt: float = option(0.1, "Timestep (s)", above=0)
    range_sigma: float = option(0.1, "Range measurement noise (m)", above=0)
    bearing_sigma: float = option(0.02, "Bearing measurement noise (rad)", above=0)


@registry.register
class EkfSlamKernel(Kernel):
    """EKF-SLAM on the six-landmark synthetic loop."""

    name = "02.ekfslam"
    stage = "perception"
    config_cls = EkfSlamConfig
    description = "EKF simultaneous localization and mapping (matrix bound)"

    def setup(self, config: EkfSlamConfig) -> EkfSlamWorkload:
        return make_ekfslam_workload(
            n_landmarks=config.landmarks,
            n_steps=config.steps,
            dt=config.dt,
            seed=config.seed,
        )

    # Steppable protocol: one step is one predict/sense/update cycle over
    # the next precomputed observation batch.

    def begin_roi(
        self,
        config: EkfSlamConfig,
        state: EkfSlamWorkload,
        profiler: PhaseProfiler,
    ) -> dict:
        slam = EKFSlam(
            n_landmarks=len(state.landmarks),
            range_sigma=config.range_sigma,
            bearing_sigma=config.bearing_sigma,
            profiler=profiler,
        )
        slam.set_pose(state.true_poses[0])
        return {"slam": slam, "pose_errors": []}

    def num_steps(
        self, config: EkfSlamConfig, state: EkfSlamWorkload
    ) -> int:
        return min(
            len(state.controls),
            len(state.observations),
            len(state.true_poses) - 1,
        )

    def step(self, index, session, profiler) -> None:
        state = session.state
        slam = session.payload["slam"]
        v, w = state.controls[index]
        slam.predict(v, w, state.dt)
        with profiler.phase("sensing"):
            pass  # observations are precomputed in setup
        slam.update(state.observations[index])
        with profiler.phase("bookkeeping"):
            session.payload["pose_errors"].append(
                slam.pose_estimate().distance_to(
                    state.true_poses[index + 1]
                )
            )

    def finalize(self, session) -> dict:
        state = session.state
        slam = session.payload["slam"]
        pose_errors = session.payload["pose_errors"]
        landmark_errors = [
            float(np.linalg.norm(slam.landmark_estimate(j) - state.landmarks[j]))
            for j in range(len(state.landmarks))
            if slam.seen[j]
        ]
        return {
            "pose_errors": pose_errors,
            "final_pose_error": pose_errors[-1],
            "landmark_errors": landmark_errors,
            "mean_landmark_error": float(np.mean(landmark_errors)),
            "slam": slam,
        }
