"""Kernel 01.pfl — particle filter localization (paper section V.1).

A robot with an odometer and a laser rangefinder localizes against a known
map.  Particles hypothesize the robot's pose; each update propagates them
through the noisy odometry model, weights them by matching ray-cast
expected ranges against the actual scan (the beam sensor model), and
resamples.  Ray-casting is the instrumented hot phase — the paper measures
it at 67-78% of execution time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.envs.mapgen import wean_hall_like
from repro.geometry import raycast
from repro.geometry.grid2d import OccupancyGrid2D
from repro.geometry.transforms import SE2
from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, registry
from repro.search.dijkstra import shortest_grid_path
from repro.sensors.lidar import Lidar
from repro.sensors.odometry import OdometryModel, OdometryReading


class ParticleFilter:
    """Monte Carlo localization over an occupancy grid.

    ``poses`` is an ``(n, 3)`` array of particle hypotheses; ``weights``
    their normalized importance weights.  The sensor model is the standard
    beam mixture: a Gaussian hit component around the expected range plus
    a uniform random-measurement floor, evaluated in log space.

    Two standard MCL robustness mechanisms are built in:

    * ``likelihood_power`` tempers the joint beam likelihood (beams are
      correlated, so the naive product is overconfident by orders of
      magnitude and collapses the filter onto one particle after a single
      scan);
    * Augmented MCL (Thrun et al.): short/long-term likelihood averages
      ``w_fast``/``w_slow`` drive random-particle injection, so the filter
      can recover when it has converged onto a wrong corridor mode.
    """

    def __init__(
        self,
        grid: OccupancyGrid2D,
        lidar: Lidar,
        motion_model: OdometryModel,
        n_particles: int = 300,
        hit_sigma: float = 0.3,
        uniform_floor: float = 1e-3,
        ess_threshold: float = 0.5,
        likelihood_power: float = 0.2,
        alpha_slow: float = 0.05,
        alpha_fast: float = 0.5,
        rng: Optional[np.random.Generator] = None,
        profiler: Optional[PhaseProfiler] = None,
        backend: str = "reference",
    ) -> None:
        if n_particles < 1:
            raise ValueError("need at least one particle")
        if backend not in ("reference", "vectorized"):
            raise ValueError("backend must be 'reference' or 'vectorized'")
        if not 0.0 <= ess_threshold <= 1.0:
            raise ValueError("ess_threshold must be in [0, 1]")
        if likelihood_power <= 0.0:
            raise ValueError("likelihood_power must be positive")
        if not (math.isfinite(hit_sigma) and hit_sigma > 0.0):
            raise ValueError(
                f"hit_sigma must be finite and positive, got {hit_sigma}"
            )
        self.grid = grid
        self.lidar = lidar
        self.motion_model = motion_model
        self.n_particles = int(n_particles)
        self.hit_sigma = float(hit_sigma)
        self.uniform_floor = float(uniform_floor)
        self.ess_threshold = float(ess_threshold)
        self.likelihood_power = float(likelihood_power)
        self.alpha_slow = float(alpha_slow)
        self.alpha_fast = float(alpha_fast)
        self.backend = backend
        self.w_slow = 0.0
        self.w_fast = 0.0
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        self.poses = np.zeros((self.n_particles, 3))
        self.weights = np.full(self.n_particles, 1.0 / self.n_particles)

    # -- initialization -----------------------------------------------------

    def initialize_uniform(self) -> None:
        """Scatter particles uniformly over the map's free space.

        "All particles are initially sampled from a uniform random
        distribution, meaning the robot could be anywhere" (section V.1).
        """
        free_rows, free_cols = np.nonzero(~self.grid.cells)
        idx = self.rng.integers(len(free_rows), size=self.n_particles)
        res = self.grid.resolution
        ox, oy = self.grid.origin
        self.poses[:, 0] = ox + (free_cols[idx] + self.rng.random(self.n_particles)) * res
        self.poses[:, 1] = oy + (free_rows[idx] + self.rng.random(self.n_particles)) * res
        self.poses[:, 2] = self.rng.uniform(-math.pi, math.pi, self.n_particles)
        self.weights[:] = 1.0 / self.n_particles

    def initialize_around(self, pose: SE2, sigma_xy: float, sigma_theta: float) -> None:
        """Scatter particles around a prior pose (tracking mode)."""
        self.poses[:, 0] = pose.x + self.rng.normal(0, sigma_xy, self.n_particles)
        self.poses[:, 1] = pose.y + self.rng.normal(0, sigma_xy, self.n_particles)
        self.poses[:, 2] = pose.theta + self.rng.normal(0, sigma_theta, self.n_particles)
        self.weights[:] = 1.0 / self.n_particles

    # -- filter update -------------------------------------------------------

    def update(self, odometry: OdometryReading, scan: np.ndarray) -> None:
        """One filter step: motion update, sensor weighting, resampling."""
        prof = self.profiler
        with prof.phase("motion_update"):
            self.poses = self.motion_model.sample_batch(
                self.poses, odometry, self.rng
            )
        with prof.phase("raycast"):
            expected = self.lidar.expected_ranges_batch(
                self.grid, self.poses, count=prof.count, backend=self.backend
            )
        with prof.phase("weight"):
            log_w = self._log_likelihood(expected, scan)
            # Augmented MCL bookkeeping: the weighted mean *per-beam*
            # likelihood is an absolute measure of how well the current
            # particle set explains the scan; its short/long-term averages
            # drive random-particle injection.
            per_beam = np.exp(log_w / self.lidar.n_beams)
            mean_lik = float(np.dot(self.weights, per_beam))
            self.w_slow += self.alpha_slow * (mean_lik - self.w_slow)
            self.w_fast += self.alpha_fast * (mean_lik - self.w_fast)
            # Beam-correlation temper: raise the likelihood to a power < 1.
            log_w = log_w * self.likelihood_power
            # Particles whose hypothesis sits inside an obstacle are killed.
            occupied = self.grid.occupied_world_batch(
                self.poses[:, 0], self.poses[:, 1]
            )
            log_w[occupied] = -np.inf
            log_w -= log_w.max() if np.isfinite(log_w.max()) else 0.0
            # Accumulate evidence into the persistent weights.
            weights = self.weights * np.exp(log_w)
            total = weights.sum()
            if total <= 0.0 or not np.isfinite(total):
                weights = np.full(self.n_particles, 1.0 / self.n_particles)
            else:
                weights = weights / total
            self.weights = weights
        with prof.phase("resample"):
            # Resample only when the effective sample size degenerates;
            # resampling every step starves particle diversity before the
            # corridor evidence can disambiguate symmetric hypotheses.
            ess = 1.0 / float(np.sum(self.weights**2))
            if ess < self.ess_threshold * self.n_particles:
                self._low_variance_resample()
                self._inject_random_particles()

    def _log_likelihood(
        self, expected: np.ndarray, scan: np.ndarray
    ) -> np.ndarray:
        """Beam-model log-likelihood of the scan for each particle."""
        diff = expected - scan[None, :]
        hit = np.exp(-0.5 * (diff / self.hit_sigma) ** 2) / (
            self.hit_sigma * math.sqrt(2 * math.pi)
        )
        per_beam = np.log(hit + self.uniform_floor)
        return per_beam.sum(axis=1)

    def _inject_random_particles(self) -> None:
        """Augmented-MCL recovery: replace a fraction with fresh uniforms.

        When the short-term likelihood average ``w_fast`` drops below the
        long-term average ``w_slow``, the filter is likely tracking a
        wrong mode; ``max(0, 1 - w_fast / w_slow)`` of the particles are
        replaced with uniform samples so the true pose can be rediscovered.
        """
        if self.w_slow <= 0.0:
            return
        frac = max(0.0, 1.0 - self.w_fast / self.w_slow)
        n_inject = int(frac * self.n_particles)
        if n_inject == 0:
            return
        free_rows, free_cols = np.nonzero(~self.grid.cells)
        idx = self.rng.integers(len(free_rows), size=n_inject)
        res = self.grid.resolution
        ox, oy = self.grid.origin
        victims = self.rng.choice(self.n_particles, size=n_inject, replace=False)
        self.poses[victims, 0] = ox + (free_cols[idx] + self.rng.random(n_inject)) * res
        self.poses[victims, 1] = oy + (free_rows[idx] + self.rng.random(n_inject)) * res
        self.poses[victims, 2] = self.rng.uniform(-math.pi, math.pi, n_inject)

    def _low_variance_resample(self) -> None:
        """Systematic (low-variance) resampling."""
        n = self.n_particles
        positions = (self.rng.random() + np.arange(n)) / n
        cumulative = np.cumsum(self.weights)
        cumulative[-1] = 1.0
        idx = np.searchsorted(cumulative, positions)
        self.poses = self.poses[idx]
        self.weights = np.full(n, 1.0 / n)

    # -- estimates ------------------------------------------------------------

    def estimate(self) -> SE2:
        """Weighted mean pose (circular mean for the heading)."""
        w = self.weights
        x = float(np.dot(w, self.poses[:, 0]))
        y = float(np.dot(w, self.poses[:, 1]))
        theta = float(
            math.atan2(
                np.dot(w, np.sin(self.poses[:, 2])),
                np.dot(w, np.cos(self.poses[:, 2])),
            )
        )
        return SE2(x, y, theta)

    def spread(self) -> float:
        """RMS distance of particles from their mean position.

        The convergence metric for the paper's Fig. 2: large when
        particles cover the building, small once they collapse onto the
        robot's true state.
        """
        mean = self.poses[:, :2].mean(axis=0)
        return float(
            np.sqrt(np.mean(np.sum((self.poses[:, :2] - mean) ** 2, axis=1)))
        )


# -- workload ------------------------------------------------------------------


@dataclass
class PflWorkload:
    """Everything pfl consumes: the map, the scans, and ground truth."""

    grid: OccupancyGrid2D
    lidar: Lidar
    motion_model: OdometryModel
    odometry: List[OdometryReading]
    scans: List[np.ndarray]
    true_poses: List[SE2]


def make_pfl_workload(
    region: int = 0,
    n_steps: int = 25,
    n_beams: int = 12,
    seed: int = 0,
    grid: Optional[OccupancyGrid2D] = None,
    map_rows: int = 160,
    map_cols: int = 200,
) -> PflWorkload:
    """Generate a localization run in one part of the building.

    ``region`` selects one of five start/goal areas (the paper evaluates
    pfl "in five different parts of the building").  The true trajectory
    follows a shortest path between two free cells; odometry readings and
    noisy scans are derived from it, the scans of all ``n_steps`` poses in
    one :meth:`Lidar.measure` batch.
    """
    if grid is None:
        grid = wean_hall_like(rows=map_rows, cols=map_cols, seed=seed)
    rng = np.random.default_rng(seed * 101 + region)
    lidar = Lidar(n_beams=n_beams, max_range=12.0, noise_sigma=0.05)
    motion = OdometryModel()

    # Region anchors: five distinct areas of the floorplan.
    anchors = [
        (0.2, 0.2), (0.2, 0.8), (0.8, 0.2), (0.8, 0.8), (0.5, 0.5),
    ]
    ar, ac = anchors[region % len(anchors)]
    free = np.argwhere(~grid.cells)
    target = np.array([ar * grid.rows, ac * grid.cols])
    start_cell = tuple(free[np.argmin(np.abs(free - target).sum(axis=1))])
    # Goal: a free cell far from the start.
    dists = np.abs(free - np.asarray(start_cell)).sum(axis=1)
    candidates = free[dists > dists.max() * 0.5]
    goal_cell = tuple(candidates[int(rng.integers(len(candidates)))])
    cells = shortest_grid_path(grid.cells, start_cell, goal_cell)
    if not cells:
        raise RuntimeError("generated map has no path between regions")
    # Subsample the cell path into n_steps+1 poses with headings.
    idx = np.linspace(0, len(cells) - 1, n_steps + 1).astype(int)
    poses: List[SE2] = []
    for k, i in enumerate(idx):
        r, c = cells[i]
        x, y = grid.cell_to_world(r, c)
        j = idx[min(k + 1, len(idx) - 1)]
        nr, nc = cells[j]
        nx, ny = grid.cell_to_world(nr, nc)
        theta = math.atan2(ny - y, nx - x) if (nx, ny) != (x, y) else (
            poses[-1].theta if poses else 0.0
        )
        poses.append(SE2(x, y, theta))
    odometry = [
        OdometryModel.reading_between(a, b)
        for a, b in zip(poses[:-1], poses[1:])
    ]
    scans = list(lidar.measure(
        grid, np.array([[p.x, p.y, p.theta] for p in poses[1:]]), rng
    ))
    return PflWorkload(
        grid=grid,
        lidar=lidar,
        motion_model=motion,
        odometry=odometry,
        scans=scans,
        true_poses=poses,
    )


# -- kernel ---------------------------------------------------------------------


@dataclass
class PflConfig(KernelConfig):
    """Configuration of the pfl kernel."""

    particles: int = option(1000, "Number of particles", at_least=1)
    beams: int = option(24, "Laser beams per scan", at_least=1)
    steps: int = option(25, "Trajectory length (filter updates)", at_least=1)
    region: int = option(0, "Which part of the building (0-4)", at_least=0, at_most=4)
    hit_sigma: float = option(0.3, "Beam model hit standard deviation (m)", above=0)
    map_rows: int = option(160, "Building map height (cells)", at_least=1)
    map_cols: int = option(200, "Building map width (cells)", at_least=1)


@registry.register
class PflKernel(Kernel):
    """Particle filter localization over the wean-hall-like map."""

    name = "01.pfl"
    stage = "perception"
    config_cls = PflConfig
    description = "Particle filter localization (ray-casting bound)"
    backends = ("reference", "vectorized")

    def setup(self, config: PflConfig) -> PflWorkload:
        if config.backend == "vectorized":
            raycast.load_core()  # builds the ray caster here, not in the ROI
        return make_pfl_workload(
            region=config.region,
            n_steps=config.steps,
            n_beams=config.beams,
            seed=config.seed,
            map_rows=config.map_rows,
            map_cols=config.map_cols,
        )

    # Steppable protocol: one step processes one (odometry, scan) pair —
    # exactly one iteration of the robot's sensor loop.

    def begin_roi(
        self, config: PflConfig, state: PflWorkload, profiler: PhaseProfiler
    ) -> dict:
        pf = ParticleFilter(
            state.grid,
            state.lidar,
            state.motion_model,
            n_particles=config.particles,
            hit_sigma=config.hit_sigma,
            rng=np.random.default_rng(config.seed),
            profiler=profiler,
            backend=config.backend,
        )
        pf.initialize_uniform()
        return {"pf": pf, "spread_before": pf.spread()}

    def num_steps(self, config: PflConfig, state: PflWorkload) -> int:
        return min(len(state.odometry), len(state.scans))

    def step(self, index, session, profiler) -> None:
        state = session.state
        session.payload["pf"].update(
            state.odometry[index], state.scans[index]
        )

    def finalize(self, session) -> dict:
        pf = session.payload["pf"]
        state = session.state
        estimate = pf.estimate()
        true_final = state.true_poses[-1]
        return {
            "estimate": estimate,
            "true_pose": true_final,
            "error": estimate.distance_to(true_final),
            "spread_before": session.payload["spread_before"],
            "spread_after": pf.spread(),
        }
