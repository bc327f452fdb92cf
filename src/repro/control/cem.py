"""Kernel 15.cem — cross-entropy method policy search (section V.15).

The ball-throwing robot learns its throw parameters (two joint angles and
a force) by Monte Carlo optimization: draw parameter samples from a
Gaussian policy, roll them out in the simulator, *sort* by reward (the
phase the paper measures at roughly a third of execution time), and refit
the policy to the elite fraction.  The paper executes 5 iterations of 15
samples; those are the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, registry
from repro.robots.ball_thrower import BallThrower


class CrossEntropyMethod:
    """Gaussian-policy CEM over a black-box reward function."""

    def __init__(
        self,
        reward_fn: Callable[[np.ndarray], float],
        bounds: np.ndarray,
        n_samples: int = 15,
        elite_fraction: float = 0.3,
        min_sigma: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        bounds = np.asarray(bounds, dtype=float)
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise ValueError("bounds must be (dims, 2)")
        if not 0.0 < elite_fraction <= 1.0:
            raise ValueError("elite_fraction must be in (0, 1]")
        self.reward_fn = reward_fn
        self.bounds = bounds
        self.n_samples = int(n_samples)
        self.n_elite = max(1, int(round(n_samples * elite_fraction)))
        self.min_sigma = float(min_sigma)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        self.mean = bounds.mean(axis=1)
        self.sigma = (bounds[:, 1] - bounds[:, 0]) / 4.0
        self.reward_history: List[float] = []
        self.sample_rewards: List[float] = []

    def iterate(self) -> Tuple[np.ndarray, float]:
        """One CEM iteration; returns (elite mean, best reward)."""
        prof = self.profiler
        with prof.phase("rollout"):
            samples = self.rng.normal(
                self.mean, self.sigma, size=(self.n_samples, len(self.mean))
            )
            samples = np.clip(samples, self.bounds[:, 0], self.bounds[:, 1])
            rewards = np.array([self.reward_fn(s) for s in samples])
            prof.count("rollouts", self.n_samples)
        with prof.phase("sort"):
            order = np.argsort(rewards)[::-1]  # descending: best first
            prof.count("sort_elements", self.n_samples)
        with prof.phase("refit"):
            elite = samples[order[: self.n_elite]]
            self.mean = elite.mean(axis=0)
            self.sigma = np.maximum(elite.std(axis=0), self.min_sigma)
        self.sample_rewards.extend(rewards[order].tolist())
        best = float(rewards[order[0]])
        self.reward_history.append(best)
        return self.mean.copy(), best

    def optimize(self, n_iterations: int = 5) -> Tuple[np.ndarray, float]:
        """Run CEM; returns (final policy mean, best reward seen)."""
        best = -float("inf")
        for _ in range(n_iterations):
            _, reward = self.iterate()
            best = max(best, reward)
        return self.mean.copy(), best


@dataclass
class CemConfig(KernelConfig):
    """Configuration of the cem kernel (paper: 5 iterations x 15 samples)."""

    iterations: int = option(5, "CEM iterations", at_least=1)
    samples: int = option(15, "Samples per iteration", at_least=1)
    elite_fraction: float = option(
        0.3, "Elite fraction refit each iteration", above=0, at_most=1
    )
    goal_x: float = option(3.0, "Target landing distance (m)")


@registry.register
class CemKernel(Kernel):
    """CEM policy search on the ball-throwing robot."""

    name = "15.cem"
    stage = "control"
    config_cls = CemConfig
    description = "Cross-entropy method policy search (sort bound)"

    def setup(self, config: CemConfig) -> BallThrower:
        return BallThrower(goal_x=config.goal_x)

    # Steppable protocol: one step is one CEM generation (sample,
    # evaluate, sort, refit) — the unit ``optimize`` loops over.

    def begin_roi(
        self, config: CemConfig, state: BallThrower, profiler: PhaseProfiler
    ) -> dict:
        cem = CrossEntropyMethod(
            reward_fn=state.reward,
            bounds=state.parameter_bounds,
            n_samples=config.samples,
            elite_fraction=config.elite_fraction,
            rng=np.random.default_rng(config.seed),
            profiler=profiler,
        )
        return {"cem": cem, "best": -float("inf")}

    def num_steps(self, config: CemConfig, state: BallThrower) -> int:
        return config.iterations

    def step(self, index, session, profiler) -> None:
        _, reward = session.payload["cem"].iterate()
        session.payload["best"] = max(session.payload["best"], reward)

    def finalize(self, session) -> dict:
        cem = session.payload["cem"]
        best = session.payload["best"]
        return {
            "policy": cem.mean.copy(),
            "best_reward": best,
            "reward_history": cem.reward_history,
            "sample_rewards": cem.sample_rewards,
            "final_landing_error": -best,
        }
