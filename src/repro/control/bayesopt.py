"""Kernel 16.bo — Bayesian optimization policy search (section V.16).

Same ball-throwing task as cem, optimized data-efficiently: a Gaussian
process surrogate models reward as a function of the throw parameters and
an upper-confidence-bound acquisition picks each next trial.  The paper
runs 45 learning iterations; per iteration the acquisition is evaluated
over a candidate set and *sorted* to select the best — bo keeps more
metadata per candidate than cem, making its sort ~6x more expensive, and
the GP fit makes the kernel far more compute-intensive overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.control.gp import GaussianProcess
from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, registry
from repro.robots.ball_thrower import BallThrower


class BayesianOptimizer:
    """GP + UCB Bayesian optimization over a box-bounded parameter space."""

    def __init__(
        self,
        reward_fn: Callable[[np.ndarray], float],
        bounds: np.ndarray,
        n_candidates: int = 512,
        ucb_beta: float = 2.0,
        length_scale: float = 0.5,
        n_initial: int = 4,
        acquisition: str = "ucb",
        rng: Optional[np.random.Generator] = None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        bounds = np.asarray(bounds, dtype=float)
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise ValueError("bounds must be (dims, 2)")
        if acquisition not in ("ucb", "ei"):
            raise ValueError("acquisition must be 'ucb' or 'ei'")
        self.reward_fn = reward_fn
        self.bounds = bounds
        self.n_candidates = int(n_candidates)
        self.ucb_beta = float(ucb_beta)
        self.n_initial = max(1, int(n_initial))
        self.acquisition = acquisition
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        self.gp = GaussianProcess(length_scale=length_scale, signal_var=1.0,
                                  noise_var=1e-4)
        self.observed_x: List[np.ndarray] = []
        self.observed_y: List[float] = []
        self.reward_history: List[float] = []

    def _normalize(self, x: np.ndarray) -> np.ndarray:
        span = self.bounds[:, 1] - self.bounds[:, 0]
        return (x - self.bounds[:, 0]) / span

    def _sample_candidates(self) -> np.ndarray:
        return self.rng.uniform(
            self.bounds[:, 0],
            self.bounds[:, 1],
            size=(self.n_candidates, len(self.bounds)),
        )

    def _evaluate(self, x: np.ndarray) -> float:
        prof = self.profiler
        with prof.phase("rollout"):
            y = float(self.reward_fn(x))
            prof.count("rollouts", 1)
        self.observed_x.append(np.asarray(x, dtype=float))
        self.observed_y.append(y)
        self.reward_history.append(y)
        return y

    def step(self) -> float:
        """One BO iteration: fit GP, score candidates, pick, evaluate."""
        prof = self.profiler
        with prof.phase("gp_fit"):
            x_train = self._normalize(np.vstack(self.observed_x))
            self.gp.fit(x_train, np.asarray(self.observed_y))
            prof.count("gp_fits", 1)
        candidates = self._sample_candidates()
        with prof.phase("acquisition"):
            normalized = self._normalize(candidates)
            if self.acquisition == "ucb":
                scores = self.gp.ucb(normalized, self.ucb_beta)
            else:
                scores = self.gp.expected_improvement(
                    normalized, best_y=max(self.observed_y)
                )
            prof.count("acquisition_evals", self.n_candidates)
        with prof.phase("sort"):
            # bo keeps the full candidate metadata through the sort (the
            # paper's ~6x-more-expensive sort): candidates, means, and
            # scores travel together.
            order = np.argsort(scores)[::-1]
            ranked = candidates[order]
            prof.count("sort_elements", self.n_candidates)
        return self._evaluate(ranked[0])

    def optimize(self, n_iterations: int = 45) -> Tuple[np.ndarray, float]:
        """Run BO; returns (best parameters, best reward)."""
        for _ in range(min(self.n_initial, n_iterations)):
            x0 = self.rng.uniform(self.bounds[:, 0], self.bounds[:, 1])
            self._evaluate(x0)
        for _ in range(n_iterations - self.n_initial):
            self.step()
        best_idx = int(np.argmax(self.observed_y))
        return self.observed_x[best_idx], float(self.observed_y[best_idx])


@dataclass
class BoConfig(KernelConfig):
    """Configuration of the bo kernel (paper: 45 learning iterations)."""

    iterations: int = option(45, "Bayesian optimization iterations", at_least=1)
    candidates: int = option(512, "Acquisition candidate pool size", at_least=1)
    beta: float = option(2.0, "UCB exploration weight")
    goal_x: float = option(3.0, "Target landing distance (m)")
    acquisition: str = option(
        "ucb", "Acquisition function: ucb or ei", choices=("ucb", "ei")
    )


@registry.register
class BoKernel(Kernel):
    """Bayesian optimization policy search on the ball thrower."""

    name = "16.bo"
    stage = "control"
    config_cls = BoConfig
    description = "Bayesian optimization (GP + UCB; sort + GP bound)"

    def setup(self, config: BoConfig) -> BallThrower:
        return BallThrower(goal_x=config.goal_x)

    def run_roi(
        self, config: BoConfig, state: BallThrower, profiler: PhaseProfiler
    ) -> dict:
        bo = BayesianOptimizer(
            reward_fn=state.reward,
            bounds=state.parameter_bounds,
            n_candidates=config.candidates,
            ucb_beta=config.beta,
            acquisition=config.acquisition,
            rng=np.random.default_rng(config.seed),
            profiler=profiler,
        )
        best_params, best_reward = bo.optimize(config.iterations)
        return {
            "best_params": best_params,
            "best_reward": best_reward,
            "reward_history": bo.reward_history,
            "final_landing_error": -best_reward,
        }
