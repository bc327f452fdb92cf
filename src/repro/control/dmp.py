"""Kernel 13.dmp — dynamic movement primitives (paper section V.13).

A DMP turns a single demonstrated trajectory into a parameterized
attractor system: a virtual spring-damper pulls toward the goal while a
learned forcing term (Gaussian basis functions weighted by imitation-
learned shape parameters) reproduces the demonstration's shape.  Rollout
is inherently sequential — position, velocity, and acceleration are
integrated step by step — which is why the paper measures IPC < 1 and
points at dataflow architectures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, registry


@dataclass
class RolloutSession:
    """Mutable state of one DMP integration.

    ``ys``/``vs``/``accs`` are preallocated for the full episode and
    filled row ``t`` at a time; ``y``/``v``/``s`` are the live
    transformation-system and canonical-phase variables.
    """

    dt: float
    goal: np.ndarray
    tau: float
    steps: int
    ys: np.ndarray
    vs: np.ndarray
    accs: np.ndarray
    y: np.ndarray
    v: np.ndarray
    s: float
    t: int = 0


class DynamicMovementPrimitive:
    """A multi-dimensional discrete DMP (Schaal-style formulation).

    Transformation system (per dimension, time constant tau):

        tau * v' = K (g - y) - D v + f(s)
        tau * y' = v

    with the canonical phase ``tau * s' = -alpha_s * s`` decaying from 1
    to 0 and the forcing term ``f(s) = s * sum_i psi_i(s) w_i / sum_i
    psi_i(s)`` over Gaussian basis functions psi.  The forcing term is
    deliberately *not* scaled by (g - y0): the classic amplitude scaling
    divides by the demonstrated displacement, which explodes for any
    dimension whose start and goal coincide (e.g. a lateral S-curve that
    returns to center).
    """

    def __init__(
        self,
        n_basis: int = 30,
        k_gain: float = 400.0,
        alpha_s: float = 4.0,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        if n_basis < 2:
            raise ValueError("need at least two basis functions")
        self.n_basis = int(n_basis)
        self.k_gain = float(k_gain)
        self.d_gain = 2.0 * math.sqrt(self.k_gain)  # critical damping
        self.alpha_s = float(alpha_s)
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        # Basis centers equally spaced in phase (log-spaced in time).
        self.centers = np.exp(
            -self.alpha_s * np.linspace(0.0, 1.0, self.n_basis)
        )
        self.widths = (np.diff(self.centers) ** 2)
        self.widths = 1.0 / np.concatenate([self.widths, self.widths[-1:]])
        self.weights: Optional[np.ndarray] = None  # (dims, n_basis)
        self.y0: Optional[np.ndarray] = None
        self.goal: Optional[np.ndarray] = None
        self.tau: float = 1.0

    # -- imitation learning --------------------------------------------------

    def _basis(self, s: np.ndarray) -> np.ndarray:
        """Basis activations for phase values ``s``: shape (len(s), n_basis)."""
        s = np.atleast_1d(s)
        return np.exp(
            -self.widths[None, :] * (s[:, None] - self.centers[None, :]) ** 2
        )

    def fit(self, demo: np.ndarray, dt: float) -> None:
        """Learn shape weights from one demonstration (imitation learning).

        ``demo`` is ``(T, dims)`` positions sampled every ``dt`` seconds.
        The target forcing term is recovered from the demonstration's
        derivatives and regressed per basis with locally weighted linear
        regression, the standard single-demonstration procedure.
        """
        prof = self.profiler
        with prof.phase("fit"):
            demo = np.asarray(demo, dtype=float)
            if demo.ndim != 2 or len(demo) < 3:
                raise ValueError("demo must be (T >= 3, dims)")
            steps, dims = demo.shape
            self.tau = (steps - 1) * dt
            self.y0 = demo[0].copy()
            self.goal = demo[-1].copy()
            vel = np.gradient(demo, dt, axis=0)
            acc = np.gradient(vel, dt, axis=0)
            t = np.arange(steps) * dt
            s = np.exp(-self.alpha_s * t / self.tau)
            # f_target from the inverse transformation system.
            f_target = (
                self.tau**2 * acc
                - self.k_gain * (self.goal[None, :] - demo)
                + self.d_gain * self.tau * vel
            )
            psi = self._basis(s)  # (T, n_basis)
            xi = s[:, None] * psi  # regressor per basis
            self.weights = np.empty((dims, self.n_basis))
            for i in range(self.n_basis):
                w_psi = psi[:, i]
                denominator = float(np.sum(w_psi * s * s)) + 1e-10
                for d in range(dims):
                    self.weights[d, i] = (
                        float(np.sum(w_psi * s * f_target[:, d])) / denominator
                    )
            prof.count("regression_solves", self.n_basis * dims)

    # -- rollout --------------------------------------------------------------

    def rollout_begin(
        self,
        dt: float,
        y0: Optional[np.ndarray] = None,
        goal: Optional[np.ndarray] = None,
        tau: Optional[float] = None,
    ) -> "RolloutSession":
        """Start an integration; returns the mutable rollout session."""
        if self.weights is None:
            raise RuntimeError("rollout() before fit()")
        y0 = self.y0.copy() if y0 is None else np.asarray(y0, dtype=float)
        goal = self.goal.copy() if goal is None else np.asarray(goal, dtype=float)
        tau = self.tau if tau is None else float(tau)
        steps = int(round(tau / dt)) + 1
        dims = len(y0)
        return RolloutSession(
            dt=dt,
            goal=goal,
            tau=tau,
            steps=steps,
            ys=np.empty((steps, dims)),
            vs=np.empty((steps, dims)),
            accs=np.empty((steps, dims)),
            y=y0.copy(),
            v=np.zeros(dims),
            s=1.0,
        )

    def rollout_step(self, session: "RolloutSession") -> None:
        """One Euler step of the transformation + canonical systems."""
        prof = self.profiler
        dt, tau, goal = session.dt, session.tau, session.goal
        with prof.phase("integrate"):
            with prof.phase("basis_eval"):
                psi = self._basis(np.array([session.s]))[0]
                denom = float(psi.sum()) + 1e-10
                f = (self.weights @ psi) * session.s / denom
                prof.count("basis_evaluations", self.n_basis)
            acc = (
                self.k_gain * (goal - session.y)
                - self.d_gain * session.v
                + f
            ) / (tau * tau)
            t = session.t
            session.ys[t] = session.y
            session.vs[t] = session.v / tau
            session.accs[t] = acc
            session.v = session.v + acc * dt * tau
            session.y = session.y + session.v * dt / tau
            session.s = session.s + (-self.alpha_s * session.s) * dt / tau
            session.t += 1

    def rollout_result(
        self, session: "RolloutSession"
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (positions, velocities, accelerations) integrated so far.

        A complete session returns the full preallocated arrays; a
        partially driven one returns only the rows its steps filled.
        """
        if session.t >= session.steps:
            return session.ys, session.vs, session.accs
        return (
            session.ys[: session.t],
            session.vs[: session.t],
            session.accs[: session.t],
        )

    def rollout(
        self,
        dt: float,
        y0: Optional[np.ndarray] = None,
        goal: Optional[np.ndarray] = None,
        tau: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integrate the DMP; returns (positions, velocities, accelerations).

        Each sequential step is a measured ``integrate`` phase with a
        nested per-step ``basis_eval``.  Implemented on the incremental
        ``rollout_begin`` / ``rollout_step`` / ``rollout_result`` API, so
        the batch call and a per-timestep driver (the steppable kernel
        protocol) execute identical arithmetic.
        """
        session = self.rollout_begin(dt, y0=y0, goal=goal, tau=tau)
        while session.t < session.steps:
            self.rollout_step(session)
        return self.rollout_result(session)


def demonstration_trajectory(
    steps: int = 200, dt: float = 0.01, kind: str = "s_curve"
) -> np.ndarray:
    """A smooth synthetic demonstration (the in-house wheeled-robot demo).

    ``s_curve`` sweeps forward in x with a smooth lateral S in y using a
    minimum-jerk longitudinal profile — the shape of Fig. 15's reference.
    """
    t = np.linspace(0.0, 1.0, steps)
    min_jerk = 10 * t**3 - 15 * t**4 + 6 * t**5
    if kind == "s_curve":
        x = 15.0 * min_jerk
        y = 2.0 * np.sin(2.0 * math.pi * min_jerk)
        return np.column_stack([x, y])
    if kind == "reach":
        return np.column_stack([min_jerk, min_jerk**2])
    raise ValueError(f"unknown demonstration kind {kind!r}")


@dataclass
class DmpConfig(KernelConfig):
    """Configuration of the dmp kernel."""

    basis: int = option(30, "Number of Gaussian basis functions", at_least=2)
    demo_steps: int = option(200, "Demonstration length (samples)", at_least=3)
    dt: float = option(0.005, "Rollout integration step (s)", above=0)
    k_gain: float = option(400.0, "Spring constant of the attractor", at_least=0)


@registry.register
class DmpKernel(Kernel):
    """DMP trajectory generation (serial integration bound)."""

    name = "13.dmp"
    stage = "control"
    config_cls = DmpConfig
    description = "Dynamic movement primitives (serial dependency bound)"

    def setup(self, config: DmpConfig) -> np.ndarray:
        return demonstration_trajectory(steps=config.demo_steps, dt=0.01)

    #: Demonstration sampling interval (seconds); fixed by the workload.
    DEMO_DT = 0.01

    # Steppable protocol: one step is one Euler integration timestep of
    # the rollout — the serial-dependency unit the paper characterizes.
    # Fitting the demonstration happens in ``begin_roi`` (it is part of
    # the measured ROI, as before, but runs once per episode).

    def begin_roi(
        self, config: DmpConfig, state: np.ndarray, profiler: PhaseProfiler
    ) -> dict:
        dmp = DynamicMovementPrimitive(
            n_basis=config.basis, k_gain=config.k_gain, profiler=profiler
        )
        dmp.fit(state, dt=self.DEMO_DT)
        return {"dmp": dmp, "rollout": dmp.rollout_begin(dt=config.dt)}

    def num_steps(self, config: DmpConfig, state: np.ndarray) -> int:
        # Mirrors ``rollout_begin``: fit() sets tau from the demo length.
        tau = (len(state) - 1) * self.DEMO_DT
        return int(round(tau / config.dt)) + 1

    def step(self, index, session, profiler) -> None:
        session.payload["dmp"].rollout_step(session.payload["rollout"])

    def finalize(self, session) -> dict:
        state = session.state
        dmp = session.payload["dmp"]
        ys, vs, accs = dmp.rollout_result(session.payload["rollout"])
        # Tracking error against the (resampled) demonstration.
        demo_resampled = np.column_stack(
            [
                np.interp(
                    np.linspace(0, 1, len(ys)),
                    np.linspace(0, 1, len(state)),
                    state[:, d],
                )
                for d in range(state.shape[1])
            ]
        )
        rms = float(np.sqrt(np.mean((ys - demo_resampled) ** 2)))
        return {
            "trajectory": ys,
            "velocity": vs,
            "acceleration": accs,
            "reference": demo_resampled,
            "rms_error": rms,
            "endpoint_error": float(np.linalg.norm(ys[-1] - state[-1])),
        }
