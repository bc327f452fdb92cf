"""Kernel 14.mpc — model predictive control (paper section V.14).

A self-driving car (kinematic bicycle plant) follows a long reference
trajectory under velocity/acceleration limits.  At every control step the
controller solves a finite-horizon optimal-control problem by iterative
linearization: linearize the dynamics around the current nominal
trajectory, solve the resulting time-varying LQR with a Riccati backward
pass, clamp controls to the constraints, and repeat.  That solver is the
``optimize`` phase — the paper measures >80% of the kernel there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from repro.geometry.transforms import wrap_angle, wrap_angles
from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, registry
from repro.robots.bicycle import BicycleModel, BicycleState

N_STATE = 4  # x, y, theta, v
N_CONTROL = 2  # accel, steer

#: The gufunc ``np.linalg.inv`` dispatches to, without its per-call
#: errstate context (~4x cheaper on a 2x2, same bits).
_inv = _umath_linalg.inv


@dataclass
class TrackingSession:
    """Mutable state of one receding-horizon tracking episode."""

    state: BicycleState
    reference: np.ndarray
    n_steps: int
    driven: List[np.ndarray]
    applied: List[np.ndarray]
    errors: List[float]


class ModelPredictiveController:
    """Iterative-LQR MPC for the bicycle model."""

    def __init__(
        self,
        model: BicycleModel,
        horizon: int = 12,
        dt: float = 0.1,
        iterations: int = 3,
        q_weights: Tuple[float, float, float, float] = (1.0, 1.0, 0.5, 0.5),
        r_weights: Tuple[float, float] = (0.01, 0.1),
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        self.model = model
        self.horizon = int(horizon)
        self.dt = float(dt)
        self.iterations = int(iterations)
        self.q = np.diag(q_weights)
        self.r = np.diag(r_weights)
        self.profiler = profiler if profiler is not None else PhaseProfiler()

    def solve(
        self, state: BicycleState, reference: np.ndarray
    ) -> np.ndarray:
        """Optimal control sequence for the given reference window.

        ``reference`` is ``(horizon+1, 4)`` desired states.  Returns the
        ``(horizon, 2)`` control plan; callers apply the first row
        (receding horizon).

        The closed loop is chaotic, so this is pinned bit for bit to the
        plain per-step form: every multi-term product keeps its numpy
        expression and association (OpenBLAS decides those bits), and
        only products with one nonzero term (diagonal ``q`` and ``r``)
        are batched.
        """
        t_len = self.horizon
        reference = np.asarray(reference, dtype=float)
        if reference.shape != (t_len + 1, N_STATE):
            raise ValueError(
                f"reference window must be ({t_len + 1}, {N_STATE}), "
                f"got {reference.shape}"
            )
        x0 = (state.x, state.y, state.theta, state.v)
        if not (np.isfinite(reference).all() and all(map(math.isfinite, x0))):
            raise ValueError("state and reference window must be finite")
        prof = self.profiler
        model, dt = self.model, self.dt
        q, r = self.q, self.r
        q_diag, r_diag = np.diagonal(q), np.diagonal(r)
        ref_rows = reference.tolist()
        controls = np.zeros((t_len, N_CONTROL))
        # A singular btsb fills the gufunc's output with NaN and sets the
        # invalid flag; it is re-raised as np.linalg.inv's LinAlgError.
        with prof.phase("optimize"), np.errstate(invalid="ignore"):
            for _ in range(self.iterations):
                with prof.phase("dynamics"):
                    states = model.rollout(state, controls, dt)
                # Linearize along the nominal trajectory.
                a_mats, b_mats = model.jacobian_stack(
                    states[:t_len, 2].tolist(),
                    states[:t_len, 3].tolist(),
                    controls[:, 1].tolist(),
                    dt,
                )
                errors = states - reference
                errors[:, 2] = wrap_angles(errors[:, 2])
                q_err = errors * q_diag
                r_u = controls * r_diag
                # Backward Riccati pass on the error system.
                s_mat = q.copy()
                s_vec = q_err[t_len]
                k_gains = [None] * t_len
                k_ff = [None] * t_len
                for t in range(t_len - 1, -1, -1):
                    a, b = a_mats[t], b_mats[t]
                    bts = b.T @ s_mat
                    btsb = bts @ b + r
                    inv = _inv(btsb)
                    if inv[0, 0] != inv[0, 0]:
                        inv = np.linalg.inv(btsb)
                    k = k_gains[t] = inv @ (bts @ a)
                    kf = k_ff[t] = inv @ (b.T @ s_vec + r_u[t])
                    a_cl = a - b @ k
                    s_vec = a_cl.T @ (s_vec - s_mat @ b @ kf) + q_err[t]
                    s_mat = a_cl.T @ s_mat @ a_cl + k.T @ r @ k + q
                prof.count("riccati_steps", t_len)
                # Forward pass: apply the affine policy, clamped.
                feedforward = (0.2 * np.array(k_ff)).tolist()
                new_controls = []
                current = x0
                for t, (u_a, u_d) in enumerate(controls.tolist()):
                    x, y, theta, v = current
                    rx, ry, rtheta, rv = ref_rows[t]
                    err = np.array(
                        [x - rx, y - ry, wrap_angle(theta - rtheta), v - rv]
                    )
                    fb_a, fb_d = (k_gains[t] @ err).tolist()
                    ff_a, ff_d = feedforward[t]
                    u = model.clamp_control(u_a - fb_a - ff_a, u_d - fb_d - ff_d)
                    new_controls.append(u)
                    current = model.propagate(*current, *u, dt)
                controls = np.array(new_controls)
        return controls

    def track_begin(
        self,
        initial: BicycleState,
        reference: np.ndarray,
        steps: Optional[int] = None,
    ) -> "TrackingSession":
        """Start receding-horizon tracking; returns the mutable session."""
        n = len(reference) - 1 if steps is None else min(steps, len(reference) - 1)
        return TrackingSession(
            state=initial,
            reference=reference,
            n_steps=n,
            driven=[initial.as_array()],
            applied=[],
            errors=[],
        )

    def track_step(self, session: "TrackingSession", t: int) -> None:
        """One control tick: plan over the window, apply the first move."""
        prof = self.profiler
        with prof.phase("setup"):
            window = self._window(session.reference, t)
        plan = self.solve(session.state, window)
        u = plan[0]
        with prof.phase("dynamics"):
            session.state = self.model.step(
                session.state, u[0], u[1], self.dt
            )
        session.driven.append(session.state.as_array())
        session.applied.append(u.copy())
        session.errors.append(
            float(np.hypot(session.state.x - session.reference[t + 1, 0],
                           session.state.y - session.reference[t + 1, 1]))
        )

    def track_result(self, session: "TrackingSession") -> dict:
        """Package the driven trajectory a tracking session produced."""
        return {
            "states": np.vstack(session.driven),
            "controls": (
                np.vstack(session.applied)
                if session.applied
                else np.empty((0, 2))
            ),
            "errors": np.array(session.errors),
        }

    def track(
        self,
        initial: BicycleState,
        reference: np.ndarray,
        steps: Optional[int] = None,
    ) -> dict:
        """Receding-horizon tracking of a full reference trajectory.

        Returns the driven states, applied controls, and per-step
        cross-track error.  Implemented on the incremental
        ``track_begin`` / ``track_step`` / ``track_result`` API, so the
        batch call and a per-tick driver (the steppable kernel protocol)
        execute identical arithmetic.
        """
        session = self.track_begin(initial, reference, steps)
        for t in range(session.n_steps):
            self.track_step(session, t)
        return self.track_result(session)

    def _window(self, reference: np.ndarray, t: int) -> np.ndarray:
        end = t + self.horizon + 1
        window = reference[t:end]
        if len(window) < self.horizon + 1:
            pad = np.repeat(window[-1][None, :], self.horizon + 1 - len(window), axis=0)
            window = np.vstack([window, pad])
        return window


def reference_trajectory(
    n_steps: int = 150,
    dt: float = 0.1,
    speed: float = 8.0,
    curvature: float = 0.3,
) -> np.ndarray:
    """A long, smooth road: gentle S-curves at constant target speed.

    Returns ``(n_steps+1, 4)`` reference states (x, y, theta, v).
    """
    xs = [0.0]
    ys = [0.0]
    thetas = [0.0]
    theta = 0.0
    for t in range(n_steps):
        theta = curvature * math.sin(2.0 * math.pi * t / n_steps * 2.0)
        xs.append(xs[-1] + speed * dt * math.cos(theta))
        ys.append(ys[-1] + speed * dt * math.sin(theta))
        thetas.append(theta)
    ref = np.column_stack(
        [xs, ys, thetas, np.full(n_steps + 1, speed)]
    )
    return ref


@dataclass
class MpcConfig(KernelConfig):
    """Configuration of the mpc kernel."""

    steps: int = option(150, "Reference trajectory length (control steps)", at_least=1)
    horizon: int = option(12, "MPC lookahead horizon", at_least=1)
    dt: float = option(0.1, "Control period (s)", above=0)
    speed: float = option(8.0, "Reference speed (m/s)")
    iterations: int = option(3, "Linearize-solve iterations per step", at_least=1)


@registry.register
class MpcKernel(Kernel):
    """MPC trajectory tracking for a car (optimization bound)."""

    name = "14.mpc"
    stage = "control"
    config_cls = MpcConfig
    description = "Model predictive control tracking (optimization bound)"

    def setup(self, config: MpcConfig) -> np.ndarray:
        return reference_trajectory(
            n_steps=config.steps, dt=config.dt, speed=config.speed
        )

    # Steppable protocol: one step is one control tick — plan over the
    # receding window, apply the first control, advance the plant.

    def begin_roi(
        self, config: MpcConfig, state: np.ndarray, profiler: PhaseProfiler
    ) -> dict:
        model = BicycleModel(max_speed=config.speed * 1.5)
        controller = ModelPredictiveController(
            model,
            horizon=config.horizon,
            dt=config.dt,
            iterations=config.iterations,
            profiler=profiler,
        )
        initial = BicycleState(x=0.0, y=0.0, theta=0.0, v=config.speed)
        return {
            "controller": controller,
            "tracking": controller.track_begin(initial, state),
        }

    def num_steps(self, config: MpcConfig, state: np.ndarray) -> int:
        return len(state) - 1

    def step(self, index, session, profiler) -> None:
        session.payload["controller"].track_step(
            session.payload["tracking"], index
        )

    def finalize(self, session) -> dict:
        controller = session.payload["controller"]
        outcome = controller.track_result(session.payload["tracking"])
        outcome["mean_error"] = float(outcome["errors"].mean())
        outcome["max_error"] = float(outcome["errors"].max())
        return outcome
