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

from repro.geometry.transforms import wrap_angle
from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, registry
from repro.robots.bicycle import BicycleModel, BicycleState

N_STATE = 4  # x, y, theta, v
N_CONTROL = 2  # accel, steer


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
        """
        prof = self.profiler
        t_len = self.horizon
        controls = np.zeros((t_len, N_CONTROL))
        with prof.phase("optimize"):
            for _ in range(self.iterations):
                with prof.phase("dynamics"):
                    states = self.model.rollout(state, controls, self.dt)
                # Linearize along the nominal trajectory.
                a_mats = np.empty((t_len, N_STATE, N_STATE))
                b_mats = np.empty((t_len, N_STATE, N_CONTROL))
                for t in range(t_len):
                    st = BicycleState.from_array(states[t])
                    a_mats[t], b_mats[t] = self.model.jacobians(
                        st, controls[t, 0], controls[t, 1], self.dt
                    )
                # Backward Riccati pass on the error system.
                s_mat = self.q.copy()
                s_vec = self.q @ self._state_error(states[t_len], reference[t_len])
                k_gains = np.empty((t_len, N_CONTROL, N_STATE))
                k_ff = np.empty((t_len, N_CONTROL))
                for t in range(t_len - 1, -1, -1):
                    a, b = a_mats[t], b_mats[t]
                    btsb = b.T @ s_mat @ b + self.r
                    inv = np.linalg.inv(btsb)
                    k_gains[t] = inv @ (b.T @ s_mat @ a)
                    k_ff[t] = inv @ (b.T @ s_vec + self.r @ controls[t])
                    a_cl = a - b @ k_gains[t]
                    s_vec = (
                        a_cl.T @ (s_vec - s_mat @ b @ k_ff[t])
                        + self.q @ self._state_error(states[t], reference[t])
                    )
                    s_mat = (
                        a_cl.T @ s_mat @ a_cl
                        + k_gains[t].T @ self.r @ k_gains[t]
                        + self.q
                    )
                    prof.count("riccati_steps", 1)
                # Forward pass: apply the affine policy, clamped.
                new_controls = np.empty_like(controls)
                current = state
                for t in range(t_len):
                    err = self._state_error(
                        current.as_array(), reference[t]
                    )
                    u = controls[t] - k_gains[t] @ err - 0.2 * k_ff[t]
                    u[0], u[1] = self.model.clamp_control(u[0], u[1])
                    new_controls[t] = u
                    with prof.phase("dynamics"):
                        current = self.model.step(
                            current, u[0], u[1], self.dt
                        )
                controls = new_controls
        return controls

    @staticmethod
    def _state_error(state: np.ndarray, reference: np.ndarray) -> np.ndarray:
        err = state - reference
        err[2] = wrap_angle(err[2])
        return err

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

    steps: int = option(150, "Reference trajectory length (control steps)")
    horizon: int = option(12, "MPC lookahead horizon")
    dt: float = option(0.1, "Control period (s)")
    speed: float = option(8.0, "Reference speed (m/s)")
    iterations: int = option(3, "Linearize-solve iterations per step")


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
