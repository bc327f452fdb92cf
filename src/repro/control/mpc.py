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

        The plan is rolled out once (phase ``dynamics``); each iteration
        then runs the backward Riccati pass of the matrix form

            H = B^T S B + R,  K = H^-1 (B^T S A),
            kf = H^-1 (B^T s + R u),  A_cl = A - B K,
            s <- A_cl^T (s - S B kf) + Q e,
            S <- A_cl^T (S A_cl) + (K^T R) K + Q,

        and a clamped forward pass ``u <- u - K e - 0.2 kf``, whose
        propagated states are the next iteration's rollout, all in
        plain float arithmetic in one fixed order, with no BLAS call, so
        the bits do not depend on the host's linear-algebra build:

        * ``A`` and ``B`` are the plant's Jacobians: the identity plus
          the entries of :meth:`BicycleModel.jacobian_entries`, and
          ``B[3, 0] = dt``.  Every product drops its structural zero
          terms and folds its ``x 1.0`` terms; what is left sums over
          the inner index in ascending order.
        * ``S`` is held as its upper triangle, ``s_ij`` with ``i <= j``;
          ``Q`` and ``R`` are diagonal.
        * ``H`` is symmetric (``h01`` is ``(B^T S)[0] B[:, 1]``) and is
          inverted in closed form; ``det == 0`` or a non-finite ``det``
          raises :class:`numpy.linalg.LinAlgError`.
        * ``S B kf`` is ``s_i3 (b30 kf0) + s_i2 (b21 kf1)``.
        """
        t_len = self.horizon
        reference = np.asarray(reference, dtype=float)
        if reference.shape != (t_len + 1, N_STATE):
            raise ValueError(
                f"reference window must be ({t_len + 1}, {N_STATE}), "
                f"got {reference.shape}"
            )
        # Python floats, also when a caller hands numpy scalars: every
        # scalar below derives from x0, and np.float64 arithmetic gives
        # the same bits but runs ~2.5x slower.
        x0 = (float(state.x), float(state.y), float(state.theta),
              float(state.v))
        if not (np.isfinite(reference).all() and all(map(math.isfinite, x0))):
            raise ValueError("state and reference window must be finite")
        prof = self.profiler
        model, dt = self.model, self.dt
        b30 = dt  # B[3, 0]
        propagate, clamp = model.propagate, model.clamp_control
        jacobian_entries = model.jacobian_entries
        q0, q1, q2, q3 = np.diagonal(self.q).tolist()
        r0, r1 = np.diagonal(self.r).tolist()
        ref_rows = reference.tolist()
        controls = [(0.0, 0.0)] * t_len
        # Per step: K's eight entries, then 0.2 kf.
        policy = [None] * t_len
        with prof.phase("optimize"):
            with prof.phase("dynamics"):
                current = x0
                states = [current]
                for u_a, u_d in controls:
                    current = propagate(*current, u_a, u_d, dt)
                    states.append(current)
            for _ in range(self.iterations):
                # Terminal cost-to-go: S = Q, s = Q e_T.
                x, y, theta, v = states[t_len]
                rx, ry, rtheta, rv = ref_rows[t_len]
                s00, s11, s22, s33 = q0, q1, q2, q3
                s01 = s02 = s03 = s12 = s13 = s23 = 0.0
                sv0 = (x - rx) * q0
                sv1 = (y - ry) * q1
                sv2 = wrap_angle(theta - rtheta) * q2
                sv3 = (v - rv) * q3
                # Backward Riccati pass on the error system.
                for t in range(t_len - 1, -1, -1):
                    x, y, theta, v = states[t]
                    rx, ry, rtheta, rv = ref_rows[t]
                    u_a, u_d = controls[t]
                    a02, a03, a12, a13, a23, b21 = jacobian_entries(
                        theta, v, u_d, dt
                    )
                    # B^T S: row 0 is b30 S[3], row 1 is b21 S[2].
                    p0, p1, p2, p3 = b30 * s03, b30 * s13, b30 * s23, b30 * s33
                    m0, m1, m2, m3 = b21 * s02, b21 * s12, b21 * s22, b21 * s23
                    h00 = p3 * b30 + r0
                    h01 = p2 * b21
                    h11 = m2 * b21 + r1
                    det = h00 * h11 - h01 * h01
                    if det == 0.0 or not math.isfinite(det):
                        raise np.linalg.LinAlgError("Singular matrix")
                    i00, i01, i11 = h11 / det, -h01 / det, h00 / det
                    # G = (B^T S) A, then K = H^-1 G.
                    g02 = p0 * a02 + p1 * a12 + p2
                    g03 = p0 * a03 + p1 * a13 + p2 * a23 + p3
                    g12 = m0 * a02 + m1 * a12 + m2
                    g13 = m0 * a03 + m1 * a13 + m2 * a23 + m3
                    k00, k10 = i00 * p0 + i01 * m0, i01 * p0 + i11 * m0
                    k01, k11 = i00 * p1 + i01 * m1, i01 * p1 + i11 * m1
                    k02, k12 = i00 * g02 + i01 * g12, i01 * g02 + i11 * g12
                    k03, k13 = i00 * g03 + i01 * g13, i01 * g03 + i11 * g13
                    # kf = H^-1 (B^T s + R u).
                    c0 = b30 * sv3 + r0 * u_a
                    c1 = b21 * sv2 + r1 * u_d
                    kf0 = i00 * c0 + i01 * c1
                    kf1 = i01 * c0 + i11 * c1
                    policy[t] = (k00, k01, k02, k03, k10, k11, k12, k13,
                                 0.2 * kf0, 0.2 * kf1)
                    # A_cl = A - B K: rows 0 and 1 are A's, rows 2 and 3
                    # are c2j and c3j.
                    c20, c21 = -(b21 * k10), -(b21 * k11)
                    c22, c23 = 1.0 - b21 * k12, a23 - b21 * k13
                    c30, c31 = -(b30 * k00), -(b30 * k01)
                    c32, c33 = -(b30 * k02), 1.0 - b30 * k03
                    # s <- A_cl^T w + Q e, with w = s - S B kf.
                    d0, d1 = b30 * kf0, b21 * kf1
                    w0 = sv0 - (s03 * d0 + s02 * d1)
                    w1 = sv1 - (s13 * d0 + s12 * d1)
                    w2 = sv2 - (s23 * d0 + s22 * d1)
                    w3 = sv3 - (s33 * d0 + s23 * d1)
                    sv0 = w0 + c20 * w2 + c30 * w3 + (x - rx) * q0
                    sv1 = w1 + c21 * w2 + c31 * w3 + (y - ry) * q1
                    sv2 = (a02 * w0 + a12 * w1 + c22 * w2 + c32 * w3
                           + wrap_angle(theta - rtheta) * q2)
                    sv3 = (a03 * w0 + a13 * w1 + c23 * w2 + c33 * w3
                           + (v - rv) * q3)
                    # N = S A_cl (n10 is not needed) ...
                    n00 = s00 + s02 * c20 + s03 * c30
                    n01 = s01 + s02 * c21 + s03 * c31
                    n02 = s00 * a02 + s01 * a12 + s02 * c22 + s03 * c32
                    n03 = s00 * a03 + s01 * a13 + s02 * c23 + s03 * c33
                    n11 = s11 + s12 * c21 + s13 * c31
                    n12 = s01 * a02 + s11 * a12 + s12 * c22 + s13 * c32
                    n13 = s01 * a03 + s11 * a13 + s12 * c23 + s13 * c33
                    n20 = s02 + s22 * c20 + s23 * c30
                    n21 = s12 + s22 * c21 + s23 * c31
                    n22 = s02 * a02 + s12 * a12 + s22 * c22 + s23 * c32
                    n23 = s02 * a03 + s12 * a13 + s22 * c23 + s23 * c33
                    n30 = s03 + s23 * c20 + s33 * c30
                    n31 = s13 + s23 * c21 + s33 * c31
                    n32 = s03 * a02 + s13 * a12 + s23 * c22 + s33 * c32
                    n33 = s03 * a03 + s13 * a13 + s23 * c23 + s33 * c33
                    # ... K^T R ...
                    rk00, rk01 = k00 * r0, k01 * r0
                    rk02, rk03 = k02 * r0, k03 * r0
                    rk10, rk11 = k10 * r1, k11 * r1
                    rk12, rk13 = k12 * r1, k13 * r1
                    # ... and S <- A_cl^T N + (K^T R) K + Q.
                    s00 = (n00 + c20 * n20 + c30 * n30
                           + (rk00 * k00 + rk10 * k10) + q0)
                    s01 = (n01 + c20 * n21 + c30 * n31
                           + (rk00 * k01 + rk10 * k11))
                    s02 = (n02 + c20 * n22 + c30 * n32
                           + (rk00 * k02 + rk10 * k12))
                    s03 = (n03 + c20 * n23 + c30 * n33
                           + (rk00 * k03 + rk10 * k13))
                    s11 = (n11 + c21 * n21 + c31 * n31
                           + (rk01 * k01 + rk11 * k11) + q1)
                    s12 = (n12 + c21 * n22 + c31 * n32
                           + (rk01 * k02 + rk11 * k12))
                    s13 = (n13 + c21 * n23 + c31 * n33
                           + (rk01 * k03 + rk11 * k13))
                    s22 = (a02 * n02 + a12 * n12 + c22 * n22 + c32 * n32
                           + (rk02 * k02 + rk12 * k12) + q2)
                    s23 = (a02 * n03 + a12 * n13 + c22 * n23 + c32 * n33
                           + (rk02 * k03 + rk12 * k13))
                    s33 = (a03 * n03 + a13 * n13 + c23 * n23 + c33 * n33
                           + (rk03 * k03 + rk13 * k13) + q3)
                prof.count("riccati_steps", t_len)
                # Forward pass: apply the affine policy, clamped.  Its
                # states are the next iteration's rollout.
                new_controls = []
                current = x0
                states = [current]
                for t, (u_a, u_d) in enumerate(controls):
                    x, y, theta, v = current
                    rx, ry, rtheta, rv = ref_rows[t]
                    e0, e1 = x - rx, y - ry
                    e2, e3 = wrap_angle(theta - rtheta), v - rv
                    k00, k01, k02, k03, k10, k11, k12, k13, f0, f1 = policy[t]
                    u = clamp(
                        u_a - (k00 * e0 + k01 * e1 + k02 * e2 + k03 * e3) - f0,
                        u_d - (k10 * e0 + k11 * e1 + k12 * e2 + k13 * e3) - f1,
                    )
                    new_controls.append(u)
                    current = propagate(*current, *u, dt)
                    states.append(current)
                controls = new_controls
        return np.array(controls)

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
        # Floats, not plan[0]'s np.float64 entries, keep the plant state
        # (and so the next tick's solve) in Python float arithmetic.
        a, delta = plan[0].tolist()
        with prof.phase("dynamics"):
            session.state = self.model.step(session.state, a, delta, self.dt)
        session.driven.append(session.state.as_array())
        session.applied.append(plan[0].copy())
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
