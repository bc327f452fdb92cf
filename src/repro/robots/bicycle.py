"""Kinematic bicycle model — the MPC plant (self-driving car)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.transforms import wrap_angle


@dataclass
class BicycleState:
    """Car state: position, heading, and longitudinal speed."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0
    v: float = 0.0

    def as_array(self) -> np.ndarray:
        """``[x, y, theta, v]`` as a numpy vector."""
        return np.array([self.x, self.y, self.theta, self.v])

    @staticmethod
    def from_array(s: np.ndarray) -> "BicycleState":
        """Inverse of :meth:`as_array`."""
        return BicycleState(float(s[0]), float(s[1]), float(s[2]), float(s[3]))


class BicycleModel:
    """Kinematic bicycle with acceleration and steering-angle inputs.

    Controls are ``(a, delta)``: longitudinal acceleration (m/s^2) and
    front-wheel steering angle (rad).  Both are saturated, as are speed
    limits — these become the MPC constraints ("not exceeding predefined
    velocity and acceleration values", paper section V.14).
    """

    def __init__(
        self,
        wheelbase: float = 2.7,
        max_speed: float = 15.0,
        max_accel: float = 3.0,
        max_steer: float = 0.6,
    ) -> None:
        if wheelbase <= 0:
            raise ValueError("wheelbase must be positive")
        self.wheelbase = float(wheelbase)
        self.max_speed = float(max_speed)
        self.max_accel = float(max_accel)
        self.max_steer = float(max_steer)

    def clamp_control(self, a: float, delta: float) -> tuple:
        """Saturate a control to the actuator limits."""
        return (
            max(-self.max_accel, min(self.max_accel, a)),
            max(-self.max_steer, min(self.max_steer, delta)),
        )

    def propagate(
        self, x: float, y: float, theta: float, v: float,
        a: float, delta: float, dt: float,
    ) -> tuple:
        """:meth:`step` on plain floats: the next ``(x, y, theta, v)``.

        The one copy of the plant's Euler arithmetic; :meth:`step`,
        :meth:`rollout` and the MPC's forward pass all call it, so they
        agree bit for bit.
        """
        a, delta = self.clamp_control(a, delta)
        return (
            x + v * math.cos(theta) * dt,
            y + v * math.sin(theta) * dt,
            wrap_angle(theta + v / self.wheelbase * math.tan(delta) * dt),
            max(0.0, min(self.max_speed, v + a * dt)),
        )

    def step(
        self, state: BicycleState, a: float, delta: float, dt: float
    ) -> BicycleState:
        """Integrate one timestep with forward Euler."""
        return BicycleState(
            *self.propagate(state.x, state.y, state.theta, state.v, a, delta, dt)
        )

    def rollout(
        self, state: BicycleState, controls: np.ndarray, dt: float
    ) -> np.ndarray:
        """Simulate a control sequence; returns ``(T+1, 4)`` state array.

        ``controls`` is ``(T, 2)`` of (a, delta) pairs; row 0 of the result
        is the initial state.
        """
        current = (state.x, state.y, state.theta, state.v)
        states = [current]
        for a, delta in np.asarray(controls, dtype=float).tolist():
            current = self.propagate(*current, a, delta, dt)
            states.append(current)
        return np.array(states, dtype=float)

    def jacobian_entries(
        self, theta: float, v: float, delta: float, dt: float
    ) -> tuple:
        """The nonzero off-identity entries of :meth:`step`'s Jacobians.

        At heading ``theta``, speed ``v`` and steering angle ``delta``,
        returns ``(a02, a03, a12, a13, a23, b21)``: ``A`` is the identity
        plus ``a02 a03 a12 a13 a23`` at those (row, column) places, and
        ``B`` is zero but for ``b21`` and ``B[3, 0] = dt``.  The MPC's
        Riccati pass works on these scalars; :meth:`jacobians` builds
        the matrices from them.
        """
        wb = self.wheelbase
        ct, st = math.cos(theta), math.sin(theta)
        return (
            -v * st * dt,
            ct * dt,
            v * ct * dt,
            st * dt,
            math.tan(delta) / wb * dt,
            v / (wb * math.cos(delta) ** 2) * dt,
        )

    def jacobians(
        self, state: BicycleState, a: float, delta: float, dt: float
    ) -> tuple:
        """Discrete-time Jacobians (A, B) of :meth:`step` at a point.

        Built from :meth:`jacobian_entries`; :meth:`linearize` adds the
        affine term.
        """
        a02, a03, a12, a13, a23, b21 = self.jacobian_entries(
            state.theta, state.v, delta, dt
        )
        A = np.array(
            [
                [1.0, 0.0, a02, a03],
                [0.0, 1.0, a12, a13],
                [0.0, 0.0, 1.0, a23],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        B = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, b21], [dt, 0.0]])
        return A, B

    def linearize(
        self, state: BicycleState, a: float, delta: float, dt: float
    ) -> tuple:
        """Affine linearization (A, B, c) of :meth:`step` at a point.

        Returns matrices such that ``x' ~= A x + B u + c``, with ``A`` and
        ``B`` from :meth:`jacobians`.
        """
        A, B = self.jacobians(state, a, delta, dt)
        x = state.as_array()
        u = np.array([a, delta])
        next_state = self.step(state, a, delta, dt).as_array()
        c = next_state - A @ x - B @ u
        return A, B, c
