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

    def step(
        self, state: BicycleState, a: float, delta: float, dt: float
    ) -> BicycleState:
        """Integrate one timestep with forward Euler."""
        a, delta = self.clamp_control(a, delta)
        v = max(0.0, min(self.max_speed, state.v + a * dt))
        theta = wrap_angle(
            state.theta + state.v / self.wheelbase * math.tan(delta) * dt
        )
        return BicycleState(
            x=state.x + state.v * math.cos(state.theta) * dt,
            y=state.y + state.v * math.sin(state.theta) * dt,
            theta=theta,
            v=v,
        )

    def rollout(
        self, state: BicycleState, controls: np.ndarray, dt: float
    ) -> np.ndarray:
        """Simulate a control sequence; returns ``(T+1, 4)`` state array.

        ``controls`` is ``(T, 2)`` of (a, delta) pairs; row 0 of the result
        is the initial state.
        """
        controls = np.asarray(controls, dtype=float)
        states = np.empty((len(controls) + 1, 4))
        states[0] = state.as_array()
        current = state
        for t, (a, delta) in enumerate(controls):
            current = self.step(current, float(a), float(delta), dt)
            states[t + 1] = current.as_array()
        return states

    def jacobians(
        self, state: BicycleState, a: float, delta: float, dt: float
    ) -> tuple:
        """Discrete-time Jacobians (A, B) of :meth:`step` at a point.

        The MPC's iterative LQR-style solver needs only these, not the
        affine term :meth:`linearize` adds.
        """
        v, theta = state.v, state.theta
        ct, st = math.cos(theta), math.sin(theta)
        tan_d = math.tan(delta)
        A = np.array(
            [
                [1, 0, -v * st * dt, ct * dt],
                [0, 1, v * ct * dt, st * dt],
                [0, 0, 1, tan_d / self.wheelbase * dt],
                [0, 0, 0, 1],
            ]
        )
        B = np.array(
            [
                [0.0, 0.0],
                [0.0, 0.0],
                [0.0, v / (self.wheelbase * math.cos(delta) ** 2) * dt],
                [dt, 0.0],
            ]
        )
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
