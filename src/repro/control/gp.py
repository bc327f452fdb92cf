"""Gaussian process regression (the bo kernel's surrogate model).

A standard RBF-kernel GP with Cholesky-based fitting.  The paper's bo
kernel trains and tests "using a Gaussian process"; this is that
substrate, kept minimal but numerically careful (jitter on the diagonal,
triangular solves instead of explicit inverses).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve


def rbf_kernel(
    a: np.ndarray, b: np.ndarray, length_scale: float, signal_var: float
) -> np.ndarray:
    """Squared-exponential covariance between two point sets."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    d2 = (
        np.sum(a * a, axis=1)[:, None]
        - 2.0 * a @ b.T
        + np.sum(b * b, axis=1)[None, :]
    )
    return signal_var * np.exp(-0.5 * np.maximum(d2, 0.0) / length_scale**2)


class GaussianProcess:
    """GP regression with an RBF kernel and Gaussian observation noise."""

    def __init__(
        self,
        length_scale: float = 1.0,
        signal_var: float = 1.0,
        noise_var: float = 1e-4,
    ) -> None:
        if length_scale <= 0 or signal_var <= 0 or noise_var < 0:
            raise ValueError("kernel hyperparameters must be positive")
        self.length_scale = float(length_scale)
        self.signal_var = float(signal_var)
        self.noise_var = float(noise_var)
        self._x: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._alpha: Optional[np.ndarray] = None
        self._cho = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> None:
        """Condition the GP on observations ``(x, y)``.

        O(n^3) Cholesky factorization — the compute cost the paper notes
        makes bo far more intensive than cem.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(x) != len(y):
            raise ValueError("x and y must have matching lengths")
        self._x = x
        self._y_mean = float(y.mean())
        k = rbf_kernel(x, x, self.length_scale, self.signal_var)
        k[np.diag_indices_from(k)] += self.noise_var + 1e-10
        self._cho = cho_factor(k, lower=True)
        self._alpha = cho_solve(self._cho, y - self._y_mean)

    def predict(
        self, x_query: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at the query points."""
        if self._x is None:
            raise RuntimeError("predict() before fit()")
        x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
        k_star = rbf_kernel(x_query, self._x, self.length_scale, self.signal_var)
        mean = self._y_mean + k_star @ self._alpha
        v = cho_solve(self._cho, k_star.T)
        prior_var = self.signal_var
        var = prior_var - np.einsum("ij,ji->i", k_star, v)
        return mean, np.maximum(var, 1e-12)

    def ucb(self, x_query: np.ndarray, beta: float = 2.0) -> np.ndarray:
        """Upper confidence bound acquisition values at the queries."""
        mean, var = self.predict(x_query)
        return mean + beta * np.sqrt(var)

    def expected_improvement(
        self, x_query: np.ndarray, best_y: float, xi: float = 0.01
    ) -> np.ndarray:
        """Expected improvement over ``best_y`` at the queries.

        EI(x) = (mu - best - xi) Phi(z) + sigma phi(z) with
        z = (mu - best - xi) / sigma — the standard closed form.
        """
        from scipy.stats import norm

        mean, var = self.predict(x_query)
        sigma = np.sqrt(var)
        improvement = mean - best_y - xi
        z = improvement / sigma
        return improvement * norm.cdf(z) + sigma * norm.pdf(z)
