"""Potential energy catalog and analytic reference distributions.

Potentials U(t, x) drive force-based demons, annealing, and the Monte Carlo
samplers; the Gaussian / mixture classes double as score oracles.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError


def central_difference_gradient(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class Potential:
    """Time-dependent scalar field with analytic gradient."""

    time_dependent = False

    def value(self, t, x):
        raise NotImplementedError

    def gradient(self, t, x):
        return central_difference_gradient(lambda y: self.value(t, y), x)


class QuadraticPotential(Potential):
    """U = 0.5 (x - center)^T P (x - center)."""

    def __init__(self, center, precision=None):
        self.center = np.asarray(center, dtype=float).reshape(-1)
        n = self.center.size
        self.precision = np.eye(n) if precision is None else np.atleast_2d(
            np.asarray(precision, dtype=float))

    def value(self, t, x):
        r = np.asarray(x, dtype=float) - self.center
        return 0.5 * r @ self.precision @ r

    def gradient(self, t, x):
        return self.precision @ (np.asarray(x, dtype=float) - self.center)


class DoubleWellPotential(Potential):
    """U = sum_i (x_i^2 - 1)^2, minima at every corner of {-1, +1}^N."""

    def value(self, t, x):
        x = np.asarray(x, dtype=float)
        return float(np.sum((x * x - 1.0) ** 2))

    def gradient(self, t, x):
        x = np.asarray(x, dtype=float)
        return 4.0 * x * (x * x - 1.0)


class Gaussian:
    """N(mu, cov) with log-density, score, and sampling."""

    def __init__(self, mean, cov):
        self.mean = np.asarray(mean, dtype=float).reshape(-1)
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if cov.shape != (self.mean.size,) * 2:
            raise ContractViolationError("cov shape inconsistent with mean")
        try:
            self._chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ContractViolationError("covariance must be SPD") from exc
        self.cov = cov
        self.precision = np.linalg.inv(cov)
        self._log_norm = -0.5 * (self.mean.size * np.log(2 * np.pi)
                                 + 2 * np.sum(np.log(np.diag(self._chol))))

    @property
    def dim(self):
        return self.mean.size

    def log_density(self, x):
        """log N(x; mu, cov) for one point (n,) or a batch (..., n)."""
        r = np.asarray(x, dtype=float) - self.mean
        return self._log_norm - 0.5 * (r * (r @ self.precision.T)).sum(-1)

    def score(self, x):
        """-P (x - mu) for one point (n,) or a batch (..., n)."""
        return -((np.asarray(x, dtype=float) - self.mean) @ self.precision.T)

    def sample(self, rng, n=None):
        shape = (self.dim,) if n is None else (n, self.dim)
        z = rng.standard_normal(shape)
        return self.mean + z @ self._chol.T


class GaussianMixture:
    """Weighted Gaussian mixture; score is the responsibility-weighted sum.

    Component means, precisions and log w_k + log_norm_k are stacked once, so
    each evaluation is a few array operations over (..., K, n) for one point
    (n,) or a batch (..., n).  Log-sum-exps are shifted by their maximum, so
    a point far from every mode keeps finite responsibilities.
    """

    def __init__(self, weights, components):
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        if np.any(self.weights <= 0) or abs(self.weights.sum() - 1) > 1e-9:
            raise ContractViolationError("weights must be positive and sum to 1")
        if len(components) != self.weights.size:
            raise ContractViolationError("one component per weight")
        self.components = list(components)
        if len({c.dim for c in self.components}) != 1:
            raise ContractViolationError("components must share one dimension")
        self._means = np.stack([c.mean for c in self.components])
        self._precisions = np.stack([c.precision for c in self.components])
        self._log_coef = np.log(self.weights) + np.array([c._log_norm for c in self.components])

    @property
    def dim(self):
        return self.components[0].dim

    def _terms(self, x):
        """Per-component P_k (x - mu_k), shape (..., K, n), and log joints (..., K)."""
        r = np.asarray(x, dtype=float)[..., None, :] - self._means
        pr = np.matmul(self._precisions, r[..., None])[..., 0]
        return pr, self._log_coef - 0.5 * (r * pr).sum(-1)

    def log_density(self, x):
        lj = self._terms(x)[1]
        top = lj.max(-1)
        return top + np.log(np.exp(lj - top[..., None]).sum(-1))

    def score(self, x):
        pr, lj = self._terms(x)
        w = np.exp(lj - lj.max(-1, keepdims=True))
        return -(w[..., None] * pr).sum(-2) / w.sum(-1, keepdims=True)

    def sample(self, rng, n=None):
        if n is None:
            k = rng.choice(self.weights.size, p=self.weights)
            return self.components[k].sample(rng)
        ks = rng.choice(self.weights.size, size=n, p=self.weights)
        return np.stack([self.components[k].sample(rng) for k in ks])


class NegativeLogDensityPotential(Potential):
    """U = -log p for a Gaussian or mixture; gradient is minus the score."""

    def __init__(self, distribution):
        self.distribution = distribution

    def value(self, t, x):
        return -self.distribution.log_density(x)

    def gradient(self, t, x):
        return -self.distribution.score(np.asarray(x, dtype=float))


def potential_catalog():
    """Named constructors for the closed-form potential entries."""
    return {
        "quadratic": QuadraticPotential,
        "double_well": DoubleWellPotential,
        "gaussian_neg_log": lambda mean, cov: NegativeLogDensityPotential(Gaussian(mean, cov)),
        "mixture_neg_log": lambda weights, components: NegativeLogDensityPotential(
            GaussianMixture(weights, components)),
    }
