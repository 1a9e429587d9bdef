"""Demon drift devices: responsive drift terms injected into the host SDE.

Three constructions: a direct score network (stateless feedforward model), a
total-derivative device that integrates its own output from learned partial
derivatives, and a force-based device that carries a latent phase-space
variable and outputs the negative gradient of a potential.
"""

from __future__ import annotations

import copy
import json

import numpy as np

from .errors import ContractViolationError
from .mlp import MLP
from .potentials import Gaussian, GaussianMixture, central_difference_gradient


class Demon:
    """Contract: query(t, v[, dv_dt]) -> drift vector of fixed dimension M.

    Stateful variants advance per host step via advance(); simulations clone
    stateful demons per trajectory and never share them mid-run.
    """

    stateless = False

    def query(self, t, v, dv_dt=None):
        raise NotImplementedError

    def advance(self, t, v, dv_dt, dt):
        pass

    def reset(self):
        pass

    def clone(self):
        return copy.deepcopy(self)


class ZeroDemon(Demon):
    stateless = True

    def __init__(self, dim):
        self.dim = dim

    def query(self, t, v, dv_dt=None):
        return np.zeros(self.dim)

    def query_batch(self, t, V):
        return np.zeros((V.shape[0], self.dim))

    def clone(self):
        return self


class ScoreNetworkDemon(Demon):
    """Feedforward model s(v, t); stateless between queries.

    Time enters either as an extra affine input or as sinusoidal features.
    Default architecture: two tanh hidden layers of width 64.
    """

    stateless = True

    def __init__(self, dim, hidden=(64, 64), activation="tanh", seed=0,
                 time_embedding="affine", n_frequencies=4, net=None):
        self.dim = dim
        self.time_embedding = time_embedding
        self.n_frequencies = n_frequencies
        t_feats = 1 if time_embedding == "affine" else 2 * n_frequencies
        if net is None:
            net = MLP([dim + t_feats] + list(hidden) + [dim],
                      activation=activation, seed=seed)
        if net.sizes[0] != dim + t_feats or net.sizes[-1] != dim:
            raise ContractViolationError("network sizes inconsistent with dim/embedding")
        self.net = net

    def _features(self, t, V):
        V = np.atleast_2d(np.asarray(V, dtype=float))
        if np.ndim(t) == 0:
            t_col = np.full((V.shape[0], 1), float(t))
        else:
            t_col = np.asarray(t, dtype=float).reshape(-1, 1)
        if self.time_embedding == "affine":
            T = t_col
        else:
            freqs = 2.0 ** np.arange(self.n_frequencies) * np.pi
            T = np.concatenate([np.sin(t_col * freqs), np.cos(t_col * freqs)], axis=1)
        return np.concatenate([V, T], axis=1)

    def query(self, t, v, dv_dt=None):
        out = self.net(self._features(t, v))
        if not np.all(np.isfinite(out)):
            raise ContractViolationError("demon output not finite")
        return out[0]

    def query_batch(self, t, V):
        return self.net(self._features(t, V))

    def forward_with_cache(self, t, V):
        """Training hook: output plus activation cache for backprop."""
        return self.net.forward(self._features(t, V))

    def clone(self):
        return self  # immutable during simulation

    def to_dict(self):
        return {"kind": "score_network", "dim": self.dim,
                "time_embedding": self.time_embedding,
                "n_frequencies": self.n_frequencies, "net": self.net.to_dict()}

    @classmethod
    def from_dict(cls, doc):
        return cls(doc["dim"], time_embedding=doc["time_embedding"],
                   n_frequencies=doc["n_frequencies"], net=MLP.from_dict(doc["net"]))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


class TotalDerivativeDemon(Demon):
    """Device integrating d' = q(t, v) + r(t, v) dv/dt for its own output.

    q models the partial time derivative of the target demon vector and r
    its state gradient; the device's internal integrator is explicit Euler
    with the host step.
    """

    def __init__(self, q_fn, r_fn, d0):
        self.q_fn = q_fn
        self.r_fn = r_fn
        self.d0 = np.asarray(d0, dtype=float).reshape(-1)
        self.d = self.d0.copy()

    def query(self, t, v, dv_dt=None):
        return self.d.copy()

    def advance(self, t, v, dv_dt, dt):
        total_derivative_step(self, t, v, dv_dt, dt)

    def reset(self):
        self.d = self.d0.copy()


def total_derivative_step(demon: TotalDerivativeDemon, t, v, dv_dt, dt):
    """d <- d + (q(t, v) + r(t, v) dv/dt) dt; returns the updated d."""
    if dt <= 0:
        raise ContractViolationError("dt must be positive")
    v = np.asarray(v, dtype=float).reshape(-1)
    dv_dt = np.asarray(dv_dt, dtype=float).reshape(-1)
    q = np.asarray(demon.q_fn(t, v), dtype=float).reshape(-1)
    r = np.atleast_2d(np.asarray(demon.r_fn(t, v), dtype=float))
    if q.shape != demon.d.shape or r.shape != (demon.d.size, v.size):
        raise ContractViolationError("q/r output shapes inconsistent")
    demon.d = demon.d + (q + r @ dv_dt) * dt
    if not np.all(np.isfinite(demon.d)):
        raise ContractViolationError("demon output not finite")
    return demon.d.copy()


class ForceDemon(Demon):
    """Force device: latent x integrates M^-1 p, output is -grad U(t, x).

    gradient_mode 'analytic' uses the potential's gradient; 'fd' uses
    central finite differences with the given step.
    """

    def __init__(self, potential, mass=None, x0=None, dim=None,
                 gradient_mode="analytic", fd_step=1e-4):
        if x0 is None:
            if dim is None:
                raise ContractViolationError("need x0 or dim")
            x0 = np.zeros(dim)
        self.x0 = np.asarray(x0, dtype=float).reshape(-1)
        n = self.x0.size
        mass = np.eye(n) if mass is None else np.atleast_2d(np.asarray(mass, dtype=float))
        if mass.shape != (n, n) or np.max(np.abs(mass - mass.T)) > 1e-10:
            raise ContractViolationError("mass matrix must be symmetric NxN")
        try:
            np.linalg.cholesky(mass)
        except np.linalg.LinAlgError as exc:
            raise ContractViolationError("mass matrix must be SPD") from exc
        self.mass = mass
        self.mass_inv = np.linalg.inv(mass)
        self.potential = potential
        if gradient_mode not in ("analytic", "fd"):
            raise ContractViolationError("gradient_mode must be 'analytic' or 'fd'")
        self.gradient_mode = gradient_mode
        self.fd_step = fd_step
        self.x = self.x0.copy()

    def _grad(self, t, x):
        if self.gradient_mode == "analytic":
            return np.asarray(self.potential.gradient(t, x), dtype=float)
        return central_difference_gradient(
            lambda y: self.potential.value(t, y), x, h=self.fd_step)

    def force(self, t):
        """-grad U(t, x) at the current latent, without the finiteness check."""
        return -self._grad(t, self.x)

    def query(self, t, v, dv_dt=None):
        force = self.force(t)
        if not np.all(np.isfinite(force)):
            raise ContractViolationError("demon output not finite")
        return force

    def advance(self, t, p, dv_dt, dt):
        self.x = self.x + self.mass_inv @ np.asarray(p, dtype=float) * dt

    def reset(self):
        self.x = self.x0.copy()


def force_demon_step(demon: ForceDemon, t, p, dt):
    """Advance the latent by M^-1 p dt and return the force at the new latent."""
    if dt <= 0:
        raise ContractViolationError("dt must be positive")
    demon.advance(t, p, None, dt)
    return demon.query(t, p)


def demon_output(demon: Demon, t, v, dv_dt=None):
    """Public query honoring the per-variant input contract."""
    if isinstance(demon, TotalDerivativeDemon) and dv_dt is None:
        raise ContractViolationError("total-derivative demon requires dv_dt")
    out = np.asarray(demon.query(t, np.asarray(v, dtype=float), dv_dt), dtype=float)
    if not np.all(np.isfinite(out)):
        raise ContractViolationError("demon output not finite")
    return out


def analytic_score(distribution, x):
    """Exact grad log p for a Gaussian or Gaussian mixture."""
    if not isinstance(distribution, (Gaussian, GaussianMixture)):
        raise ContractViolationError("analytic score needs a Gaussian or mixture")
    return distribution.score(np.asarray(x, dtype=float))


class AnalyticScoreDemon(Demon):
    """Demon wrapping a closed-form time-indexed score s(x, t).

    With batched=True the function is trusted to map (batch, N) arrays to
    (batch, N) scores directly; otherwise batches fall back to a python loop.
    """

    stateless = True

    def __init__(self, score_fn, dim, batched=False):
        self.score_fn = score_fn
        self.dim = dim
        self.batched = batched

    def query(self, t, v, dv_dt=None):
        return np.asarray(self.score_fn(np.asarray(v, dtype=float), t),
                          dtype=float).reshape(-1)

    def query_batch(self, t, V):
        V = np.atleast_2d(V)
        if self.batched:
            return np.asarray(self.score_fn(V, t), dtype=float)
        return np.stack([self.query(t, v) for v in V])

    def clone(self):
        return self
