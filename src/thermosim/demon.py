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

from .core_sde import write_compact_json
from .errors import ContractViolationError
from .mlp import MLP
from .potentials import Gaussian, GaussianMixture, central_difference_gradient


class Demon:
    """Contract: query(t, v[, dv_dt]) -> drift vector of fixed dimension M.

    Stateful variants advance per host step via advance().  Simulations step
    them through batch(m), the reset state of m trajectories, which never
    shares state with the demon it came from.
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

    def batch(self, m):
        """Reset state of m trajectories: query(t, V) -> (m, M) and
        advance(t, V, dV, dt) act on (m, N) rows, row i for trajectory i.

        This default keeps one reset clone per trajectory.
        """
        return _Clones(self, m)


class _Clones:
    """m reset clones of a stateful demon, each queried and advanced on its row."""

    def __init__(self, demon, m):
        self.clones = []
        for _ in range(m):
            clone = demon.clone()
            clone.reset()
            self.clones.append(clone)

    def query(self, t, V):
        return np.stack([cl.query(t, v) for cl, v in zip(self.clones, V)])

    def advance(self, t, V, dV, dt):
        for cl, v, dv in zip(self.clones, V, dV):
            cl.advance(t, v, dv, dt)


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
        write_compact_json(path, self.to_dict())

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


class TotalDerivativeDemon(Demon):
    """Device integrating d' = q(t, v) + r(t, v) dv/dt for its own output.

    q models the partial time derivative of the target demon vector and r
    its state gradient; the device's internal integrator is explicit Euler
    with the host step.  Its batch holds d as an (m, M) array.
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

    def batch(self, m):
        state = self.clone()
        state.d = np.tile(self.d0, (m, 1))
        return state


def total_derivative_step(demon: TotalDerivativeDemon, t, v, dv_dt, dt):
    """d <- d + (q(t, v) + r(t, v) dv/dt) dt; returns the updated d.

    For a batch, d is (m, M) and v, dv_dt are (m, N) rows; q and r still
    take one state vector, so they are called once per row.
    """
    if dt <= 0:
        raise ContractViolationError("dt must be positive")
    D = demon.d.reshape(-1, demon.d.shape[-1])
    V = np.asarray(v, dtype=float).reshape(len(D), -1)
    dV = np.asarray(dv_dt, dtype=float).reshape(V.shape)
    q_shape, r_shape = D.shape[1:], D.shape[1:] + V.shape[1:]
    qs, rs = [], []
    for x in V:
        q = np.asarray(demon.q_fn(t, x), dtype=float).reshape(-1)
        r = np.atleast_2d(np.asarray(demon.r_fn(t, x), dtype=float))
        if q.shape != q_shape or r.shape != r_shape:
            raise ContractViolationError("q/r output shapes inconsistent")
        qs.append(q)
        rs.append(r)
    Q = np.array(qs) + np.matmul(np.array(rs), dV[:, :, None])[:, :, 0]
    demon.d = (D + Q * dt).reshape(demon.d.shape)
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
