"""Demon training: denoising score-matching loss, ex-situ / in-situ loops,
and hardware-noise perturbation of model coefficients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_sde import SDEModel
from .demon import ScoreNetworkDemon
from .errors import ContractViolationError, DivergenceError
from .mlp import SGD, Adam


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "ex_situ"  # "ex_situ" | "in_situ"
    optimizer: str = "adam"  # "sgd" | "adam"
    learning_rate: float = 1e-3
    batch_size: int = 64
    steps: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("ex_situ", "in_situ"):
            raise ContractViolationError(f"unknown training mode {self.mode!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ContractViolationError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate < 0:
            raise ContractViolationError("learning rate must be nonnegative")
        if self.steps < 1 or self.batch_size < 1:
            raise ContractViolationError("steps and batch size must be at least 1")


@dataclass(frozen=True)
class PerturbationSpec:
    """Hardware-noise model: entrywise perturbation of (A0, b0, C0)."""

    mode: str = "multiplicative"  # "additive" | "multiplicative"
    eps_A: float = 0.0
    eps_b: float = 0.0
    eps_C: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("additive", "multiplicative"):
            raise ContractViolationError(f"unknown perturbation mode {self.mode!r}")
        if min(self.eps_A, self.eps_b, self.eps_C) < 0:
            raise ContractViolationError("perturbation magnitudes must be nonnegative")


def perturb_model(model: SDEModel, spec: PerturbationSpec) -> SDEModel:
    """Deterministic (seeded) perturbed copy; draw order A0, b0, C0."""
    rng = np.random.default_rng(spec.seed)

    def perturb(X, eps):
        Z = rng.standard_normal(np.shape(X))
        if eps == 0.0:
            return np.asarray(X, dtype=float)
        if spec.mode == "additive":
            return X + eps * Z
        return X * (1.0 + eps * Z)

    A = perturb(model.A0, spec.eps_A)
    b = perturb(model.b0, spec.eps_b)
    C = perturb(model.C0, spec.eps_C)
    return SDEModel(A0=A, b0=b, C0=C, D0=model.D0)


class VPSchedule:
    """Variance-preserving noise schedule beta(t) on [0, T].

    Constant (beta_min == beta_max) or linear in t; the running integral of
    beta has closed form either way.
    """

    def __init__(self, beta_min=2.0, beta_max=None, T=1.0):
        if beta_max is None:
            beta_max = beta_min
        if beta_min <= 0 or beta_max <= 0 or T <= 0:
            raise ContractViolationError("beta and T must be positive")
        self.beta_min, self.beta_max, self.T = float(beta_min), float(beta_max), float(T)

    def beta(self, t):
        return self.beta_min + (self.beta_max - self.beta_min) * np.asarray(t) / self.T

    def integral(self, t):
        t = np.asarray(t, dtype=float)
        return self.beta_min * t + (self.beta_max - self.beta_min) * t * t / (2 * self.T)

    def kernel(self, t):
        """(mean factor, per-coordinate variance) of p(x_t | x_0)."""
        it = self.integral(t)
        alpha = np.exp(-0.5 * it)
        return alpha, 1.0 - np.exp(-it)


def linear_sde_kernel(model: SDEModel, t: float):
    """Exact conditional kernel of dv = Av dt + C dw: x_t ~ N(M x0, Sigma).

    Van Loan block-exponential: exp([[A, CC^T], [0, -A^T]] t) yields
    M = e^{At} and Sigma = E12 E11^T.  scipy is imported here, on first
    use, so that importing thermosim does not load it.
    """
    from scipy.linalg import expm

    n = model.dim
    Q = model.C0 @ model.C0.T
    F = np.zeros((2 * n, 2 * n))
    F[:n, :n] = model.A0
    F[:n, n:] = Q
    F[n:, n:] = -model.A0.T
    E = expm(F * t)
    M = E[:n, :n]
    Sigma = E[:n, n:] @ M.T
    return M, (Sigma + Sigma.T) / 2


def dsm_loss(score_net: ScoreNetworkDemon, data_batch, vp_schedule: VPSchedule,
             rng: np.random.Generator, t_min=None, with_grads=False):
    """Denoising score-matching loss with sigma_t^2 weighting.

    Per sample: draw t uniform on [t_min, T], corrupt x0 through the VP
    kernel, and penalize sigma_t^2 |s(x_t, t) - grad log p(x_t | x_0)|^2.
    The kernel score is -z / sigma_t for noise draw z.
    """
    X0 = np.atleast_2d(np.asarray(data_batch, dtype=float))
    if X0.shape[0] == 0:
        raise ContractViolationError("empty batch")
    batch, dim = X0.shape
    T = vp_schedule.T
    if t_min is None:
        t_min = 1e-3 * T  # keep away from the singular zero-noise limit
    ts = rng.uniform(t_min, T, size=batch)
    alpha, var = vp_schedule.kernel(ts)
    sigma = np.sqrt(var)
    Z = rng.standard_normal((batch, dim))
    Xt = alpha[:, None] * X0 + sigma[:, None] * Z
    target = -Z / sigma[:, None]
    S, cache = score_net.forward_with_cache(ts, Xt)
    resid = S - target
    loss = float(np.mean(var * np.sum(resid ** 2, axis=1)))
    if not with_grads:
        return loss
    dS = 2.0 * var[:, None] * resid / batch
    dWs, dbs = score_net.net.backward(cache, dS)
    return loss, score_net.net.flat_grads(dWs, dbs)


def kernel_dsm_objective(data_sampler, vp_schedule: VPSchedule, batch_size: int,
                         env_model: SDEModel | None = None, t_grid_size: int = 64):
    """DSM objective; ex-situ uses the ideal VP kernel, in-situ (env_model
    given) draws corruptions from the environment's exact linear kernel."""
    if env_model is None:
        def objective(demon, rng):
            X0 = data_sampler(rng, batch_size)
            return dsm_loss(demon, X0, vp_schedule, rng, with_grads=True)
        return objective

    T = vp_schedule.T
    t_min = 1e-3 * T
    t_grid = np.linspace(t_min, T, t_grid_size)
    kernels = [linear_sde_kernel(env_model, t) for t in t_grid]
    Ms = np.stack([M for M, _ in kernels])
    chols = np.stack([np.linalg.cholesky(Sigma) for _, Sigma in kernels])
    precs = np.stack([np.linalg.inv(Sigma) for _, Sigma in kernels])
    weights = np.array([np.trace(Sigma) for _, Sigma in kernels])

    def objective(demon, rng):
        X0 = np.atleast_2d(data_sampler(rng, batch_size))
        batch, dim = X0.shape
        idx = rng.integers(0, t_grid_size, size=batch)
        ts = t_grid[idx]
        Z = rng.standard_normal((batch, dim))
        mean = np.einsum("bij,bj->bi", Ms[idx], X0)
        Xt = mean + np.einsum("bij,bj->bi", chols[idx], Z)
        target = -np.einsum("bij,bj->bi", precs[idx], Xt - mean)
        weight = weights[idx] / dim
        S, cache = demon.forward_with_cache(ts, Xt)
        resid = S - target
        loss = float(np.mean(weight * np.sum(resid ** 2, axis=1)))
        dS = 2.0 * weight[:, None] * resid / batch
        dWs, dbs = demon.net.backward(cache, dS)
        return loss, demon.net.flat_grads(dWs, dbs)

    return objective


def train_demon(demon, objective, config: TrainConfig):
    """Optimize demon parameters against a per-step objective.

    `objective(demon, rng)` returns (loss, flat gradients) of the demon's
    network parameters.
    """
    rng = np.random.default_rng(config.seed)
    opt = Adam(config.learning_rate) if config.optimizer == "adam" else SGD(config.learning_rate)
    net = getattr(demon, "net", None)
    if net is None:
        raise ContractViolationError("train_demon needs a demon with trainable parameters")
    params = net.get_flat()
    history = []
    for step in range(config.steps):
        out = objective(demon, rng)
        if not isinstance(out, tuple):
            raise ContractViolationError("objective must return (loss, gradients)")
        loss, grads = out
        if not np.isfinite(loss):
            raise DivergenceError(f"training loss diverged at step {step}")
        history.append(loss)
        params = opt.step(params, grads)
        net.set_flat(params)
    return demon, np.asarray(history)


def loss_history_to_csv(history, path):
    with open(path, "w") as fh:
        fh.write("step,loss\n")
        for i, loss in enumerate(history):
            fh.write(f"{i},{float(loss)!r}\n")
