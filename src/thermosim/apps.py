"""Application drivers: diffusion sampling, Monte Carlo, annealing, neural
SDE rollouts, and latent-SDE readout, composed from the core engines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_sde import (SDEModel, _check_diverged, _grid, _path, _spd, _vector,
                       trajectory_rng)
from .errors import ContractViolationError
from .gates import GateProgram, constant_schedule
from .potentials import (DoubleWellPotential, Gaussian, GaussianMixture,
                         NegativeLogDensityPotential, QuadraticPotential,
                         central_difference_gradient)
from .training import VPSchedule


# ---------------------------------------------------------------- diffusion

@dataclass(frozen=True)
class DiffusionSpec:
    """Forward noising process: VP (OU toward unit variance) or VE (pure
    diffusion with amplitude c0)."""

    kind: str
    dim: int
    T: float = 1.0
    schedule: VPSchedule | None = None  # VP only
    c0: float = 1.0  # VE only

    def __post_init__(self):
        if self.kind not in ("vp", "ve"):
            raise ContractViolationError("kind must be 'vp' or 've'")
        if self.kind == "vp" and self.schedule is None:
            object.__setattr__(self, "schedule", VPSchedule(beta_min=2.0, T=self.T))
        if self.kind == "ve" and self.c0 <= 0:
            raise ContractViolationError("c0 must be positive")
        if self.T <= 0 or self.dim < 1:
            raise ContractViolationError("need positive horizon and dimension")

    def f(self, t):
        return -0.5 * self.schedule.beta(t) if self.kind == "vp" else 0.0

    def g(self, t):
        return np.sqrt(self.schedule.beta(t)) if self.kind == "vp" else self.c0

    def kernel(self, t):
        """(mean factor, per-coordinate variance) of p(x_t | x_0)."""
        if self.kind == "vp":
            return self.schedule.kernel(t)
        return 1.0, self.c0 ** 2 * t

    def prior_sample(self, rng, n):
        std = 1.0 if self.kind == "vp" else self.c0 * np.sqrt(self.T)
        return std * rng.standard_normal((n, self.dim))


def diffusion_forward(spec: DiffusionSpec, x0_batch, dt, seed):
    """Noise a batch forward: dx = f(t) x dt + g(t) dw, the s-mode device
    (A, b, C) = (I, 0, I) with f and g programmed onto its drift and
    diffusion.  Member i starts at row i of the batch and draws its noise
    from trajectory_rng(seed, i).  Returns (times, states) with states of
    shape (batch, steps + 1, dim)."""
    X = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    if not np.all(np.isfinite(X)):
        raise ContractViolationError("x0 batch must be finite")
    n_steps = _grid(0.0, spec.T, dt)
    eye = np.eye(spec.dim)
    program = GateProgram(schedule_A=constant_schedule("drift_super", spec.f, 0.0, spec.T),
                          schedule_C=constant_schedule("diffusion_super", spec.g, 0.0, spec.T))
    out = _path(SDEModel(eye, np.zeros(spec.dim), eye), program, None, X,
                dt * np.arange(n_steps), np.full(n_steps, dt), seed)
    return dt * np.arange(n_steps + 1), out


def diffusion_reverse(spec: DiffusionSpec, score, n_samples, dt, seed):
    """Generate by running the time-reparameterized reverse SDE from the
    noise prior:  dx = [-f(T-tau) x + g(T-tau)^2 s(x, T-tau)] dtau
    + g(T-tau) dw.  A sample row that turns non-finite or runaway raises
    DivergenceError naming the row, the step and the reverse time tau."""
    n_steps = _grid(0.0, spec.T, dt)
    rng = trajectory_rng(seed, 0)
    X = spec.prior_sample(rng, n_samples)
    tau, ends = 0.0, dt * np.arange(1, n_steps + 1)
    for k in range(n_steps):
        t = spec.T - tau
        s = score.query_batch(t, X)
        if s.shape != X.shape:
            raise ContractViolationError("score dimension must match data dimension")
        g = spec.g(t)
        drift = -spec.f(t) * X + g * g * s
        X = X + drift * dt + g * np.sqrt(dt) * rng.standard_normal(X.shape)
        _check_diverged(X[None], k, 0, ends, "sample {}")
        tau += dt
    return X


# ------------------------------------------------------------ target catalog

@dataclass(frozen=True)
class TargetDistribution:
    """Unnormalized target pi = exp(-U); gradient supplied analytically."""

    name: str
    dim: int
    potential: object  # Potential-like with value(t, x) / gradient(t, x)

    def U(self, x):
        return float(self.potential.value(0.0, x))

    def grad_U(self, x):
        return np.asarray(self.potential.gradient(0.0, x), dtype=float)

    def check_gradient(self, x, tol=1e-4):
        fd = central_difference_gradient(lambda y: self.U(y), np.asarray(x, dtype=float))
        return np.max(np.abs(fd - self.grad_U(x))) <= tol * max(1.0, np.max(np.abs(fd)))


def gaussian_target(mean, cov) -> TargetDistribution:
    mean = np.asarray(mean, dtype=float).reshape(-1)
    return TargetDistribution("gaussian", mean.size,
                              QuadraticPotential(mean, Gaussian(mean, cov).precision))


def mixture_target(weights, means, covs) -> TargetDistribution:
    comps = [Gaussian(m, c) for m, c in zip(means, covs)]
    mix = GaussianMixture(weights, comps)
    return TargetDistribution("mixture", comps[0].dim, NegativeLogDensityPotential(mix))


def double_well_target(dim=1) -> TargetDistribution:
    if dim < 1:
        raise ContractViolationError("dimension must be at least 1")
    return TargetDistribution("double_well", dim, DoubleWellPotential())


# ----------------------------------------------------------------- samplers

def _burn(chain, burn_in):
    if not 0 <= burn_in < 1:
        raise ContractViolationError("burn_in must lie in [0, 1)")
    return chain[int(len(chain) * burn_in):]


def _row_products(L, z, scale):
    """Every row (L @ z[k]) * scale of a block of draws, summed one column at
    a time with no matrix product; equal to the per-row product when L is
    diagonal."""
    out = np.zeros_like(z)
    for i in range(L.shape[0]):
        col = out[:, i]
        for j in range(L.shape[1]):
            col += L[i, j] * z[:, j]
        col *= scale
    return out


def _momentum_chain(force, x, p, Minv, drag, kicks, dt, what, observe=None):
    """Semi-implicit Euler chain of a force demon on momentum s-modes: step k
    kicks p <- p + (force(k, x) - drag p) dt + kicks[k], then drifts
    x <- x + M^-1 p dt (p itself when Minv is None) and hands the new x to
    observe.  Returns the (steps, n) chain of x; a non-finite or runaway x
    raises DivergenceError naming ``what`` and its first step k + 1, which
    ends at t = dt (k + 1)."""
    chain = np.empty((len(kicks), x.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(kicks)):
            p = p + (force(k, x) - drag @ p) * dt + kicks[k]
            x = x + (p if Minv is None else Minv @ p) * dt
            if observe is not None:
                observe(x)
            chain[k] = x
    _check_diverged(chain[:, None], 0, 0, dt * np.arange(1, len(kicks) + 1), what)
    return chain


def sghmc_sample(target: TargetDistribution, mass=None, friction=None,
                 n_steps=10000, dt=1e-2, seed=0, noise_cov=None, x0=None, burn_in=0.2):
    """Underdamped Langevin chain from p = 0:
    dx = M^-1 p dt,  dp = -[grad U + B M^-1 p] dt + sqrt(2B) dw,
    stepped by _momentum_chain with the force -grad U(t, x).

    Given noise_cov (an SPD matrix V), the chain runs in stochastic gradient
    mode: each step's grad U carries N(0, V) noise, drawn just before that
    step's kick.  With noise_cov None the gradient is exact.
    """
    n = target.dim
    x = _vector(x0, n, "x0")
    Minv = np.linalg.inv(_spd(mass, n, "mass matrix")[0])
    B = _spd(friction, n, "friction matrix")[0]
    noise_chol = np.linalg.cholesky(2.0 * B)
    rng = trajectory_rng(seed, 0)
    if noise_cov is None:
        grad_noise = None
        kicks = _row_products(noise_chol, rng.standard_normal((n_steps, n)), np.sqrt(dt))
    else:
        grad_chol = _spd(noise_cov, n, "gradient noise covariance")[1]
        # Each step's gradient noise comes before its kick in the stream.
        z = rng.standard_normal((n_steps, 2, n))
        grad_noise = _row_products(grad_chol, z[:, 0], 1.0)
        kicks = _row_products(noise_chol, z[:, 1], np.sqrt(dt))

    def force(k, x):
        f = -np.asarray(target.potential.gradient(k * dt, x), dtype=float)
        return f if grad_noise is None else f - grad_noise[k]

    chain = _momentum_chain(force, x, np.zeros(n), Minv, B @ Minv, kicks, dt, "sghmc chain")
    return _burn(chain, burn_in)


def sgld_sample(target: TargetDistribution, step_sizes, n_steps=10000, seed=0,
                x0=None, minibatch_model=None, burn_in=0.2):
    """Langevin chain: dtheta = (eps_t/2) grad log pi dt-equivalent plus
    N(0, eps_t) injection per step.  step_sizes is a constant or a callable
    of the step index; it must be positive and nonincreasing."""
    n = target.dim
    rng = trajectory_rng(seed, 0)
    theta = _vector(x0, n, "x0")
    eps_fn = step_sizes if callable(step_sizes) else (lambda k: float(step_sizes))
    eps = np.array([eps_fn(k) for k in range(n_steps)], dtype=float)
    if not (eps > 0).all() or (eps[1:] > eps[:-1] + 1e-15).any():
        raise ContractViolationError("step sizes must be positive and nonincreasing")
    half = 0.5 * eps
    chain = np.empty((n_steps, n))
    if minibatch_model is None:
        kicks = rng.standard_normal((n_steps, n))
        kicks *= np.sqrt(eps)[:, None]
        for k in range(n_steps):
            theta = theta - half[k] * target.grad_U(theta) + kicks[k]
            chain[k] = theta
    else:
        # The minibatch draws interleave with the injected noise in the stream.
        for k in range(n_steps):
            grad_log_pi = minibatch_model.grad_log_posterior(theta, rng)
            theta = theta + half[k] * grad_log_pi + np.sqrt(eps[k]) * rng.standard_normal(n)
            chain[k] = theta
    # Step k advances Langevin time by eps_k.
    _check_diverged(chain[:, None], 0, 0, np.cumsum(eps), "sgld chain")
    return _burn(chain, burn_in)


class ConjugateGaussianModel:
    """1D mean-inference demo for minibatch SGLD: prior N(mu0, tau0^2),
    likelihood N(theta, sigma^2), minibatches of the stored data."""

    def __init__(self, data, sigma=1.0, mu0=0.0, tau0=10.0, batch_size=8):
        self.data = np.asarray(data, dtype=float).reshape(-1)
        self.sigma, self.mu0, self.tau0 = sigma, mu0, tau0
        self.batch_size = min(batch_size, self.data.size)

    def grad_log_posterior(self, theta, rng):
        batch = rng.choice(self.data, size=self.batch_size, replace=False)
        scale = self.data.size / self.batch_size
        grad_prior = -(theta - self.mu0) / self.tau0 ** 2
        grad_lik = scale * np.sum(batch - theta) / self.sigma ** 2
        return grad_prior + grad_lik

    def posterior(self):
        n = self.data.size
        prec = 1.0 / self.tau0 ** 2 + n / self.sigma ** 2
        mean = (self.mu0 / self.tau0 ** 2 + self.data.sum() / self.sigma ** 2) / prec
        return mean, 1.0 / prec


def hmc_sample(target: TargetDistribution, mass=None, n_leapfrog=10, step=0.1,
               n_iter=1000, seed=0, x0=None, burn_in=0.2):
    """Reference sampler: leapfrog proposals with Metropolis correction.

    Momentum is resampled from N(0, M) each iteration; proposals accepted
    with min(1, exp(H(x, p) - H(x', p'))), and one whose energy is NaN is
    rejected.  U and grad U at the current state are kept from the last
    accepted proposal, so an iteration makes n_leapfrog gradient calls and
    one value call.  Returns (chain, acceptance rate)."""
    if n_leapfrog < 1:
        raise ContractViolationError("need at least one leapfrog step")
    if not step > 0:
        raise ContractViolationError("step must be positive")
    if n_iter < 1:
        raise ContractViolationError("need at least one iteration")
    n = target.dim
    x = _vector(x0, n, "x0")
    M, chol = _spd(mass, n, "mass matrix")
    Minv = np.linalg.inv(M)
    rng = trajectory_rng(seed, 0)
    chain = np.empty((n_iter, n))
    accepted = 0
    half_step = 0.5 * step
    # U and grad U at the current state; an accepted proposal brings its own.
    u, g = target.U(x), target.grad_U(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(n_iter):
            p = chol @ rng.standard_normal(n)
            h_old = u + 0.5 * p @ Minv @ p
            xq, pq = x, p - half_step * g
            for j in range(n_leapfrog):
                xq = xq + step * (Minv @ pq)
                gq = target.grad_U(xq)
                if j < n_leapfrog - 1:
                    pq = pq - step * gq
            pq = pq - half_step * gq
            uq = target.U(xq)
            h_new = uq + 0.5 * pq @ Minv @ pq
            # u < 1, so this is u < min(1, exp(.)) for finite energies and
            # rejects a proposal whose energy is NaN.
            if rng.uniform() < np.exp(h_old - h_new):
                x, u, g = xq, uq, gq
                accepted += 1
            chain[it] = x
    return _burn(chain, burn_in), accepted / n_iter


def anneal(loss: TargetDistribution, S=None, n_steps=20000, dt=1e-2, seed=0,
           lam=1.0, x0=None, p0=None, burn_in=0.2):
    """SDE annealer targeting exp(-lam L), stepped by _momentum_chain:
    dx = p dt,  dp = -lam grad L dt - (1/2) D p dt + S dW,  D = S S^T.

    Returns (best x seen, post-burn-in x chain); the first strict minimum
    of lam L wins, and a NaN loss never does."""
    n = loss.dim
    S = np.eye(n) if S is None else np.atleast_2d(np.asarray(S, dtype=float))
    if not np.all(np.isfinite(S)):
        raise ContractViolationError("S must be finite")
    if S.shape != (n, n) or not np.allclose(S, np.tril(S)):
        raise ContractViolationError(f"S must be a lower-triangular {n}x{n} matrix")
    rng = trajectory_rng(seed, 0)
    x, p = _vector(x0, n, "x0"), _vector(p0, n, "p0")
    best_x, best_val = x.copy(), lam * loss.U(x)

    def observe(x):
        nonlocal best_x, best_val
        val = lam * loss.U(x)
        if val < best_val:
            best_val, best_x = val, x

    kicks = _row_products(S, rng.standard_normal((n_steps, n)), np.sqrt(dt))
    chain = _momentum_chain(lambda k, x: -lam * loss.grad_U(x), x, p, None, 0.5 * (S @ S.T),
                            kicks, dt, "anneal chain", observe)
    return best_x, _burn(chain, burn_in)


# ---------------------------------------------------------- neural SDE apps

@dataclass(frozen=True)
class NSDESpec:
    """Hidden/weight coupled neural SDE: hidden block deterministic given
    the weights, weight block diffusing with amplitude sigma."""

    hidden_dim: int
    weight_dim: int
    f_h: object  # callable (t, h batch, w) -> dh/dt batch
    f_w: object = None  # prior weight drift (t, w) -> dw/dt; default 0
    posterior_net: object = None  # callable (t, w) -> weight drift contribution
    sigma: float = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ContractViolationError("sigma must be nonnegative")


def weight_diffuser_rollout(spec: NSDESpec, mode, input_batch, T, dt, seed, w0=None):
    """Joint rollout of hidden states and the (stochastic) weight trajectory.

    Prior mode uses f_w; posterior mode routes the weights through the
    posterior drift network as NN(t, w) + w.  Returns (times, hidden
    states (steps+1, batch, hidden), weights (steps+1, weight_dim)).  A
    non-finite or runaway state raises DivergenceError at its first step."""
    if mode not in ("prior", "posterior"):
        raise ContractViolationError("mode must be 'prior' or 'posterior'")
    if mode == "posterior" and spec.posterior_net is None:
        raise ContractViolationError("posterior mode needs a posterior drift network")
    H = np.atleast_2d(np.asarray(input_batch, dtype=float)).copy()
    if H.shape[1] != spec.hidden_dim:
        raise ContractViolationError("input batch width must equal hidden_dim")
    w = _vector(w0, spec.weight_dim, "w0")
    n_steps = _grid(0.0, T, dt)
    rng = trajectory_rng(seed, 0)
    Hs = np.empty((n_steps + 1,) + H.shape)
    Ws = np.empty((n_steps + 1, spec.weight_dim))
    Hs[0], Ws[0] = H, w
    kicks = rng.standard_normal((n_steps, spec.weight_dim))
    kicks *= spec.sigma * np.sqrt(dt)
    t = 0.0
    for k in range(n_steps):
        if mode == "prior":
            drift_w = np.zeros_like(w) if spec.f_w is None else \
                np.asarray(spec.f_w(t, w), dtype=float)
        else:
            drift_w = np.asarray(spec.posterior_net(t, w), dtype=float) + w
        H = H + np.asarray(spec.f_h(t, H, w), dtype=float) * dt
        w = w + drift_w * dt + kicks[k]
        t += dt
        Hs[k + 1], Ws[k + 1] = H, w
    times = dt * np.arange(n_steps + 1)
    _check_diverged(np.concatenate([Hs[1:].reshape(n_steps, 1, -1), Ws[1:, None]], axis=2),
                    0, 0, times[1:])
    return times, Hs, Ws


def latent_sde_rollout(model: SDEModel, program, demon, h0, checkpoint_times,
                       t0=0.0, dt=1e-2, seed=0):
    """Run the programmed SDE from h0 and read the state at the requested
    times; the step is shrunk per segment so every checkpoint lands on the
    grid exactly.  The path is trajectory 0 of trajectory_rng(seed, 0) in
    the ensemble stepper, with its divergence check."""
    if not dt > 0:
        raise ContractViolationError("dt must be positive")
    checkpoints = [float(t) for t in checkpoint_times]
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ContractViolationError("checkpoint times must be increasing")
    if checkpoints and checkpoints[0] < t0:
        raise ContractViolationError("checkpoint before rollout start")
    if program is not None and program.domain is not None:
        if checkpoints and checkpoints[-1] > program.domain[1] + 1e-12:
            raise ContractViolationError("checkpoint outside program horizon")
    v = _vector(h0, model.dim, "h0")
    t, k, times, dts, marks = t0, 0, [np.empty(0)], [np.empty(0)], []
    for tk in checkpoints:
        if abs(tk - t) >= 1e-12:
            n = max(1, int(np.ceil((tk - t) / dt - 1e-9)))
            times.append(t + (tk - t) / n * np.arange(n))
            dts.append(np.full(n, (tk - t) / n))
            t, k = tk, k + n
        marks.append(k)
    path = _path(model, program, demon, v[None], np.concatenate(times),
                 np.concatenate(dts), seed)
    return np.asarray(checkpoints), path[0, marks]
