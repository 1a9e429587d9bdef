"""The batch-1 samplers against their earlier per-step loops.

The samplers draw each chain's normals in one block and compute constant
products once; HMC reuses U and grad U at the current state.  The loops
below draw one noise vector per step and recompute everything, as the
samplers used to.  Where the arithmetic is the same (SGLD, HMC, an identity
mass with a diagonal friction or noise factor) the chains must be equal bit
for bit; where a product is now grouped differently they must agree to
1e-12.
"""

import numpy as np
import pytest

from thermosim import (ConjugateGaussianModel, ForceDemon, TargetDistribution, anneal,
                       double_well_target, gaussian_target, hmc_sample, mixture_target,
                       sghmc_sample, sgld_sample)
from thermosim.core_sde import trajectory_rng

STEPS = 200
MASS = np.array([[2.0, 0.3], [0.3, 1.0]])
FRICTION = np.array([[1.5, -0.2], [-0.2, 0.7]])
NOISE_COV = np.array([[0.1, 0.02], [0.02, 0.2]])
S_TRIL = np.array([[1.0, 0.0], [0.4, 0.8]])


def _mixture():
    return mixture_target([0.4, 0.6], [[-0.5, 0.3], [0.5, -0.3]],
                          [np.diag([0.4, 0.5]), np.diag([0.3, 0.6])])


def sghmc_loop(target, mass, friction, n_steps, dt, seed, gradient_noise="exact",
               noise_cov=None):
    n = target.dim
    M = np.eye(n) if mass is None else np.asarray(mass, dtype=float)
    B = np.eye(n) if friction is None else np.asarray(friction, dtype=float)
    noise_chol = np.linalg.cholesky(2.0 * B)
    Minv = np.linalg.inv(M)
    rng = trajectory_rng(seed, 0)
    demon = ForceDemon(target.potential, mass=M, x0=np.zeros(n))
    if gradient_noise == "stochastic":
        grad_chol = np.linalg.cholesky(np.asarray(noise_cov, dtype=float))
    p = np.zeros(n)
    chain = np.empty((n_steps, n))
    sqdt = np.sqrt(dt)
    for k in range(n_steps):
        force = demon.query(k * dt, None)
        if gradient_noise == "stochastic":
            force = force - grad_chol @ rng.standard_normal(n)
        p = p + (force - B @ (Minv @ p)) * dt + noise_chol @ rng.standard_normal(n) * sqdt
        demon.advance(k * dt, p, None, dt)
        chain[k] = demon.x
    return chain


def sgld_loop(target, step_sizes, n_steps, seed, x0=None, minibatch_model=None):
    n = target.dim
    rng = trajectory_rng(seed, 0)
    theta = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    eps_fn = step_sizes if callable(step_sizes) else (lambda k: float(step_sizes))
    chain = np.empty((n_steps, n))
    for k in range(n_steps):
        eps = eps_fn(k)
        if minibatch_model is None:
            grad_log_pi = -target.grad_U(theta)
        else:
            grad_log_pi = minibatch_model.grad_log_posterior(theta, rng)
        theta = theta + 0.5 * eps * grad_log_pi + np.sqrt(eps) * rng.standard_normal(n)
        chain[k] = theta
    return chain


def hmc_loop(target, mass, n_leapfrog, step, n_iter, seed, x0=None):
    n = target.dim
    M = np.eye(n) if mass is None else np.asarray(mass, dtype=float)
    Minv = np.linalg.inv(M)
    chol = np.linalg.cholesky(M)
    rng = trajectory_rng(seed, 0)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    chain = np.empty((n_iter, n))
    accepted = 0
    for it in range(n_iter):
        p = chol @ rng.standard_normal(n)
        h_old = target.U(x) + 0.5 * p @ Minv @ p
        xq, pq = x.copy(), p.copy()
        pq = pq - 0.5 * step * target.grad_U(xq)
        for j in range(n_leapfrog):
            xq = xq + step * (Minv @ pq)
            if j < n_leapfrog - 1:
                pq = pq - step * target.grad_U(xq)
        pq = pq - 0.5 * step * target.grad_U(xq)
        h_new = target.U(xq) + 0.5 * pq @ Minv @ pq
        if rng.uniform() < min(1.0, np.exp(h_old - h_new)):
            x = xq
            accepted += 1
        chain[it] = x
    return chain, accepted / n_iter


def anneal_loop(loss, S, n_steps, dt, seed, lam):
    n = loss.dim
    S = np.eye(n) if S is None else np.asarray(S, dtype=float)
    D = S @ S.T
    rng = trajectory_rng(seed, 0)
    x, p = np.zeros(n), np.zeros(n)
    best_x, best_val = x.copy(), lam * loss.U(x)
    chain = np.empty((n_steps, n))
    sqdt = np.sqrt(dt)
    for k in range(n_steps):
        p = p + (-lam * loss.grad_U(x) - 0.5 * D @ p) * dt \
            + S @ rng.standard_normal(n) * sqdt
        x = x + p * dt
        val = lam * loss.U(x)
        if val < best_val:
            best_val, best_x = val, x.copy()
        chain[k] = x
    return best_x, chain


def _assert_same(new, old, exact):
    if exact:
        np.testing.assert_array_equal(new, old)
    else:
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mass, friction, exact", [
    (None, None, True),
    (None, np.diag([1.5, 0.7]), True),
    (np.diag([2.0, 0.5]), np.diag([1.5, 0.7]), False),
    (MASS, FRICTION, False),
])
def test_sghmc_exact_gradient_matches_loop(mass, friction, exact):
    target = _mixture()
    new = sghmc_sample(target, mass=mass, friction=friction, n_steps=STEPS, dt=0.1,
                       seed=3, burn_in=0.0)
    _assert_same(new, sghmc_loop(target, mass, friction, STEPS, 0.1, 3), exact)


@pytest.mark.parametrize("noise_cov, friction, exact", [
    (np.diag([0.1, 0.2]), None, True),
    (NOISE_COV, FRICTION, False),
])
def test_sghmc_stochastic_gradient_matches_loop(noise_cov, friction, exact):
    """Each step's gradient noise is drawn before its kick, as before."""
    target = _mixture()
    new = sghmc_sample(target, friction=friction, n_steps=STEPS, dt=0.1, seed=4,
                       noise_cov=noise_cov, burn_in=0.0)
    old = sghmc_loop(target, None, friction, STEPS, 0.1, 4, "stochastic", noise_cov)
    _assert_same(new, old, exact)


@pytest.mark.parametrize("step_sizes", [0.05, lambda k: 0.05 / (1 + k) ** 0.3])
def test_sgld_matches_loop(step_sizes):
    target = _mixture()
    new = sgld_sample(target, step_sizes, n_steps=STEPS, seed=5, burn_in=0.0)
    np.testing.assert_array_equal(new, sgld_loop(target, step_sizes, STEPS, 5))


def test_minibatch_sgld_matches_loop():
    data = np.random.default_rng(0).normal(1.5, 1.0, size=64)
    model = ConjugateGaussianModel(data, batch_size=16)
    target = gaussian_target([0.0], [[1.0]])
    new = sgld_sample(target, 1e-3, n_steps=STEPS, seed=1, minibatch_model=model,
                      x0=[1.0], burn_in=0.0)
    old = sgld_loop(target, 1e-3, STEPS, 1, x0=[1.0], minibatch_model=model)
    np.testing.assert_array_equal(new, old)


@pytest.mark.parametrize("S, exact", [(None, True), (np.diag([0.7, 1.3]), True),
                                      (S_TRIL, False)])
def test_anneal_matches_loop(S, exact):
    loss = double_well_target(2)
    best, chain = anneal(loss, S=S, n_steps=STEPS, dt=0.01, seed=6, lam=4.0, burn_in=0.0)
    old_best, old_chain = anneal_loop(loss, S, STEPS, 0.01, 6, 4.0)
    _assert_same(chain, old_chain, exact)
    _assert_same(best, old_best, exact)


class _CountingPotential:
    def __init__(self, potential):
        self.potential = potential
        self.gradient_calls = 0

    def value(self, t, x):
        return self.potential.value(t, x)

    def gradient(self, t, x):
        self.gradient_calls += 1
        return self.potential.gradient(t, x)


@pytest.mark.parametrize("mass", [None, MASS])
def test_hmc_matches_loop_with_one_gradient_per_leapfrog(mass):
    """Bit-identical chain and acceptance, with n_iter * n_leapfrog + 1
    gradient calls: the current state's gradient is reused."""
    base = _mixture()
    counted = _CountingPotential(base.potential)
    target = TargetDistribution("mixture", base.dim, counted)
    chain, accept = hmc_sample(target, mass=mass, n_leapfrog=7, step=0.3, n_iter=STEPS,
                               seed=7, burn_in=0.0)
    assert counted.gradient_calls == STEPS * 7 + 1
    old_chain, old_accept = hmc_loop(base, mass, 7, 0.3, STEPS, 7)
    np.testing.assert_array_equal(chain, old_chain)
    assert accept == old_accept
    assert 0.0 < accept < 1.0


def test_hmc_rejects_nan_proposals():
    """A step this large sends every leapfrog trajectory to inf/NaN; the old
    test min(1, exp(NaN)) accepted each one."""
    chain, accept = hmc_sample(double_well_target(2), n_leapfrog=10, step=2.0, n_iter=50,
                               seed=0, x0=[0.5, 0.5], burn_in=0.0)
    assert accept == 0.0
    np.testing.assert_array_equal(chain, np.full((50, 2), 0.5))
