import numpy as np
import pytest
from scipy.linalg import expm

from thermosim import (ContractViolationError, DivergenceError, Gaussian,
                       PerturbationSpec, SDEModel, ScoreNetworkDemon,
                       TrainConfig, VPSchedule, dsm_loss, kernel_dsm_objective,
                       linear_sde_kernel, loss_history_to_csv, perturb_model,
                       train_demon)


class TestPerturbModel:
    def base(self):
        return SDEModel(A0=[[-1.0, 0.2], [0.0, -2.0]], b0=[1.0, 2.0],
                        C0=0.5 * np.eye(2))

    def test_zero_magnitude_identity(self):
        m = self.base()
        p = perturb_model(m, PerturbationSpec(eps_A=0.0, eps_b=0.0, eps_C=0.0))
        np.testing.assert_array_equal(p.A0, m.A0)
        np.testing.assert_array_equal(p.b0, m.b0)
        np.testing.assert_array_equal(p.C0, m.C0)

    def test_targeting_leaves_others_bitwise(self):
        m = self.base()
        p = perturb_model(m, PerturbationSpec(mode="multiplicative", eps_A=0.1))
        assert not np.array_equal(p.A0, m.A0)
        np.testing.assert_array_equal(p.b0, m.b0)
        np.testing.assert_array_equal(p.C0, m.C0)

    def test_deterministic_given_seed(self):
        m = self.base()
        spec = PerturbationSpec(mode="additive", eps_A=0.2, eps_b=0.1, seed=5)
        np.testing.assert_array_equal(perturb_model(m, spec).A0,
                                      perturb_model(m, spec).A0)

    def test_result_satisfies_invariants(self):
        m = self.base()
        p = perturb_model(m, PerturbationSpec(mode="multiplicative",
                                              eps_A=0.5, eps_b=0.5, eps_C=0.5))
        assert np.all(np.isfinite(p.A0))
        assert p.dim == m.dim

    def test_invalid_mode_rejected(self):
        with pytest.raises(ContractViolationError):
            PerturbationSpec(mode="other")


class TestVPSchedule:
    def test_constant_beta_kernel(self):
        sched = VPSchedule(beta_min=2.0, T=1.0)
        alpha, var = sched.kernel(1.0)
        assert alpha == pytest.approx(np.exp(-1.0))
        assert var == pytest.approx(1.0 - np.exp(-2.0))

    def test_linear_beta_integral(self):
        sched = VPSchedule(beta_min=0.1, beta_max=2.0, T=1.0)
        # trapezoid of a linear function is exact
        ts = np.linspace(0, 0.7, 1001)
        quad = np.trapezoid(sched.beta(ts), ts)
        assert sched.integral(0.7) == pytest.approx(quad, rel=1e-8)

    def test_invalid_params_rejected(self):
        with pytest.raises(ContractViolationError):
            VPSchedule(beta_min=-1.0)


class TestLinearSDEKernel:
    def test_matches_vp_closed_form(self):
        beta = 2.0
        m = SDEModel(A0=[[-beta / 2]], b0=[0.0], C0=[[np.sqrt(beta)]])
        sched = VPSchedule(beta_min=beta, T=1.0)
        for t in (0.1, 0.5, 1.0):
            M, Sigma = linear_sde_kernel(m, t)
            alpha, var = sched.kernel(t)
            assert M[0, 0] == pytest.approx(alpha, rel=1e-10)
            assert Sigma[0, 0] == pytest.approx(var, rel=1e-10)

    def test_mean_map_is_matrix_exponential(self):
        rng = np.random.default_rng(0)
        A = -np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        m = SDEModel(A0=A, b0=np.zeros(3), C0=rng.standard_normal((3, 3)))
        M, Sigma = linear_sde_kernel(m, 0.7)
        np.testing.assert_allclose(M, expm(0.7 * A), rtol=1e-10)
        np.testing.assert_allclose(Sigma, Sigma.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(Sigma)) > -1e-12


class TestDSMLoss:
    def setup_method(self):
        self.sched = VPSchedule(beta_min=2.0, T=1.0)
        self.data = Gaussian([0.0, 0.0], np.eye(2))

    def test_empty_batch_rejected(self):
        net = ScoreNetworkDemon(2, hidden=(8,), seed=0)
        with pytest.raises(ContractViolationError):
            dsm_loss(net, np.empty((0, 2)), self.sched, np.random.default_rng(0))

    def test_zero_score_loss_near_dimension(self):
        """With s = 0 the weighted loss is E[sigma^2 |z/sigma|^2] = dim."""
        from thermosim.mlp import MLP
        net = ScoreNetworkDemon(2, net=MLP([3, 8, 2], seed=0, zero_final=True))
        rng = np.random.default_rng(0)
        losses = [dsm_loss(net, self.data.sample(rng, 512), self.sched, rng)
                  for _ in range(20)]
        assert abs(np.mean(losses) - 2.0) < 0.1

    def test_exact_kernel_score_minimizes(self):
        """The analytic conditional score gives loss ~ 0 compared to zero."""

        class ExactScore:
            def __init__(self, sched):
                self.sched = sched
                self.dim = 1

            def forward_with_cache(self, ts, Xt):
                # For standard normal data, p_t is N(0, alpha^2 + var) and the
                # marginal score minimizes DSM; use it as a near-oracle.
                alpha, var = self.sched.kernel(ts)
                total = alpha ** 2 + var
                return -Xt / total[:, None], None

        rng = np.random.default_rng(1)
        data = Gaussian([0.0], [[1.0]])
        exact = ExactScore(self.sched)
        X0 = data.sample(rng, 4000)
        loss_exact = _loss_only(exact, X0, self.sched, rng)
        from thermosim.mlp import MLP
        zero = ScoreNetworkDemon(1, net=MLP([2, 4, 1], seed=0, zero_final=True))
        loss_zero = dsm_loss(zero, X0, self.sched, np.random.default_rng(1))
        assert loss_exact < 0.5 * loss_zero

    def test_gradient_check_against_finite_differences(self):
        net = ScoreNetworkDemon(2, hidden=(8,), seed=2)
        rng_data = np.random.default_rng(0)
        X0 = self.data.sample(rng_data, 16)

        def loss_at(flat):
            net.net.set_flat(flat)
            return dsm_loss(net, X0, self.sched, np.random.default_rng(7))

        flat = net.net.get_flat()
        net.net.set_flat(flat)
        _, grads = dsm_loss(net, X0, self.sched, np.random.default_rng(7),
                            with_grads=True)
        h = 1e-5
        idx = np.random.default_rng(3).choice(flat.size, size=30, replace=False)
        scale = max(1.0, np.max(np.abs(grads[idx])))
        for i in idx:
            e = np.zeros_like(flat)
            e[i] = h
            fd = (loss_at(flat + e) - loss_at(flat - e)) / (2 * h)
            assert abs(fd - grads[i]) / scale < 1e-4
        net.net.set_flat(flat)


def _loss_only(score_like, X0, sched, rng):
    """DSM loss for any object exposing forward_with_cache."""
    ts = rng.uniform(1e-3, sched.T, size=X0.shape[0])
    alpha, var = sched.kernel(ts)
    sigma = np.sqrt(var)
    Z = rng.standard_normal(X0.shape)
    Xt = alpha[:, None] * X0 + sigma[:, None] * Z
    S, _ = score_like.forward_with_cache(ts, Xt)
    resid = S + Z / sigma[:, None]
    return float(np.mean(var * np.sum(resid ** 2, axis=1)))


class TestTrainDemon:
    def setup_method(self):
        self.sched = VPSchedule(beta_min=2.0, T=1.0)
        self.data = Gaussian([2.0], [[0.25]])
        self.sampler = lambda rng, n: self.data.sample(rng, n)

    def test_zero_learning_rate_freezes_parameters(self):
        demon = ScoreNetworkDemon(1, hidden=(8,), seed=0)
        before = demon.net.get_flat().copy()
        objective = kernel_dsm_objective(self.sampler, self.sched, 16)
        train_demon(demon, objective,
                    TrainConfig(learning_rate=0.0, steps=5, seed=0))
        np.testing.assert_array_equal(demon.net.get_flat(), before)

    def test_same_seed_same_history(self):
        objective = kernel_dsm_objective(self.sampler, self.sched, 16)
        cfg = TrainConfig(learning_rate=1e-3, steps=10, seed=4)
        _, h1 = train_demon(ScoreNetworkDemon(1, hidden=(8,), seed=1),
                            objective, cfg)
        _, h2 = train_demon(ScoreNetworkDemon(1, hidden=(8,), seed=1),
                            objective, cfg)
        np.testing.assert_array_equal(h1, h2)

    def test_loss_trend_decreases(self):
        objective = kernel_dsm_objective(self.sampler, self.sched, 64)
        demon = ScoreNetworkDemon(1, hidden=(32, 32), seed=0)
        _, history = train_demon(demon, objective,
                                 TrainConfig(learning_rate=3e-3, steps=300, seed=0))
        assert np.mean(history[-50:]) < np.mean(history[:50])

    def test_trained_score_matches_posterior(self):
        """1D Gaussian N(2, 0.25): near t=0 the learned score should track
        -(x - 2) / 0.25 with relative L2 error < 0.1 on [1, 3]."""
        objective = kernel_dsm_objective(self.sampler, self.sched, 128)
        demon = ScoreNetworkDemon(1, hidden=(64, 64), seed=0)
        demon, _ = train_demon(demon, objective,
                               TrainConfig(learning_rate=1e-2, steps=10000, seed=0))
        xs = np.linspace(1.0, 3.0, 101)[:, None]
        t_eval = 1e-3
        alpha, var = self.sched.kernel(t_eval)
        marginal = Gaussian([2.0 * alpha], [[alpha ** 2 * 0.25 + var]])
        truth = np.array([marginal.score(x) for x in xs])
        pred = demon.query_batch(t_eval, xs)
        rel = np.linalg.norm(pred - truth) / np.linalg.norm(truth)
        assert rel < 0.1

    def test_divergent_loss_aborts_with_step(self):
        demon = ScoreNetworkDemon(1, hidden=(4,), seed=0)

        def bad_objective(d, rng):
            return np.nan, np.zeros(d.net.get_flat().size)

        with pytest.raises(DivergenceError, match="step 0") as info:
            train_demon(demon, bad_objective, TrainConfig(steps=3, seed=0))
        err = info.value
        assert (err.step, err.t, err.trajectory, err.max_abs) == (0, None, None, None)

    def test_objective_without_gradients_rejected(self):
        demon = ScoreNetworkDemon(1, hidden=(4,), seed=0)
        with pytest.raises(ContractViolationError, match="gradients"):
            train_demon(demon, lambda d, rng: 1.0, TrainConfig(steps=3, seed=0))

    def test_in_situ_objective_uses_env_kernel(self):
        env = SDEModel(A0=[[-1.0]], b0=[0.0], C0=[[np.sqrt(2.0)]])
        objective = kernel_dsm_objective(self.sampler, self.sched, 16,
                                         env_model=env)
        demon = ScoreNetworkDemon(1, hidden=(8,), seed=0)
        loss, grads = objective(demon, np.random.default_rng(0))
        assert np.isfinite(loss)
        assert grads.shape == demon.net.get_flat().shape

    def test_history_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        loss_history_to_csv([1.5, 0.5], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss"
        assert lines[1].startswith("0,")


class TestTrainConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ContractViolationError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ContractViolationError):
            TrainConfig(steps=0)
