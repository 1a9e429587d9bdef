import numpy as np
import pytest
from scipy.linalg import expm

from thermosim import (AnalyticScoreDemon, ConjugateGaussianModel,
                       ContractViolationError, DiffusionSpec, DivergenceError,
                       Gaussian,
                       GateProgram, GateSegment, Generator, NSDESpec,
                       SDEModel, Schedule, TargetDistribution,
                       TotalDerivativeDemon, VPSchedule, anneal,
                       diffusion_forward, diffusion_reverse,
                       discrete_gate_sequence, double_well_target,
                       gaussian_target, hmc_sample, latent_sde_rollout,
                       mixture_target, propagate_moments, sghmc_sample,
                       sgld_sample, simulate_trajectory,
                       weight_diffuser_rollout)
from thermosim.core_sde import DIVERGENCE_LIMIT


def gaussian_score_demon(mean, var, schedule):
    """Exact time-indexed marginal score for Gaussian data under VP noising."""
    mean = np.asarray(mean, dtype=float)

    def score(x, t):
        a, v = schedule.kernel(t)
        sig2 = a * a * var + v
        return -(x - a * mean) / sig2

    return AnalyticScoreDemon(score, mean.size, batched=True)


class TestDiffusionForward:
    def test_vp_preserves_standard_normal(self):
        spec = DiffusionSpec("vp", 1, T=1.0)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((4000, 1))
        _, X = diffusion_forward(spec, x0, 0.01, seed=1)
        for k in (0, 50, 100):
            v = X[:, k, 0].var()
            assert abs(v - 1.0) < 0.1

    def test_ve_variance_grows(self):
        c0 = 1.2
        spec = DiffusionSpec("ve", 1, T=1.0, c0=c0)
        x0 = np.zeros((4000, 1))
        times, X = diffusion_forward(spec, x0, 0.01, seed=2)
        var = X.var(axis=0)[:, 0]
        slope = np.polyfit(times, var, 1)[0]
        assert abs(slope - c0 ** 2) / c0 ** 2 < 0.1

    def test_kernel_matches_forward_moments(self):
        vp = DiffusionSpec("vp", 1, T=1.0)
        assert vp.kernel(0.7) == vp.schedule.kernel(0.7)
        ve = DiffusionSpec("ve", 1, T=1.0, c0=1.2)
        x0 = np.full((4000, 1), 0.5)
        _, X = diffusion_forward(ve, x0, 0.01, seed=3)
        alpha, var = ve.kernel(1.0)
        assert alpha == 1.0 and var == pytest.approx(1.44)
        assert abs(X[:, -1, 0].mean() - alpha * 0.5) < 0.06
        assert abs(X[:, -1, 0].var() - var) / var < 0.1

    def test_zero_noise_deterministic_flow(self):
        # beta -> 0 limit approximated by a tiny constant beta
        spec = DiffusionSpec("vp", 1, T=1.0,
                             schedule=VPSchedule(beta_min=1e-12, T=1.0))
        x0 = np.array([[3.0]])
        _, X = diffusion_forward(spec, x0, 0.01, seed=0)
        assert abs(X[0, -1, 0] - 3.0) < 1e-3

    def test_nonfinite_rejected(self):
        spec = DiffusionSpec("vp", 1)
        with pytest.raises(ContractViolationError):
            diffusion_forward(spec, [[np.nan]], 0.01, seed=0)

    def test_dt_must_divide_horizon(self):
        spec = DiffusionSpec("vp", 1, T=1.0)
        with pytest.raises(ContractViolationError):
            diffusion_forward(spec, [[0.0]], 0.3, seed=0)

    def test_member_stream_independent_of_batch(self):
        """Member i draws from trajectory_rng(seed, i), so row 0 of a batch
        is the same start noised alone."""
        spec = DiffusionSpec("vp", 2, T=1.0)
        x0 = np.random.default_rng(0).standard_normal((5, 2))
        _, batch = diffusion_forward(spec, x0, 0.01, seed=3)
        _, alone = diffusion_forward(spec, x0[:1], 0.01, seed=3)
        np.testing.assert_allclose(batch[0], alone[0], rtol=1e-12, atol=1e-12)


class TestDiffusionReverse:
    def test_gaussian_recovery(self):
        # horizon long enough that the noise prior matches the true marginal
        sched = VPSchedule(beta_min=2.0, T=3.0)
        spec = DiffusionSpec("vp", 1, T=3.0, schedule=sched)
        score = gaussian_score_demon([2.0], 0.25, sched)
        samples = diffusion_reverse(spec, score, 10 ** 4, 1e-3, seed=3)
        assert abs(samples.mean() - 2.0) < 0.05
        assert abs(samples.var() - 0.25) / 0.25 < 0.1

    def test_zero_score_ve_stays_prior_like(self):
        c0 = 1.0
        spec = DiffusionSpec("ve", 1, T=1.0, c0=c0)

        class ZeroScore:
            def query_batch(self, t, X):
                return np.zeros_like(X)

        samples = diffusion_reverse(spec, ZeroScore(), 8000, 1e-2, seed=4)
        # prior N(0, c0^2 T) plus another T of diffusion: variance 2 c0^2 T
        model = SDEModel(A0=[[0.0]], b0=[0.0], C0=[[c0]])
        oracle = propagate_moments(model, cov0=[[c0 ** 2]], tf=1.0, dt=1e-2)
        target = oracle[-1].cov[0, 0]
        assert abs(samples.var() - target) / target < 0.1

    def test_round_trip_moment_consistency(self):
        """Forward then reverse with the analytic score preserves Gaussian
        data moments within 3 sigma."""
        sched = VPSchedule(beta_min=2.0, T=3.0)
        spec = DiffusionSpec("vp", 1, T=3.0, schedule=sched)
        n = 10 ** 4
        score = gaussian_score_demon([0.5], 0.5, sched)
        out = diffusion_reverse(spec, score, n, 1e-3, seed=5)
        se_mean = np.sqrt(0.5 / n)
        assert abs(out.mean() - 0.5) < 3 * se_mean + 0.02
        assert abs(out.var() - 0.5) / 0.5 < 0.1

    def test_dt_must_divide_horizon(self):
        sched = VPSchedule(beta_min=2.0, T=1.0)
        spec = DiffusionSpec("vp", 1, T=1.0, schedule=sched)
        with pytest.raises(ContractViolationError):
            diffusion_reverse(spec, gaussian_score_demon([0.0], 1.0, sched), 10, 0.3, seed=0)

    @pytest.mark.parametrize("kick", [1e14, np.nan, np.inf])
    def test_runaway_sample_is_a_divergence(self, kick):
        """Row 3's score jumps from t = 0.7 on (the fourth step), so the
        fourth step's state breaks the stepper's rule there first."""
        spec = DiffusionSpec("ve", 1, T=1.0, c0=1.0)

        class KickedScore:
            def query_batch(self, t, X):
                s = np.zeros_like(X)
                if t < 0.75:
                    s[3] = kick
                return s

        with pytest.raises(DivergenceError,
                           match=r"^sample 3 diverged at step 4, t=0\.4$") as info:
            diffusion_reverse(spec, KickedScore(), 10, 0.1, seed=0)
        assert (info.value.trajectory, info.value.step) == (3, 4)
        assert info.value.t == pytest.approx(0.4)


class TestTargets:
    def test_gradient_fd_consistency(self):
        targets = [
            gaussian_target([0.5, -0.5], [[1.0, 0.3], [0.3, 2.0]]),
            mixture_target([0.5, 0.5], [[-1.0], [1.0]], [[[0.3]], [[0.3]]]),
            double_well_target(2),
        ]
        rng = np.random.default_rng(0)
        for tgt in targets:
            for _ in range(10):
                assert tgt.check_gradient(rng.uniform(-1.5, 1.5, tgt.dim))


class TestSGHMC:
    def test_gaussian_stationary_covariance(self):
        target = gaussian_target([0.0, 0.0], np.eye(2))
        chain = sghmc_sample(target, n_steps=40000, dt=0.05, seed=0)
        cov = np.cov(chain.T)
        assert np.max(np.abs(chain.mean(axis=0))) < 0.1
        assert np.linalg.norm(cov - np.eye(2)) / np.linalg.norm(np.eye(2)) < 0.15

    def test_double_well_histogram(self):
        target = double_well_target(1)
        chain = sghmc_sample(target, n_steps=200000, dt=0.02, seed=1)
        xs = np.linspace(-2.5, 2.5, 101)
        dens = np.exp(-np.array([target.U(np.array([x])) for x in xs]))
        dens /= np.trapezoid(dens, xs)
        hist, edges = np.histogram(chain[:, 0], bins=xs, density=True)
        centers = (edges[:-1] + edges[1:]) / 2
        ref = np.interp(centers, xs, dens)
        width = edges[1] - edges[0]
        tv = 0.5 * np.sum(np.abs(hist - ref)) * width
        assert tv < 0.08

    def test_divergence_raised_with_first_bad_step(self):
        # With no force, dt = 3 makes the momentum update p <- -2 p + noise.
        flat = TargetDistribution("flat", 1, _ZeroPotential())
        with pytest.raises(DivergenceError, match=r"^sghmc chain diverged at step \d+, t="):
            sghmc_sample(flat, n_steps=2000, dt=3.0, seed=0)

    def test_divergence_carries_step_and_time(self):
        flat = TargetDistribution("flat", 1, _ZeroPotential())
        with pytest.raises(DivergenceError) as info:
            sghmc_sample(flat, n_steps=2000, dt=3.0, seed=0)
        err = info.value
        assert str(err) == f"sghmc chain diverged at step {err.step}, t={err.t:g}"
        assert err.t == pytest.approx(3.0 * err.step)
        assert err.trajectory == 0 and err.max_abs > DIVERGENCE_LIMIT

    def test_overflowing_force_is_a_divergence(self):
        # x passes DIVERGENCE_LIMIT at step 4 (|x| ~ 7e15); the force 4x^3
        # overflows at step 7 and later states are NaN, but the first step
        # past the limit is the one named.
        with pytest.raises(DivergenceError, match=r"^sghmc chain diverged at step 4, t=2$") \
                as info:
            sghmc_sample(double_well_target(1), dt=0.5, seed=0, x0=[2.0])
        assert (info.value.step, info.value.t) == (4, 2.0)

    def test_zero_gradient_momentum_is_ou(self):
        """With grad U = 0 and B = I the momentum is an OU process and x an
        integrated OU; compare x-variance growth against the linear oracle."""
        flat = TargetDistribution("flat", 1, _ZeroPotential())
        model = SDEModel(A0=[[0.0, 1.0], [0.0, -1.0]], b0=[0.0, 0.0],
                         C0=[[0.0, 0.0], [0.0, np.sqrt(2.0)]])
        oracle = propagate_moments(model, tf=5.0, dt=0.01)
        chains = [sghmc_sample(flat, n_steps=500, dt=0.01, seed=s, burn_in=0.0)
                  for s in range(3000)]
        xs = np.array([c[-1, 0] for c in chains])
        # state at step 500 corresponds to t = 5.0 in chain time 500*0.01
        target_var = oracle[500].cov[0, 0]
        assert abs(xs.var() - target_var) / target_var < 0.15

    def test_non_spd_rejected(self):
        target = gaussian_target([0.0], [[1.0]])
        with pytest.raises(ContractViolationError):
            sghmc_sample(target, mass=[[-1.0]], n_steps=10, seed=0)

    @pytest.mark.parametrize("noise_cov, words", [
        (-np.eye(2), "gradient noise covariance must be SPD"),
        (np.eye(3), "gradient noise covariance must be 2x2"),
        ([[1.0, 0.5], [0.0, 1.0]], "gradient noise covariance must be symmetric"),
    ])
    def test_misfit_noise_cov_rejected(self, noise_cov, words):
        target = gaussian_target([0.0, 0.0], np.eye(2))
        with pytest.raises(ContractViolationError, match=words):
            sghmc_sample(target, n_steps=10, seed=0, noise_cov=noise_cov)

    def test_stochastic_gradient_mode_runs(self):
        target = gaussian_target([0.0], [[1.0]])
        chain = sghmc_sample(target, n_steps=20000, dt=0.05, seed=2, noise_cov=[[0.01]])
        assert abs(chain.var() - 1.0) < 0.2


class _ZeroPotential:
    def value(self, t, x):
        return 0.0

    def gradient(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class TestSGLD:
    def test_conjugate_gaussian_posterior_mean(self):
        rng = np.random.default_rng(0)
        data = rng.normal(1.5, 1.0, size=64)
        model = ConjugateGaussianModel(data, sigma=1.0, mu0=0.0, tau0=10.0,
                                       batch_size=16)
        mean, var = model.posterior()
        target = gaussian_target([mean], [[var]])  # only used for dim
        chain = sgld_sample(target, step_sizes=1e-3, n_steps=40000, seed=1,
                            minibatch_model=model, x0=[mean])
        se = np.sqrt(var)  # generous: correlated chain
        assert abs(chain.mean() - mean) < 3 * se

    def test_constant_step_gaussian_variance(self):
        target = gaussian_target([0.0], [[1.0]])
        chain = sgld_sample(target, step_sizes=0.01, n_steps=100000, seed=2)
        assert abs(chain.var() - 1.0) < 0.1

    def test_zero_gradient_random_walk(self):
        flat = TargetDistribution("flat", 1, _ZeroPotential())
        eps, n = 0.01, 20000
        chain = sgld_sample(flat, step_sizes=eps, n_steps=n, seed=3, burn_in=0.0)
        # increments are N(0, eps): terminal variance across the chain of
        # independent increments sums to n*eps
        increments = np.diff(np.concatenate([[0.0], chain[:, 0]]))
        assert abs(increments.var() - eps) / eps < 0.05

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raised_with_first_bad_step(self):
        # eps = 2.5 makes the quadratic update theta <- -0.25 theta + noise
        # stable, eps = 10 makes it theta <- -4 theta + noise.
        with pytest.raises(DivergenceError,
                           match=r"^sgld chain diverged at step \d+, t=\d+"):
            sgld_sample(gaussian_target([0.0], [[1.0]]), step_sizes=10.0,
                        n_steps=2000, seed=0)

    def test_increasing_steps_rejected(self):
        target = gaussian_target([0.0], [[1.0]])
        with pytest.raises(ContractViolationError):
            sgld_sample(target, step_sizes=lambda k: 0.01 * (1 + k),
                        n_steps=10, seed=0)


class TestHMC:
    def test_small_step_acceptance_near_one(self):
        target = gaussian_target([0.0], [[1.0]])
        _, accept = hmc_sample(target, n_leapfrog=10, step=1e-3, n_iter=500, seed=0)
        assert accept > 0.99

    def test_gaussian_variance(self):
        target = gaussian_target([0.0], [[1.0]])
        chain, accept = hmc_sample(target, n_leapfrog=10, step=0.5,
                                   n_iter=20000, seed=1)
        assert abs(chain.var() - 1.0) < 0.05
        assert accept > 0.5

    def test_zero_leapfrog_rejected(self):
        target = gaussian_target([0.0], [[1.0]])
        with pytest.raises(ContractViolationError):
            hmc_sample(target, n_leapfrog=0, step=0.1, n_iter=10, seed=0)

    def test_nonfinite_start_rejected(self):
        target = gaussian_target([0.0, 0.0], np.eye(2))
        with pytest.raises(ContractViolationError, match="x0"):
            hmc_sample(target, n_iter=20, x0=[np.nan, 0.0], burn_in=0)


class TestAnneal:
    def test_double_well_minimum_found(self):
        target = double_well_target(1)
        best, _ = anneal(target, n_steps=20000, dt=0.01, seed=0, x0=[0.2])
        assert abs(abs(best[0]) - 1.0) < 0.05

    def test_frozen_at_minimum_without_noise(self):
        target = double_well_target(1)
        best, chain = anneal(target, S=np.zeros((1, 1)), n_steps=100, dt=0.01,
                             seed=0, x0=[1.0], p0=[0.0])
        np.testing.assert_allclose(chain, 1.0)
        np.testing.assert_allclose(best, [1.0])

    def test_boltzmann_histogram(self):
        target = double_well_target(1)
        _, chain = anneal(target, n_steps=400000, dt=0.01, seed=1, x0=[1.0])
        xs = np.linspace(-2.5, 2.5, 101)
        dens = np.exp(-np.array([target.U(np.array([x])) for x in xs]))
        dens /= np.trapezoid(dens, xs)
        hist, edges = np.histogram(chain[:, 0], bins=xs, density=True)
        centers = (edges[:-1] + edges[1:]) / 2
        ref = np.interp(centers, xs, dens)
        tv = 0.5 * np.sum(np.abs(hist - ref)) * (edges[1] - edges[0])
        assert tv < 0.08

    def test_temperature_scaling_concentrates(self):
        """Deeper well at -1 under asymmetric loss; occupancy of the global
        basin grows with lambda."""
        # tilted double well: global min near x = -1, local near x = +1
        class Tilted:
            def value(self, t, x):
                return float((x[0] ** 2 - 1) ** 2 + 0.3 * x[0])

            def gradient(self, t, x):
                return np.array([4 * x[0] * (x[0] ** 2 - 1) + 0.3])

        loss = TargetDistribution("tilted", 1, Tilted())
        occ = []
        for lam in (1.0, 4.0, 16.0):
            vals = [np.mean(anneal(loss, n_steps=60000, dt=0.005, seed=s,
                                   lam=lam, x0=[0.0])[1][:, 0] < 0)
                    for s in range(5)]
            occ.append(np.mean(vals))
        assert occ[0] < occ[1] < occ[2]

    def test_divergence_raised_with_first_bad_step(self):
        with pytest.raises(DivergenceError, match=r"^anneal chain diverged at step \d+, t="):
            anneal(double_well_target(2), n_steps=200, dt=0.5, seed=1)

    def test_non_lower_triangular_rejected(self):
        target = double_well_target(2)
        with pytest.raises(ContractViolationError):
            anneal(target, S=np.array([[1.0, 0.5], [0.0, 1.0]]), n_steps=10,
                   seed=0)

    def test_nonfinite_S_rejected_before_its_shape(self):
        with pytest.raises(ContractViolationError, match="^S must be finite$"):
            anneal(double_well_target(2), S=[[np.nan, 0.0], [0.0, 1.0]], n_steps=10, seed=0)


@pytest.mark.parametrize("name, run", [
    ("sgld", lambda: sgld_sample(gaussian_target([0.0], [[1.0]]), step_sizes=10.0,
                                 n_steps=40, seed=0)),
    ("sghmc", lambda: sghmc_sample(TargetDistribution("flat", 1, _ZeroPotential()),
                                   n_steps=60, dt=3.0, seed=0)),
    ("anneal", lambda: anneal(gaussian_target([0.0], [[1.0]]), n_steps=60, dt=3.0,
                              seed=0)),
])
def test_finite_runaway_chain_is_a_divergence(name, run):
    """Each chain stays finite to its end but passes DIVERGENCE_LIMIT on the
    way, so the stepper's rule stops it, as it stops an ensemble."""
    with pytest.raises(DivergenceError, match=rf"^{name} chain diverged at step \d+, t=") as info:
        run()
    err = info.value
    assert err.trajectory == 0
    assert DIVERGENCE_LIMIT < err.max_abs < np.inf


class TestSamplerCrossValidation:
    def test_sghmc_vs_hmc_gaussian_moments(self):
        target = gaussian_target([0.0, 0.0], np.eye(2))
        a = sghmc_sample(target, n_steps=40000, dt=0.05, seed=0)
        b, _ = hmc_sample(target, n_leapfrog=10, step=0.5, n_iter=20000, seed=1)
        assert np.max(np.abs(a.mean(axis=0) - b.mean(axis=0))) < 0.06
        ca, cb = np.cov(a.T), np.cov(b.T)
        assert np.linalg.norm(ca - cb) / np.linalg.norm(cb) < 0.15


class TestWeightDiffuser:
    def make_spec(self, sigma=0.0, f_w=None, posterior=None):
        def f_h(t, H, w):
            return np.tanh(H @ w.reshape(2, 2).T)

        return NSDESpec(2, 4, f_h, f_w=f_w, posterior_net=posterior, sigma=sigma)

    def test_frozen_weights_neural_ode(self):
        spec = self.make_spec(sigma=0.0)
        w0 = np.array([0.1, -0.2, 0.3, 0.0])
        _, H, W = weight_diffuser_rollout(spec, "prior", [[1.0, 0.0]], 1.0,
                                          0.01, seed=0, w0=w0)
        np.testing.assert_allclose(W[-1], w0, atol=1e-12)
        # deterministic ODE: repeatable and finite
        _, H2, _ = weight_diffuser_rollout(spec, "prior", [[1.0, 0.0]], 1.0,
                                           0.01, seed=99, w0=w0)
        np.testing.assert_array_equal(H[-1], H2[-1])

    def test_ou_prior_weight_variance(self):
        sigma = 0.5
        spec = self.make_spec(sigma=sigma, f_w=lambda t, w: -w)
        finals = []
        for seed in range(400):
            _, _, W = weight_diffuser_rollout(spec, "prior", [[0.0, 0.0]],
                                              6.0, 0.02, seed=seed)
            finals.append(W[-1])
        var = np.asarray(finals).var(axis=0).mean()
        target = sigma ** 2 / 2
        assert abs(var - target) / target < 0.2

    def test_posterior_mode_uses_drift_network(self):
        spec = self.make_spec(sigma=0.0, posterior=lambda t, w: -2.0 * w)
        w0 = np.ones(4)
        _, _, W = weight_diffuser_rollout(spec, "posterior", [[0.0, 0.0]],
                                          1.0, 0.001, seed=0, w0=w0)
        # drift = NN + w = -w: exponential decay
        np.testing.assert_allclose(W[-1], np.exp(-1.0) * w0, rtol=1e-2)

    def test_posterior_without_network_rejected(self):
        spec = self.make_spec()
        with pytest.raises(ContractViolationError):
            weight_diffuser_rollout(spec, "posterior", [[0.0, 0.0]], 1.0,
                                    0.01, seed=0)

    def test_dt_must_divide_horizon(self):
        with pytest.raises(ContractViolationError):
            weight_diffuser_rollout(self.make_spec(), "prior", [[0.0, 0.0]], 1.0,
                                    0.3, seed=0)

    @pytest.mark.parametrize("block", ["weights", "hidden"])
    def test_runaway_state_is_a_divergence(self, block):
        """A drift that jumps at t = 0.5 leaves a runaway state after step 3,
        at t = 0.75, whether it drives the weights or the hidden states."""
        def jump(t, x):
            return np.full_like(x, 4e13 if t >= 0.5 else 0.0)

        if block == "weights":
            spec = NSDESpec(2, 4, lambda t, H, w: np.zeros_like(H), f_w=jump)
        else:
            spec = NSDESpec(2, 4, lambda t, H, w: jump(t, H))
        with pytest.raises(DivergenceError,
                           match=r"^trajectory 0 diverged at step 3, t=0\.75$") as info:
            weight_diffuser_rollout(spec, "prior", [[1.0, 0.0]], 1.0, 0.25, seed=0)
        assert (info.value.step, info.value.t) == (3, 0.75)

    def test_determinism(self):
        spec = self.make_spec(sigma=0.3, f_w=lambda t, w: -w)
        a = weight_diffuser_rollout(spec, "prior", [[1.0, 0.0]], 1.0, 0.01, seed=5)
        b = weight_diffuser_rollout(spec, "prior", [[1.0, 0.0]], 1.0, 0.01, seed=5)
        np.testing.assert_array_equal(a[2], b[2])


class TestLatentRollout:
    def test_nonfinite_h0_is_a_contract_violation(self):
        model = SDEModel(A0=[[-1.0, 0.0], [0.0, -1.0]], b0=[0.0, 0.0], C0=np.eye(2))
        with pytest.raises(ContractViolationError, match="h0 must be finite"):
            latent_sde_rollout(model, None, None, [np.nan, 0.0], [0.5])

    def test_checkpoint_at_start_returns_h0(self):
        model = SDEModel(A0=[[-1.0]], b0=[0.0], C0=[[0.0]])
        times, out = latent_sde_rollout(model, None, None, [2.0], [0.0])
        np.testing.assert_allclose(out[0], [2.0])

    def test_deterministic_linear_flow(self):
        A = np.array([[-0.3, 1.0], [-1.0, -0.3]])
        model = SDEModel(A0=A, b0=np.zeros(2), C0=np.zeros((2, 2)))
        h0 = np.array([1.0, 0.5])
        checkpoints = [0.25, 0.7, 1.0]
        _, out = latent_sde_rollout(model, None, None, h0, checkpoints, dt=1e-4)
        for t, h in zip(checkpoints, out):
            np.testing.assert_allclose(h, expm(A * t) @ h0, atol=1e-4)

    def test_ensemble_snapshots_match_moment_oracle(self):
        model = SDEModel(A0=[[-1.0]], b0=[0.5], C0=[[0.8]])
        oracle = propagate_moments(model, mu0=[1.0], tf=1.0, dt=0.01)
        finals = [latent_sde_rollout(model, None, None, [1.0], [1.0], dt=0.01,
                                     seed=s)[1][0, 0] for s in range(4000)]
        finals = np.asarray(finals)
        assert abs(finals.mean() - oracle[-1].mean[0]) < 0.05
        assert abs(finals.var() - oracle[-1].cov[0, 0]) / oracle[-1].cov[0, 0] < 0.1

    def test_programmed_rollout_within_domain(self):
        model = SDEModel(A0=[[-1.0]], b0=[1.0], C0=[[0.0]])
        prog = GateProgram(schedule_b=Schedule(
            [GateSegment(Generator.scalar("drift_vec", 0.5), 0.0, 1.0)]))
        with pytest.raises(ContractViolationError):
            latent_sde_rollout(model, prog, None, [0.0], [2.0])

    def test_decreasing_checkpoints_rejected(self):
        model = SDEModel(A0=[[-1.0]], b0=[0.0], C0=[[0.0]])
        with pytest.raises(ContractViolationError):
            latent_sde_rollout(model, None, None, [0.0], [0.5, 0.2])

    def test_matches_simulate_trajectory_on_grid(self):
        """Grid-aligned checkpoints read the simulate_trajectory path of the
        same seed, with a time-dependent program and a stateful demon."""
        model = SDEModel(A0=[[-0.5, 0.3], [-0.2, -1.0]], b0=[0.4, -0.1],
                         C0=[[0.6, 0.0], [0.1, 0.4]])
        program = GateProgram(schedule_A=discrete_gate_sequence(
            "drift_super", [Generator.scalar("drift_super", k) for k in (0.5, -0.8)],
            0.0, 0.5))
        demon = TotalDerivativeDemon(lambda t, v: 0.1 * v + t,
                                     lambda t, v: 0.2 * np.eye(2), [0.0, 0.0])
        checkpoints = [0.25, 0.5, 1.0]
        _, out = latent_sde_rollout(model, program, demon, [1.0, -0.5], checkpoints,
                                    dt=0.05, seed=11)
        traj = simulate_trajectory(model, program, demon, v0=[1.0, -0.5], tf=1.0,
                                   dt=0.05, seed=11)
        np.testing.assert_allclose(out, traj.values[[5, 10, 20]], rtol=1e-12, atol=1e-12)

    def test_divergence_raised(self):
        model = SDEModel(A0=[[400.0]], b0=[0.0], C0=[[0.0]])
        with pytest.raises(DivergenceError, match="t=0.18"):
            latent_sde_rollout(model, None, None, [1.0], [0.5, 1.0], dt=0.01)

    def test_programmed_checkpoints_at_start_take_no_step(self):
        model = SDEModel(A0=[[-1.0]], b0=[1.0], C0=[[1.0]])
        program = GateProgram(schedule_b=Schedule(
            [GateSegment(Generator.scalar("drift_vec", 0.5), 0.0, 1.0)]))
        times, out = latent_sde_rollout(model, program, None, [2.0], [0.0])
        np.testing.assert_array_equal(times, [0.0])
        np.testing.assert_array_equal(out, [[2.0]])
