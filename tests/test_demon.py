import numpy as np
import pytest

from thermosim import (AnalyticScoreDemon, ContractViolationError, Demon,
                       ForceDemon, Gaussian, GaussianMixture,
                       QuadraticPotential, SDEModel, ScoreNetworkDemon,
                       TotalDerivativeDemon, ZeroDemon, analytic_score,
                       gaussian_initial, potential_catalog, simulate_ensemble,
                       simulate_trajectory, total_derivative_step)


class TestForceDemon:
    def test_quadratic_force(self):
        d = ForceDemon(QuadraticPotential(np.zeros(2)), x0=[2.0, 0.0])
        np.testing.assert_allclose(d.query(0.0, np.zeros(2)), [-2.0, 0.0])

    def test_fd_matches_analytic(self):
        pot = QuadraticPotential(np.zeros(2))
        a = ForceDemon(pot, x0=[1.3, -0.4], gradient_mode="analytic")
        f = ForceDemon(pot, x0=[1.3, -0.4], gradient_mode="fd", fd_step=1e-4)
        np.testing.assert_allclose(f.query(0.0, np.zeros(2)),
                                   a.query(0.0, np.zeros(2)), atol=1e-6)

    def test_fd_matches_analytic_on_catalog(self):
        catalog = potential_catalog()
        pots = [
            catalog["quadratic"]([0.3, -0.2], [[2.0, 0.5], [0.5, 1.0]]),
            catalog["double_well"](),
            catalog["gaussian_neg_log"]([0.1, 0.4], [[1.0, 0.2], [0.2, 0.8]]),
            catalog["mixture_neg_log"]([0.4, 0.6], [
                Gaussian([-1.0, 0.0], np.eye(2)), Gaussian([1.0, 0.0], np.eye(2))]),
        ]
        rng = np.random.default_rng(0)
        for pot in pots:
            for _ in range(25):
                x = rng.uniform(-1.5, 1.5, 2)
                a = ForceDemon(pot, x0=x, gradient_mode="analytic")
                f = ForceDemon(pot, x0=x, gradient_mode="fd")
                ga = a.query(0.0, np.zeros(2))
                gf = f.query(0.0, np.zeros(2))
                denom = max(1.0, np.max(np.abs(ga)))
                assert np.max(np.abs(ga - gf)) / denom < 1e-5

    def test_latent_frozen_without_momentum(self):
        d = ForceDemon(QuadraticPotential(np.zeros(1)), x0=[0.7])
        forces = []
        for t in (0.0, 0.1):
            d.advance(t, np.zeros(1), None, 0.1)
            forces.append(d.query(t, np.zeros(1)))
        np.testing.assert_array_equal(forces[0], forces[1])
        np.testing.assert_array_equal(d.x, [0.7])

    def test_energy_conservation_against_leapfrog(self):
        """Euler integration of (x, p) with U = x^2/2 drifts in energy at
        O(dt) per unit time; leapfrog as oracle stays much tighter."""
        dt, n = 1e-3, 1000
        demon = ForceDemon(QuadraticPotential(np.zeros(1)), x0=[1.0])
        p = np.zeros(1)
        for k in range(n):
            force = demon.query(k * dt, p)
            p = p + force * dt
            demon.advance(k * dt, p, None, dt)
        H = 0.5 * demon.x[0] ** 2 + 0.5 * p[0] ** 2
        assert abs(H - 0.5) < 5 * dt  # O(dt) over unit time

        # leapfrog oracle
        x, p = np.array([1.0]), np.zeros(1)
        p = p - 0.5 * dt * x
        for _ in range(n):
            x = x + dt * p
            p = p - dt * x
        p = p + 0.5 * dt * x
        H_lf = 0.5 * x[0] ** 2 + 0.5 * p[0] ** 2
        assert abs(H_lf - 0.5) < 1e-5

    def test_gaussian_score_force(self):
        pot = potential_catalog()["gaussian_neg_log"]([0.0], [[1.0]])
        d = ForceDemon(pot, x0=[0.8])
        np.testing.assert_allclose(d.query(0.0, np.zeros(1)), [-0.8], atol=1e-12)

    def test_singular_mass_rejected(self):
        with pytest.raises(ContractViolationError):
            ForceDemon(QuadraticPotential(np.zeros(2)), mass=np.zeros((2, 2)),
                       x0=[0.0, 0.0])

    def test_clone_independent(self):
        d = ForceDemon(QuadraticPotential(np.zeros(1)), x0=[1.0])
        c = d.clone()
        c.advance(0.0, np.array([5.0]), None, 0.1)
        assert d.x[0] == 1.0
        assert c.x[0] != 1.0


class TestTotalDerivativeDemon:
    def make(self, q, r, d0=(0.0,)):
        return TotalDerivativeDemon(q, r, d0)

    def test_zero_partials_frozen(self):
        d = self.make(lambda t, v: [0.0], lambda t, v: [[0.0]], [0.3])
        total_derivative_step(d, 0.0, np.zeros(1), np.ones(1), 0.1)
        np.testing.assert_array_equal(d.d, [0.3])

    def test_constant_integration(self):
        d = self.make(lambda t, v: [1.0], lambda t, v: [[0.0]])
        total_derivative_step(d, 0.0, np.zeros(1), np.zeros(1), 0.1)
        np.testing.assert_allclose(d.d, [0.1])

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -0.1])
    def test_bad_dt_named(self, dt):
        """dt = nan used to be reported as "demon output not finite"."""
        d = self.make(lambda t, v: [1.0], lambda t, v: [[0.0]])
        with pytest.raises(ContractViolationError,
                           match=f"^dt must be finite and positive, got {dt}$"):
            total_derivative_step(d, 0.0, np.zeros(1), np.zeros(1), dt)

    def test_tracks_exact_total_derivative(self):
        """d*(t, v) = t v with q = v, r = t I along v(t) = sin(t)."""

        def run(dt):
            demon = TotalDerivativeDemon(lambda t, v: v,
                                         lambda t, v: t * np.eye(1), [0.0])
            t, n = 0.0, int(round(2.0 / dt))
            err = 0.0
            for _ in range(n):
                v = np.array([np.sin(t)])
                v_next = np.array([np.sin(t + dt)])
                demon.advance(t, v, (v_next - v) / dt, dt)
                t += dt
                err = max(err, abs(demon.d[0] - t * np.sin(t)))
            return err

        e1, e2 = run(0.01), run(0.005)
        assert e1 < 0.05
        assert abs(e2 / e1 - 0.5) < 0.2  # halving dt halves the error

    def test_clone_replays_identically(self):
        d = self.make(lambda t, v: v, lambda t, v: [[t]], [0.1])
        c = d.clone()
        rng = np.random.default_rng(0)
        for k in range(20):
            v, dv = rng.standard_normal(1), rng.standard_normal(1)
            d.advance(0.1 * k, v, dv, 0.1)
            c.advance(0.1 * k, v, dv, 0.1)
        np.testing.assert_array_equal(d.d, c.d)


class TestScoreNetworkDemon:
    def test_zero_final_layer_outputs_zero(self):
        from thermosim.mlp import MLP
        net = MLP([3, 8, 2], seed=0, zero_final=True)
        d = ScoreNetworkDemon(2, net=net)
        np.testing.assert_array_equal(d.query(0.5, [1.0, -1.0]), [0.0, 0.0])

    def test_batch_matches_single(self):
        d = ScoreNetworkDemon(2, hidden=(8,), seed=1)
        V = np.random.default_rng(0).standard_normal((5, 2))
        batch = d.query_batch(0.3, V)
        for i in range(5):
            np.testing.assert_allclose(batch[i], d.query(0.3, V[i]))

    def test_sinusoidal_embedding_shapes(self):
        d = ScoreNetworkDemon(2, hidden=(8,), time_embedding="sinusoidal",
                              n_frequencies=3, seed=0)
        out = d.query_batch(0.7, np.zeros((4, 2)))
        assert out.shape == (4, 2)

    def test_json_round_trip(self, tmp_path):
        d = ScoreNetworkDemon(2, hidden=(8, 8), seed=3)
        path = tmp_path / "demon.json"
        d.save(path)
        back = ScoreNetworkDemon.load(path)
        V = np.random.default_rng(1).standard_normal((4, 2))
        np.testing.assert_array_equal(d.query_batch(0.2, V),
                                      back.query_batch(0.2, V))


class TestAnalyticScore:
    def test_standard_normal(self):
        np.testing.assert_allclose(
            analytic_score(Gaussian([0.0, 0.0], np.eye(2)), [1.0, -2.0]),
            [-1.0, 2.0])

    def test_zero_at_mode(self):
        g = Gaussian([3.0], [[2.0]])
        np.testing.assert_allclose(analytic_score(g, [3.0]), [0.0])

    def test_symmetric_mixture_zero_at_origin(self):
        mix = GaussianMixture([0.5, 0.5], [Gaussian([-1.0], [[0.2]]),
                                           Gaussian([1.0], [[0.2]])])
        np.testing.assert_allclose(analytic_score(mix, [0.0]), [0.0], atol=1e-12)

    def test_non_gaussian_rejected(self):
        with pytest.raises(ContractViolationError):
            analytic_score(object(), [0.0])


def test_demon_drives_sde_toward_target():
    """An analytic-score demon turns pure diffusion into a Langevin sampler:
    dv = (C^2/2) score dt + C dw has stationary law matching the target."""
    target = Gaussian([2.0], [[0.25]])
    model = SDEModel(A0=[[0.0]], b0=[0.0], C0=[[1.0]], D0=[[0.5]])
    demon = AnalyticScoreDemon(lambda x, t: target.score(x), 1)
    from thermosim import simulate_ensemble
    summary = simulate_ensemble(model, demon=demon,
                                initial_sampler=lambda rng: np.array([2.0]),
                                tf=4.0, dt=0.005, n_traj=2000, base_seed=7)
    assert abs(summary.means[-1][0] - 2.0) < 0.05
    assert abs(summary.covs[-1][0, 0] - 0.25) < 0.05


def test_stateful_demons_cloned_per_trajectory():
    """Ensemble members must not share total-derivative state: trajectory 0
    of the ensemble equals a standalone run with the same seed."""
    from thermosim import simulate_ensemble
    model = SDEModel(A0=[[-1.0]], b0=[0.0], C0=[[0.5]], D0=[[1.0]])
    mk = lambda: TotalDerivativeDemon(lambda t, v: 0.1 * v,
                                      lambda t, v: 0.2 * np.eye(1), [0.0])
    traj = simulate_trajectory(model, demon=mk(), tf=0.5, dt=0.01, seed=33)
    summary = simulate_ensemble(model, demon=mk(), tf=0.5, dt=0.01,
                                n_traj=1, base_seed=33)
    np.testing.assert_allclose(summary.means[-1], traj.values[-1], atol=1e-12)


def test_zero_demon_matches_no_demon():
    model = SDEModel(A0=[[-1.0]], b0=[0.2], C0=[[0.3]])
    a = simulate_trajectory(model, demon=ZeroDemon(1), tf=0.5, dt=0.01, seed=2)
    b = simulate_trajectory(model, demon=None, tf=0.5, dt=0.01, seed=2)
    np.testing.assert_array_equal(a.values, b.values)


class PerCloneTotalDerivativeDemon(TotalDerivativeDemon):
    """Stepped through the base class's batch: one reset clone per trajectory."""

    batch = Demon.batch


def _state_dependent_demon(cls):
    return cls(lambda t, v: np.array([np.sin(v[1]), 0.3 * v[0]]),
               lambda t, v: np.array([[0.1 * v[1], -0.4], [t, 0.2 * v[0]]]),
               [0.5, -0.2])


def test_batched_stateful_demon_matches_per_clone_loop():
    model = SDEModel(A0=[[-1.0, 0.3], [0.1, -0.8]], b0=[0.1, 0.0],
                     C0=[[0.5, 0.0], [0.1, 0.4]], D0=[[1.0, 0.0], [0.2, 0.5]])
    initial = gaussian_initial([0.2, -0.1], [[0.3, 0.05], [0.05, 0.2]])
    runs = []
    for cls, chunk in ((TotalDerivativeDemon, 4096), (PerCloneTotalDerivativeDemon, 4096),
                       (TotalDerivativeDemon, 24)):
        dev = _state_dependent_demon(cls)
        runs.append(simulate_ensemble(model, demon=dev, initial_sampler=initial, tf=0.5,
                                      dt=0.01, n_traj=64, base_seed=5, chunk_size=chunk,
                                      keep_final=True))
        np.testing.assert_array_equal(dev.d, [0.5, -0.2])  # the caller's demon is untouched
    batched = runs[0]
    for other in runs[1:]:
        np.testing.assert_allclose(other.means, batched.means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(other.covs, batched.covs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(other.final_states, batched.final_states, rtol=0, atol=1e-12)


def test_batch_rows_start_from_reset_state():
    dev = _state_dependent_demon(TotalDerivativeDemon)
    dev.advance(0.0, np.ones(2), np.ones(2), 0.1)
    state = dev.batch(3)
    np.testing.assert_array_equal(state.query(0.0, np.zeros((3, 2))), [[0.5, -0.2]] * 3)
    state.advance(0.0, np.ones((3, 2)), np.ones((3, 2)), 0.1)
    np.testing.assert_array_equal(state.d[0], dev.d)


@pytest.mark.parametrize("q, r", [
    (lambda t, v: np.zeros(3), lambda t, v: np.eye(2)),
    (lambda t, v: np.zeros(2), lambda t, v: np.eye(3)),
    (lambda t, v: np.zeros(2), lambda t, v: np.zeros(2)),
])
def test_batched_step_rejects_bad_shapes(q, r):
    state = TotalDerivativeDemon(q, r, [0.0, 0.0]).batch(3)
    with pytest.raises(ContractViolationError, match="shapes"):
        total_derivative_step(state, 0.0, np.zeros((3, 2)), np.ones((3, 2)), 0.1)
    model = SDEModel(A0=-np.eye(2), b0=np.zeros(2), C0=0.1 * np.eye(2))
    with pytest.raises(ContractViolationError, match="shapes"):
        simulate_ensemble(model, demon=TotalDerivativeDemon(q, r, [0.0, 0.0]), tf=0.1,
                          dt=0.01, n_traj=4, base_seed=0)


def test_batched_step_rejects_non_finite_output():
    state = TotalDerivativeDemon(lambda t, v: np.array([np.inf if v[0] > 0 else 0.0]),
                                 lambda t, v: np.zeros((1, 1)), [0.0]).batch(2)
    with pytest.raises(ContractViolationError, match="not finite"):
        total_derivative_step(state, 0.0, np.array([[-1.0], [1.0]]), np.zeros((2, 1)), 0.1)
