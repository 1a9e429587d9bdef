import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermosim import (AnalyticScoreDemon, ContractViolationError,
                       DivergenceError, GateProgram, GateSegment, Generator,
                       SDEModel, Schedule, ScoreNetworkDemon,
                       TotalDerivativeDemon, core_sde,
                       fixed_initial, gaussian_initial, propagate_moments,
                       simulate_ensemble, simulate_trajectory,
                       stationary_covariance, trajectory_rng)
from thermosim.gates import constant_schedule


def vp_model(dim=1, beta=2.0):
    return SDEModel(A0=-0.5 * beta * np.eye(dim), b0=np.zeros(dim),
                    C0=np.sqrt(beta) * np.eye(dim))


def ve_model(dim=1, c0=1.0):
    return SDEModel(A0=np.zeros((dim, dim)), b0=np.zeros(dim), C0=c0 * np.eye(dim))


def traced_peak_mib(run):
    """The tracemalloc peak, in MiB, of calling run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestModelValidation:
    def test_shapes_and_defaults(self):
        m = SDEModel(A0=[[0.0, 1.0], [-1.0, 0.0]], b0=[0.0, 0.0], C0=np.eye(2))
        assert m.dim == 2
        assert m.demon_dim == 2
        np.testing.assert_array_equal(m.D0, np.eye(2))

    def test_rejects_inconsistent_dims(self):
        with pytest.raises(ContractViolationError):
            SDEModel(A0=np.eye(2), b0=[0.0], C0=np.eye(2))
        with pytest.raises(ContractViolationError):
            SDEModel(A0=np.eye(2), b0=[0.0, 0.0], C0=np.eye(3))

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolationError):
            SDEModel(A0=[[np.nan]], b0=[0.0], C0=[[1.0]])


class TestEulerMaruyamaStep:
    """Single Euler-Maruyama steps through simulate_trajectory."""

    def test_constant_drift(self):
        m = SDEModel(A0=np.zeros((2, 2)), b0=[1.0, 0.0], C0=np.zeros((2, 2)))
        traj = simulate_trajectory(m, v0=[0.0, 0.0], tf=0.1, dt=0.1)
        np.testing.assert_allclose(traj.values[-1], [0.1, 0.0])
        assert traj.times[-1] == pytest.approx(0.1)

    def test_exponential_decay_step(self):
        m = SDEModel(A0=[[-1.0]], b0=[0.0], C0=[[0.0]])
        traj = simulate_trajectory(m, v0=[1.0], tf=0.01, dt=0.01)
        np.testing.assert_allclose(traj.values[-1], [0.99])

    def test_divergence_reported_with_time(self):
        m = SDEModel(A0=[[0.0]], b0=[2e12], C0=[[0.0]])
        with pytest.raises(DivergenceError, match="t="):
            simulate_trajectory(m, v0=[0.0], tf=1.0, dt=1.0)

    def test_demon_dimension_mismatch(self):
        """A demon output that is not (m, M) is a contract violation, not a
        numpy shape error."""
        m = vp_model()
        demon = AnalyticScoreDemon(lambda V, t: np.zeros((len(V), 2)), 2, batched=True)
        with pytest.raises(ContractViolationError, match="demon output dimension"):
            simulate_trajectory(m, demon=demon, tf=0.1, dt=0.1)


class TestSimulateTrajectory:
    def test_grid_and_determinism(self):
        m = vp_model()
        t1 = simulate_trajectory(m, tf=1.0, dt=0.01, seed=7)
        t2 = simulate_trajectory(m, tf=1.0, dt=0.01, seed=7)
        assert len(t1) == 101
        np.testing.assert_array_equal(t1.values, t2.values)

    def test_dt_larger_than_horizon_rejected(self):
        with pytest.raises(ContractViolationError):
            simulate_trajectory(vp_model(), tf=1.0, dt=2.0)

    def test_dt_must_divide_horizon(self):
        with pytest.raises(ContractViolationError):
            simulate_trajectory(vp_model(), tf=1.0, dt=0.3)

    def test_ve_variance_grows_linearly(self):
        # Var[v(t)] = c0^2 t per coordinate (Ito isometry)
        c0 = 1.5
        summary = simulate_ensemble(ve_model(c0=c0), tf=1.0, dt=0.01,
                                    n_traj=4000, base_seed=3)
        var = summary.covs[:, 0, 0]
        slope = np.polyfit(summary.times, var, 1)[0]
        assert abs(slope - c0 ** 2) / c0 ** 2 < 0.1

    def test_vp_stationarity_preserved(self):
        m = vp_model()
        summary = simulate_ensemble(
            m, initial_sampler=gaussian_initial([0.0], [[1.0]]),
            tf=1.0, dt=0.01, n_traj=4000, base_seed=5)
        assert abs(summary.covs[-1][0, 0] - 1.0) < 0.08

    def test_csv_export(self, tmp_path):
        traj = simulate_trajectory(vp_model(dim=2), tf=0.1, dt=0.05, seed=0)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,v1,v2"
        assert len(lines) == 4


def short_program(tf):
    """A drift_vec program over [0, tf]."""
    return GateProgram(schedule_b=Schedule(
        [GateSegment(Generator.scalar("drift_vec", 0.5), 0.0, tf)]))


class TestGrid:
    """One grid for the trajectory, the ensemble and the oracle: the same
    times, ending at tf exactly, under one set of input checks."""

    @pytest.mark.parametrize("program", [None, short_program(2.0)], ids=["bare", "programmed"])
    def test_oracle_times_are_the_ensemble_times(self, program):
        """The oracle summed t += dt: on this grid its times differed from
        the ensemble's in 1 989 of 2 001 entries."""
        m = vp_model(4)
        oracle = propagate_moments(m, program, tf=2.0, dt=1e-3)
        summary = simulate_ensemble(m, program, tf=2.0, dt=1e-3, n_traj=2)
        traj = simulate_trajectory(m, program, tf=2.0, dt=1e-3)
        np.testing.assert_array_equal(oracle.times, summary.times)
        np.testing.assert_array_equal(traj.times, summary.times)

    @pytest.mark.parametrize("t0, tf, dt", [(0.0, 0.3, 0.1), (0.0, 2.0, 1e-3), (0.1, 0.7, 0.2)])
    def test_last_time_is_tf(self, t0, tf, dt):
        m = vp_model()
        for times in (simulate_trajectory(m, t0=t0, tf=tf, dt=dt).times,
                      simulate_ensemble(m, t0=t0, tf=tf, dt=dt).times,
                      propagate_moments(m, t0=t0, tf=tf, dt=dt).times):
            assert times[-1] == tf
            np.testing.assert_array_equal(times[:-1], t0 + dt * np.arange(len(times) - 1))

    @pytest.mark.parametrize("run", [
        lambda m, p: simulate_trajectory(m, p, tf=0.6, dt=0.1),
        lambda m, p: simulate_ensemble(m, p, tf=0.6, dt=0.1, n_traj=3),
        lambda m, p: propagate_moments(m, p, tf=0.6, dt=0.1),
    ], ids=["trajectory", "ensemble", "oracle"])
    def test_short_program_refused_before_any_step(self, run, monkeypatch):
        """The trajectory and the ensemble used to step past the program's
        end without a word, and the oracle refused it only mid-run."""
        calls = []
        coefficients = GateProgram.coefficients
        monkeypatch.setattr(GateProgram, "coefficients",
                            lambda self, model, t: calls.append(t) or coefficients(self, model, t))
        with pytest.raises(ContractViolationError,
                           match=r"domain \[0, 0.55\] does not cover the grid \[0, 0.6\]"):
            run(vp_model(), short_program(0.55))
        assert calls == []

    ENDS = "t0 and tf must be finite with tf > t0"

    @pytest.mark.parametrize("t0, tf, dt, words", [
        (0.0, np.inf, 0.1, ENDS),
        (-np.inf, 1.0, 0.1, ENDS),
        (np.nan, 1.0, 0.1, ENDS),
        (0.0, np.nan, 0.1, ENDS),
        (-1e308, 1e308, 1e300, ENDS),
        (0.0, 1.0, np.inf, "dt must be finite and positive, got inf"),
        (0.0, 1.0, np.nan, "dt must be finite and positive, got nan"),
        (0.0, 1.0, 0.0, "dt must be finite and positive, got 0.0"),
    ])
    @pytest.mark.parametrize("run", [
        lambda m, t0, tf, dt: simulate_trajectory(m, t0=t0, tf=tf, dt=dt),
        lambda m, t0, tf, dt: simulate_ensemble(m, t0=t0, tf=tf, dt=dt),
        lambda m, t0, tf, dt: propagate_moments(m, t0=t0, tf=tf, dt=dt),
    ], ids=["trajectory", "ensemble", "oracle"])
    def test_nonfinite_grid_is_a_contract_violation(self, run, t0, tf, dt, words):
        """An infinite end used to overflow in int(round(...))."""
        with pytest.raises(ContractViolationError, match=f"^{words}"):
            run(vp_model(), t0, tf, dt)


class TestSimulateEnsemble:
    def test_single_trajectory_summary(self):
        m = vp_model()
        traj = simulate_trajectory(m, tf=0.5, dt=0.01, seed=42)
        summary = simulate_ensemble(m, tf=0.5, dt=0.01, n_traj=1, base_seed=42)
        np.testing.assert_allclose(summary.means, traj.values)
        np.testing.assert_array_equal(summary.covs, 0.0)

    def test_bitwise_deterministic(self):
        a = simulate_ensemble(vp_model(2), tf=0.2, dt=0.01, n_traj=50, base_seed=9)
        b = simulate_ensemble(vp_model(2), tf=0.2, dt=0.01, n_traj=50, base_seed=9)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.covs, b.covs)

    def test_chunking_invariant(self):
        a = simulate_ensemble(vp_model(), tf=0.2, dt=0.01, n_traj=30,
                              base_seed=1, chunk_size=7)
        b = simulate_ensemble(vp_model(), tf=0.2, dt=0.01, n_traj=30,
                              base_seed=1, chunk_size=1000)
        np.testing.assert_allclose(a.means, b.means, atol=1e-12)

    @pytest.mark.parametrize("chunk_size", [4096, 1000])
    def test_moments_do_not_cancel_at_large_mean(self, chunk_size):
        """A spread of 1e-2 about 1e6: the one-pass sums lost 20% of the
        variance and went negative on the grid; the shifted sums do not."""
        m = SDEModel(A0=[[0.0]], b0=[0.0], C0=[[0.01]])
        s = simulate_ensemble(m, initial_sampler=fixed_initial([1e6]), tf=1.0, dt=1e-2,
                              n_traj=4000, base_seed=3, chunk_size=chunk_size,
                              keep_final=True)
        np.testing.assert_allclose(s.covs[-1, 0, 0], np.var(s.final_states[:, 0], ddof=1),
                                   rtol=1e-6)
        assert s.covs[:, 0, 0].min() >= 0.0

    @pytest.mark.parametrize("chunk_size", [-1, 0, 2.5, True, "8"])
    def test_chunk_size_must_be_positive_integer(self, chunk_size):
        """-1 used to return uninitialised means, 0 and 2.5 raised from range."""
        with pytest.raises(ContractViolationError, match="^chunk_size must be an integer"):
            simulate_ensemble(vp_model(), tf=0.1, dt=0.05, n_traj=5, chunk_size=chunk_size)

    def test_divergence_names_trajectory(self):
        m = SDEModel(A0=[[50.0]], b0=[0.0], C0=[[0.0]])
        with pytest.raises(DivergenceError, match="trajectory"):
            simulate_ensemble(m, initial_sampler=fixed_initial([1.0]),
                              tf=10.0, dt=0.5, n_traj=3, base_seed=0)

    def test_json_export(self, tmp_path):
        summary = simulate_ensemble(vp_model(), tf=0.1, dt=0.05, n_traj=5, base_seed=0)
        path = tmp_path / "s.json"
        summary.to_json(path)
        doc = json.loads(path.read_text())
        assert set(doc) >= {"times", "mean", "cov"}
        assert len(doc["times"]) == 3

    def test_json_export_bytes_match_json_dump(self, tmp_path):
        """The C encoder behind to_json writes what json.dump writes."""
        summary = simulate_ensemble(coupled_model(), tf=0.5, dt=0.01, n_traj=7, base_seed=3)
        path = tmp_path / "s.json"
        summary.to_json(path)
        doc = {"n_traj": summary.n_traj, "times": summary.times.tolist(),
               "mean": summary.means.tolist(), "cov": summary.covs.tolist()}
        with open(tmp_path / "ref.json", "w") as fh:
            json.dump(doc, fh, allow_nan=False)
        assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


def coupled_model():
    return SDEModel(A0=[[-1.0, 0.4], [-0.3, -0.8]], b0=[0.2, -0.1],
                    C0=[[0.5, 0.0], [0.2, 0.4]])


def small_blocks(monkeypatch):
    """Force noise blocks of 5 steps and state sub-blocks of 2 steps."""
    monkeypatch.setattr(core_sde, "_block_steps",
                        lambda m, n, n_steps: (min(n_steps, 5), min(n_steps, 2)))


class TestBlockStepper:
    """Contracts of the batched stepper behind both samplers."""

    @pytest.mark.parametrize("case", ["bare", "program", "stateful_demon"])
    def test_member_zero_matches_trajectory(self, case):
        model, program, make_demon = coupled_model(), None, lambda: None
        if case == "program":
            program = GateProgram(schedule_b=Schedule(
                [GateSegment(Generator.scalar("drift_vec", 1.0), 0.0, 1.0)]))
        if case == "stateful_demon":
            make_demon = lambda: TotalDerivativeDemon(
                lambda t, v: 0.1 * v + t, lambda t, v: 0.2 * np.eye(2), [0.0, 0.0])
        traj = simulate_trajectory(model, program, make_demon(), v0=[1.0, -0.5],
                                   tf=1.0, dt=0.01, seed=17)
        summary = simulate_ensemble(model, program, make_demon(),
                                    fixed_initial([1.0, -0.5]), tf=1.0, dt=0.01,
                                    n_traj=1, base_seed=17)
        np.testing.assert_array_equal(summary.means, traj.values)

    def test_matches_per_step_reference(self, monkeypatch):
        """Against a per-step loop of v + (A v + b) dt + C z sqrt(dt) fed one
        whole-grid draw of the same stream: the block stepper regroups the
        float64 arithmetic only, so the paths agree to rounding."""
        small_blocks(monkeypatch)
        model = coupled_model()
        program = GateProgram(schedule_b=Schedule(
            [GateSegment(Generator.scalar("drift_vec", 1.0), 0.0, 1.0)]))
        traj = simulate_trajectory(model, program, v0=[1.0, -0.5], tf=1.0, dt=0.01, seed=17)
        noise = trajectory_rng(17, 0).standard_normal((100, 2))
        v, ref = np.array([1.0, -0.5]), [[1.0, -0.5]]
        for k in range(100):
            A, b, C, _ = program.coefficients(model, 0.01 * k)
            v = v + (A @ v + b) * 0.01 + C @ noise[k] * np.sqrt(0.01)
            ref.append(v)
        np.testing.assert_allclose(traj.values, ref, rtol=1e-12, atol=1e-12)

    def test_block_size_does_not_change_results(self, monkeypatch):
        kwargs = dict(initial_sampler=gaussian_initial([0.0, 1.0], np.eye(2)),
                      tf=0.37, dt=0.01, n_traj=30, base_seed=5, keep_final=True)
        a = simulate_ensemble(coupled_model(), **kwargs)
        traj_a = simulate_trajectory(coupled_model(), tf=0.37, dt=0.01, seed=5)
        small_blocks(monkeypatch)
        b = simulate_ensemble(coupled_model(), **kwargs)
        traj_b = simulate_trajectory(coupled_model(), tf=0.37, dt=0.01, seed=5)
        np.testing.assert_array_equal(a.final_states, b.final_states)
        np.testing.assert_array_equal(traj_a.values, traj_b.values)

    def test_chunking_invariant_across_partial_blocks(self, monkeypatch):
        small_blocks(monkeypatch)
        kwargs = dict(initial_sampler=gaussian_initial([0.0, 1.0], np.eye(2)),
                      tf=0.37, dt=0.01, n_traj=30, base_seed=5, keep_final=True)
        a = simulate_ensemble(coupled_model(), chunk_size=7, **kwargs)
        b = simulate_ensemble(coupled_model(), chunk_size=1000, **kwargs)
        np.testing.assert_allclose(a.final_states, b.final_states, rtol=0, atol=1e-13)
        np.testing.assert_allclose(a.means, b.means, rtol=0, atol=1e-13)
        np.testing.assert_allclose(a.covs, b.covs, rtol=0, atol=1e-13)

    def test_constant_and_per_step_bias_agree(self):
        """Without a program the stepper adds c as one tiled row per
        sub-block; a drift_vec schedule of exactly 1 gives the same c per
        step through the per-step broadcast.  Both give the same bits, over
        1 000 trajectories in chunks of 384 (a partial last chunk of 232)."""
        program = GateProgram(schedule_b=constant_schedule("drift_vec", lambda t: 1.0, 0.0, 1.0))
        kwargs = dict(initial_sampler=gaussian_initial([0.5, -1.0], np.eye(2)), tf=0.3,
                      dt=0.01, n_traj=1000, base_seed=8, chunk_size=384, keep_final=True)
        a = simulate_ensemble(coupled_model(), **kwargs)
        b = simulate_ensemble(coupled_model(), program, **kwargs)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.covs, b.covs)
        np.testing.assert_array_equal(a.final_states, b.final_states)

    def test_divergence_names_first_step_and_trajectory(self):
        # Trajectory 37, in the third chunk, starts at 1e6 and grows by 1.01
        # per step, so it passes 1e12 at step 1389 (t = 13.89), mid-block.
        # The others start at 1 and would not pass it before t = 27.77.
        calls = iter(range(50))

        def initial(rng):
            return np.array([1e6 if next(calls) == 37 else 1.0])

        model = SDEModel(A0=[[1.0]], b0=[0.0], C0=[[0.0]])
        with pytest.raises(DivergenceError,
                           match=r"^trajectory 37 diverged at step 1389, t=13\.89$") as info:
            simulate_ensemble(model, initial_sampler=initial, tf=20.0, dt=0.01,
                              n_traj=50, base_seed=0, chunk_size=16)
        err = info.value
        assert (err.trajectory, err.step) == (37, 1389)
        assert err.t == pytest.approx(13.89)
        assert err.max_abs == pytest.approx(1e6 * 1.01 ** 1389)

    def test_noise_memory_does_not_grow_with_steps(self):
        model = SDEModel(A0=-np.eye(4), b0=np.zeros(4), C0=np.eye(4))

        def peak_mib(n_steps):
            tracemalloc.start()
            try:
                simulate_ensemble(model, tf=n_steps * 1e-3, dt=1e-3, n_traj=256,
                                  base_seed=3)
                return tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()

        short, long = peak_mib(10 ** 3), peak_mib(10 ** 4)
        # Storing all the noise of the 10^4-step run would take 78 MiB.
        assert long < 12.0
        # Only the (n_steps, N, N) moment arrays grow with the grid.
        assert long - short < 4.0


    def test_footprint_of_a_chunked_ensemble(self):
        """2 048 trajectories at N = 4 run as four chunks of 512 through one
        4 MiB noise block; with a block per chunk, or a 16 MiB block over one
        2 048-wide chunk, the peak passed 20 MiB."""
        model = SDEModel(A0=-np.eye(4), b0=np.zeros(4), C0=np.eye(4))
        tracemalloc.start()
        try:
            simulate_ensemble(model, tf=0.6, dt=1e-3, n_traj=2048, base_seed=3)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak < 14.0

    def test_long_ensemble_peaks_near_its_outputs(self):
        """A 100 001-step, 8-trajectory ensemble at N = 4 returns 16.0 MiB of
        moments.  Forming them through (n_steps, N, N) temporaries peaked at
        51.2 MiB; in place in the sums' arrays the peak stays near them."""
        model = SDEModel(A0=-np.eye(4), b0=np.zeros(4), C0=np.eye(4))
        peak = traced_peak_mib(lambda: simulate_ensemble(model, tf=100.0, dt=1e-3, n_traj=8,
                                                          base_seed=3))
        assert peak < 28.0


class TestGaussianInitial:
    @pytest.mark.parametrize("mean, cov, words", [
        ([0.0, 0.0], np.eye(3), "must be 2x2 to match the mean"),
        ([0.0, 0.0], [[1.0, 0.0]], "must be 2x2 to match the mean"),
        ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]], "must be finite"),
        ([np.inf, 0.0], np.eye(2), "must be finite"),
        ([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]], "symmetric within 1e-10"),
        ([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], "SPD"),
    ])
    def test_rejects_misfit_covariance(self, mean, cov, words):
        with pytest.raises(ContractViolationError, match=words):
            gaussian_initial(mean, cov)

    def test_accepts_rounding_asymmetry(self):
        cov = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
        v = gaussian_initial([0.0, 0.0], cov)(trajectory_rng(0, 0))
        assert v.shape == (2,)


@pytest.mark.parametrize("run, words", [
    (lambda m: propagate_moments(m, mu0=[np.nan, 0.0]), "mu0 must be finite"),
    (lambda m: propagate_moments(m, cov0=[[np.nan, 0.0], [0.0, 1.0]]), "cov0 must be finite"),
    (lambda m: simulate_trajectory(m, v0=[0.0, np.inf]), "v0 must be finite"),
], ids=["mu0", "cov0", "v0"])
def test_nonfinite_start_is_a_contract_violation(run, words):
    """A bad initial state is an input fault, not trajectory 0 diverging at
    step 1 nor a NaN oracle."""
    with pytest.raises(ContractViolationError, match=words):
        run(vp_model(2))


class TestPropagateMoments:
    def test_ve_closed_form(self):
        c0 = 2.0
        out = propagate_moments(ve_model(c0=c0), tf=1.0, dt=0.01)
        np.testing.assert_allclose(out[-1].cov, c0 ** 2 * np.eye(1), rtol=1e-8)

    def test_vp_fixed_point(self):
        out = propagate_moments(vp_model(), cov0=np.eye(1), tf=2.0, dt=0.01)
        for m in out:
            np.testing.assert_allclose(m.cov, np.eye(1), atol=1e-9)

    def test_linear_mean_growth(self):
        m = SDEModel(A0=np.zeros((2, 2)), b0=[1.0, 2.0], C0=np.zeros((2, 2)))
        out = propagate_moments(m, tf=1.0, dt=0.1)
        np.testing.assert_allclose(out[-1].mean, [1.0, 2.0], rtol=1e-10)
        np.testing.assert_array_equal(out[-1].cov, np.zeros((2, 2)))

    def test_matches_ensemble_moments(self):
        rng = np.random.default_rng(0)
        A = -np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        m = SDEModel(A0=A, b0=rng.standard_normal(3),
                     C0=0.5 * rng.standard_normal((3, 3)))
        oracle = propagate_moments(m, tf=1.0, dt=0.01)
        summary = simulate_ensemble(m, tf=1.0, dt=0.01, n_traj=8000, base_seed=11)
        n = summary.n_traj
        for k in (50, 100):
            sd = np.sqrt(np.diag(oracle[k].cov))
            assert np.all(np.abs(summary.means[k] - oracle[k].mean)
                          <= 3 * sd / np.sqrt(n) + 1e-9)
            rel = (np.linalg.norm(summary.covs[k] - oracle[k].cov)
                   / np.linalg.norm(oracle[k].cov))
            assert rel < 0.1

    def test_coefficients_once_per_distinct_time(self, monkeypatch):
        """Under a gate program the oracle evaluates the coefficients once at
        each step start and midpoint, 2 n_steps + 1 calls, and equals an RK4
        that evaluates them afresh at every stage of the grid k dt, whose
        last time is tf itself."""
        m = SDEModel(A0=[[-1.0, 0.3], [0.0, -0.5]], b0=[0.2, -0.1],
                     C0=[[0.4, 0.0], [0.1, 0.3]])
        K = 0.1 * np.arange(16.0).reshape(4, 4) - 0.8 * np.eye(4)
        prog = GateProgram(
            schedule_A=Schedule([GateSegment(Generator.dense("drift_super", K), 0.0, 0.5),
                                 GateSegment(Generator.diagonal("drift_super",
                                                                [0.2, 0.0, -0.1, 0.3]),
                                             0.5, 1.0)]),
            schedule_b=Schedule([GateSegment(Generator.scalar("drift_vec", 0.5), 0.0, 1.0)]),
            schedule_C=Schedule([GateSegment(Generator.scalar("diffusion_super", -0.3),
                                             0.0, 1.0)]))
        mu0, cov0, dt = np.array([1.0, -1.0]), 0.1 * np.eye(2), 1e-3
        coefficients, calls = GateProgram.coefficients, []

        def counted(self, model, t):
            calls.append(t)
            return coefficients(self, model, t)

        monkeypatch.setattr(GateProgram, "coefficients", counted)
        oracle = propagate_moments(m, prog, mu0, cov0, tf=1.0, dt=dt)
        assert len(calls) == 2001

        def rhs(t, mu, cov):
            A, b, C, _ = coefficients(prog, m, t)
            return A @ mu + b, A @ cov + cov @ A.T + C @ C.T

        grid = [dt * k for k in range(1000)] + [1.0]
        mu, cov = mu0, cov0
        for t, t_end, step in zip(grid, grid[1:], oracle[1:]):
            k1m, k1c = rhs(t, mu, cov)
            k2m, k2c = rhs(t + dt / 2, mu + dt / 2 * k1m, cov + dt / 2 * k1c)
            k3m, k3c = rhs(t + dt / 2, mu + dt / 2 * k2m, cov + dt / 2 * k2c)
            k4m, k4c = rhs(t_end, mu + dt * k3m, cov + dt * k3c)
            mu = mu + dt / 6 * (k1m + 2 * k2m + 2 * k3m + k4m)
            cov = cov + dt / 6 * (k1c + 2 * k2c + 2 * k3c + k4c)
            cov = (cov + cov.T) / 2
            assert step.t == t_end
            np.testing.assert_array_equal(step.mean, mu)
            np.testing.assert_array_equal(step.cov, cov)

    def test_path_rows_match_its_arrays(self):
        """The oracle is one MomentPath; len, iteration, indexing, a negative
        index and a slice give GaussianMoments rows equal to its arrays."""
        m = SDEModel(A0=[[-1.0, 0.3], [0.0, -0.5]], b0=[0.2, -0.1], C0=np.eye(2))
        path = propagate_moments(m, mu0=[1.0, -1.0], tf=0.5, dt=0.01)
        assert isinstance(path, core_sde.MomentPath)
        assert len(path) == 51 == len(path.times) == len(path.means) == len(path.covs)
        rows = list(path)
        assert len(rows) == 51
        for k, row in enumerate(rows):
            assert isinstance(row, core_sde.GaussianMoments)
            assert row.t == path.times[k] and isinstance(row.t, float)
            np.testing.assert_array_equal(row.mean, path.means[k])
            np.testing.assert_array_equal(row.cov, path.covs[k])
            np.testing.assert_array_equal(path[k].cov, row.cov)
        assert path[-1].t == path.times[50]
        np.testing.assert_array_equal(path[-1].cov, path.covs[50])
        tail = path[1:]
        assert len(tail) == 50
        for k, row in enumerate(tail, start=1):
            assert row.t == path.times[k]
            np.testing.assert_array_equal(row.mean, path.means[k])
            np.testing.assert_array_equal(row.cov, path.covs[k])

    def test_long_oracle_peaks_near_its_arrays(self):
        """A 20 001-step N = 4 oracle is 3.2 MiB of arrays; one GaussianMoments
        per step peaked at 10.1 MiB."""
        m = SDEModel(A0=-np.eye(4), b0=np.ones(4), C0=np.eye(4))
        assert traced_peak_mib(lambda: propagate_moments(m, tf=20.0, dt=1e-3)) < 5.0

    def test_runaway_moments_are_a_divergence(self):
        """An unstable model's covariance (e^{2t}) overflows near t = 355:
        the oracle names that step and time instead of returning inf."""
        with pytest.raises(DivergenceError,
                           match=r"^moment oracle diverged at step 712, t=356$") as info:
            propagate_moments(SDEModel([[1.0]], [0.0], [[1.0]]), tf=800, dt=0.5)
        assert (info.value.step, info.value.t, info.value.max_abs) == (712, 356.0, np.inf)

    def test_dt_halving_within_noise_band(self):
        m = vp_model()
        a = simulate_ensemble(m, tf=1.0, dt=0.02, n_traj=4000, base_seed=2)
        b = simulate_ensemble(m, tf=1.0, dt=0.01, n_traj=4000, base_seed=2)
        assert abs(a.covs[-1][0, 0] - b.covs[-1][0, 0]) < 3 * np.sqrt(2.0 / 4000) * 2


class TestMonteCarlo:
    def test_vp_second_moment(self):
        summary = simulate_ensemble(vp_model(), tf=4.0, dt=0.01,
                                    n_traj=5000, base_seed=4, keep_final=True)
        val = np.mean(summary.final_states[:, 0] ** 2)
        assert abs(val - 1.0) < 0.1


class TestStationaryCovariance:
    def test_vp_unit_variance(self):
        np.testing.assert_allclose(stationary_covariance(vp_model(3)), np.eye(3),
                                   atol=1e-12)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_lyapunov_residual(self, seed):
        rng = np.random.default_rng(seed)
        A = -2 * np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        if np.max(np.linalg.eigvals(A).real) >= -1e-6:
            return
        m = SDEModel(A0=A, b0=np.zeros(2), C0=rng.standard_normal((2, 2)))
        S = stationary_covariance(m)
        resid = m.A0 @ S + S @ m.A0.T + m.C0 @ m.C0.T
        assert np.max(np.abs(resid)) < 1e-8


@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(min_value=0, max_value=100))
@settings(max_examples=25, deadline=None)
def test_trajectory_streams_independent_and_reproducible(seed, idx):
    a = trajectory_rng(seed, idx).standard_normal(4)
    b = trajectory_rng(seed, idx).standard_normal(4)
    c = trajectory_rng(seed, idx + 1).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


class TestChunkStreams:
    """An ensemble keeps one pool of generators per call and re-keys it for
    each chunk; every generator must draw what trajectory_rng draws."""

    SEEDS = [0, 1, 2 ** 32 - 1] + [int(x) for x in
                                   np.random.default_rng(2026).integers(0, 2 ** 32, 3)]

    def test_vectorised_keys_match_seed_sequence(self):
        rng = np.random.default_rng(17)
        indices = np.concatenate([[0, 1, 2 ** 32 - 1], rng.integers(0, 2 ** 32, 61)])
        for seed in self.SEEDS:
            keys = core_sde._philox_keys(seed, indices)
            ref = [np.random.SeedSequence([seed, int(i)]).generate_state(2, np.uint64)
                   for i in indices]
            np.testing.assert_array_equal(keys, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rekeyed_pool_draws_trajectory_rng_streams(self, seed):
        pool = []
        first = core_sde._chunk_rngs(pool, seed, 0, 8)
        first[2].standard_normal(3)  # leave Philox's buffer part used
        first[5].integers(0, 10, size=3, dtype=np.uint32)  # and its held uint32
        starts = [8, 8 + int(np.random.default_rng(seed).integers(0, 2 ** 31)), 2 ** 32 - 8]
        for start, width in zip(starts, (8, 8, 3)):
            rngs = core_sde._chunk_rngs(pool, seed, start, start + width)
            assert len(rngs) == width and all(a is b for a, b in zip(rngs, first))
            for i, rng in enumerate(rngs):
                np.testing.assert_array_equal(
                    rng.standard_normal(7), trajectory_rng(seed, start + i).standard_normal(7))

    @pytest.mark.parametrize("seed, start", [(2 ** 32, 8), (2 ** 40 + 5, 8), ([1, 2], 8),
                                             (3, 2 ** 32 - 4), (3, 2 ** 33)])
    def test_wide_values_take_the_seed_sequence_path(self, seed, start, monkeypatch):
        pool = []
        core_sde._chunk_rngs(pool, seed, 0, 8)
        made = []
        monkeypatch.setattr(core_sde, "trajectory_rng",
                            lambda s, i: made.append(i) or trajectory_rng(s, i))
        rngs = core_sde._chunk_rngs(pool, seed, start, start + 8)
        assert made == list(range(start, start + 8))
        for i, rng in enumerate(rngs):
            np.testing.assert_array_equal(
                rng.standard_normal(7), trajectory_rng(seed, start + i).standard_normal(7))

    def test_negative_seed_is_refused_as_before(self):
        with pytest.raises(ValueError):
            simulate_ensemble(vp_model(), tf=0.1, dt=0.05, n_traj=5, base_seed=-1)


def _as_lists(doc):
    if isinstance(doc, dict):
        return {key: _as_lists(value) for key, value in doc.items()}
    return doc.tolist() if isinstance(doc, (np.ndarray, np.generic)) else doc


class TestCompactJson:
    """write_compact_json streams arrays in row blocks, and writes what
    json.dumps writes for the same document with the arrays as lists."""

    @pytest.mark.parametrize("doc", [
        {"v": np.linspace(-1.0, 1.0, 1500)},
        {"n": 3, "m": np.arange(1200.0).reshape(300, 4) / 7, "s": "x"},
        {"times": np.arange(301) * 1e-3, "cov": np.sin(np.arange(4816.0)).reshape(301, 4, 4)},
        {"empty": np.empty(0), "rows": np.empty((0, 4)), "cols": np.empty((3, 0))},
        {"scalar": 2.5, "int": 7, "none": None, "list": [[1.5, 2.0]], "zero_d": np.array(2.0),
         "np_int": np.int64(3), "np_bool": np.bool_(True)},
        np.arange(1030.0).reshape(515, 2),
        ScoreNetworkDemon(2, hidden=(8, 8), seed=1).to_dict(),
    ], ids=["1d", "2d", "3d", "empty", "scalar", "bare", "nested"])
    def test_bytes_match_json_dumps(self, doc, tmp_path):
        core_sde.write_compact_json(tmp_path / "a.json", doc)
        assert (tmp_path / "a.json").read_text() == json.dumps(_as_lists(doc))

    @pytest.mark.parametrize("doc", [{"cov": np.r_[np.zeros(2000), np.nan]},
                                     {"a": np.ones(3), "b": float("inf")}],
                             ids=["array", "scalar"])
    def test_non_finite_raises(self, doc, tmp_path):
        with pytest.raises(ValueError):
            core_sde.write_compact_json(tmp_path / "n.json", doc)

    def test_numpy_integer_n_traj_is_written(self, tmp_path):
        """An n_traj given as a numpy integer is stored as an int, so the
        summary's JSON can be written."""
        summary = simulate_ensemble(vp_model(), tf=0.1, dt=0.05, n_traj=np.int64(8),
                                    base_seed=1)
        summary.to_json(tmp_path / "m.json")
        assert json.loads((tmp_path / "m.json").read_text())["n_traj"] == 8
        assert type(summary.n_traj) is int

    def test_long_summary_is_written_in_small_memory(self, tmp_path):
        """A 20 001-step N = 4 summary holds 3.2 MiB of arrays; as nested
        lists and one string it took 36.4 MiB to write."""
        rng = np.random.default_rng(0)
        steps = 20001
        summary = core_sde.EnsembleSummary(np.arange(steps) * 1e-3,
                                           rng.standard_normal((steps, 4)),
                                           rng.standard_normal((steps, 4, 4)), 64)
        tracemalloc.start()
        try:
            summary.to_json(tmp_path / "m.json")
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak < 2.0
        doc = json.loads((tmp_path / "m.json").read_text())
        np.testing.assert_array_equal(doc["cov"], summary.covs)
