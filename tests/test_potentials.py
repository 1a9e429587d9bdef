import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

import thermosim
from thermosim import ContractViolationError, Gaussian, GaussianMixture
from thermosim.potentials import DoubleWellPotential


def make_mixture():
    return GaussianMixture([0.3, 0.5, 0.2], [
        Gaussian([1.0, 0.5], [[0.1, 0.02], [0.02, 0.15]]),
        Gaussian([-0.8, 0.2], [[0.2, 0.0], [0.0, 0.05]]),
        Gaussian([0.1, -1.0], [[0.3, -0.1], [-0.1, 0.2]]),
    ])


def reference(mix, x):
    """Per-component log joints, their log-sum-exp, and the mixture score."""
    lj = np.array([np.log(w) + multivariate_normal(c.mean, c.cov).logpdf(x)
                   for w, c in zip(mix.weights, mix.components)])
    lse = logsumexp(lj)
    resp = np.exp(lj - lse)
    score = sum(r * (-np.linalg.solve(c.cov, x - c.mean))
                for r, c in zip(resp, mix.components))
    return lj, lse, score


class TestGaussianBatch:
    def test_batch_matches_points(self):
        g = Gaussian([0.5, -1.0], [[0.4, 0.1], [0.1, 0.3]])
        X = np.random.default_rng(0).normal(size=(7, 2))
        np.testing.assert_allclose(g.log_density(X),
                                   multivariate_normal(g.mean, g.cov).logpdf(X), rtol=1e-12)
        np.testing.assert_allclose(g.score(X), np.stack([g.score(x) for x in X]), rtol=1e-12)
        np.testing.assert_allclose(g.score(X[0]), -np.linalg.solve(g.cov, X[0] - g.mean),
                                   rtol=1e-12)
        assert g.score(X[0]).shape == (2,)
        assert np.ndim(g.log_density(X[0])) == 0

    def test_asymmetric_covariance_rejected(self):
        """Cholesky reads the lower triangle and the precision the whole
        matrix, so an asymmetric cov would sample and score two laws."""
        with pytest.raises(ContractViolationError, match="symmetric within 1e-10"):
            Gaussian([0.0, 0.0], [[1.0, 0.9], [0.0, 1.0]])


class TestMixtureBatch:
    def test_single_point_matches_reference(self):
        mix = make_mixture()
        for x in np.random.default_rng(1).normal(size=(5, 2)):
            _, lse, score = reference(mix, x)
            assert mix.log_density(x) == pytest.approx(lse, rel=1e-12)
            np.testing.assert_allclose(mix.score(x), score, rtol=1e-11, atol=1e-12)
            assert mix.score(x).shape == (2,)

    def test_batch_matches_reference(self):
        mix = make_mixture()
        X = np.random.default_rng(2).normal(size=(9, 2))
        refs = [reference(mix, x) for x in X]
        assert mix.log_density(X).shape == (9,)
        assert mix.score(X).shape == (9, 2)
        np.testing.assert_allclose(mix.log_density(X), [r[1] for r in refs], rtol=1e-12)
        np.testing.assert_allclose(mix.score(X), np.stack([r[2] for r in refs]),
                                   rtol=1e-11, atol=1e-12)

    def test_far_point_stays_finite(self):
        mix = make_mixture()
        x = 50.0 * mix.components[0].mean
        lj, lse, score = reference(mix, x)
        assert np.all(np.exp(lj) == 0.0)  # a naive sum of exponentials underflows
        assert mix.log_density(x) == pytest.approx(lse, rel=1e-12)
        np.testing.assert_allclose(mix.score(x), score, rtol=1e-10)
        np.testing.assert_allclose(mix.score(np.stack([x, -x]))[0], score, rtol=1e-10)

    def test_mismatched_component_dims_rejected(self):
        with pytest.raises(ContractViolationError):
            GaussianMixture([0.5, 0.5], [Gaussian([0.0], [[1.0]]),
                                         Gaussian([0.0, 0.0], np.eye(2))])


def _probe_points(rng, n, means):
    """Random points, the modes and points far from every mode, and rows of
    +-inf, NaN and signed zeros."""
    return np.concatenate([3.0 * rng.standard_normal((200, n)), means,
                           50.0 * rng.standard_normal((20, n)), 50.0 * means,
                           rng.choice([np.inf, -np.inf, np.nan, 0.5, 0.0, -0.0], (60, n))])


def _same(got, want, x):
    """Equal type and values, NaN matching NaN, and a zero's sign kept."""
    assert type(got) is type(want), x
    assert np.array_equal(got, want, equal_nan=True), x
    zero = np.asarray(want) == 0
    assert np.array_equal(np.signbit(got)[zero], np.signbit(want)[zero]), x


class TestOnePoint:
    """One point of at most 7 coordinates (and a mixture of at most 7
    components) is evaluated in Python floats; it must give the bits and
    types of the array path, here the row of a batch of one.  At 8 numpy
    sums pairwise, so the array path serves both calls."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("K", range(1, 9))
    def test_mixture_matches_array_row(self, K, n):
        rng = np.random.default_rng(100 * K + n)
        weights = rng.uniform(0.2, 1.0, K)
        comps = []
        for k in range(K):
            a = rng.standard_normal((n, n))
            mean = rng.standard_normal(n) if k else np.zeros(n)
            comps.append(Gaussian(mean, a @ a.T + 0.3 * np.eye(n)))
        mix = GaussianMixture(weights / weights.sum(), comps)
        assert (mix._point_shape is None) == (max(K, n) > 7)
        with np.errstate(all="ignore"):
            for x in _probe_points(rng, n, mix._means):
                _same(mix.score(x), mix.score(x[None])[0], x)
                _same(mix.log_density(x), mix.log_density(x[None])[0], x)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_double_well_matches_array_row(self, n):
        rng = np.random.default_rng(n)
        well = DoubleWellPotential()
        with np.errstate(all="ignore"):
            for x in _probe_points(rng, n, np.array([[1.0] * n, [-1.0] * n])):
                _same(well.value(0.0, x), well.value(0.0, x[None]), x)
                _same(well.gradient(0.0, x), well.gradient(0.0, x[None])[0], x)


def _scipy_modules_after(code):
    """Run `code` in a fresh interpreter; return the scipy modules it loaded."""
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(Path(thermosim.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_sparse_unloaded():
    """Start-up, ensembles and the s-bit oracle load no scipy at all; it costs
    a quarter second of every CLI call."""
    assert _scipy_modules_after("import thermosim, thermosim.cli") == "[]"
    assert _scipy_modules_after(
        "import numpy as np, thermosim as ts\n"
        "m = ts.SDEModel(A0=-np.eye(2), b0=np.zeros(2), C0=np.eye(2))\n"
        "ts.simulate_ensemble(m, tf=0.1, dt=0.01, n_traj=8, base_seed=0)\n"
        "r = ts.RateSchedule.constant(1.0)\n"
        "system = ts.SBitSystem.single_flip([r] * 10, [r] * 10)\n"
        "p0 = np.zeros(1024); p0[0] = 1.0\n"
        "assert abs(ts.transient_distribution(system, p0, 0.5).sum() - 1) < 1e-12") == "[]"


@pytest.mark.parametrize("code", [
    "import numpy as np, thermosim as ts\n"
    "m = ts.SDEModel(A0=-np.eye(2), b0=np.zeros(2), C0=np.eye(2))\n"
    "seg = ts.GateSegment(ts.Generator.dense('drift_super', 0.1 * np.eye(4)), 0.0, 1.0)\n"
    "A = ts.GateProgram(schedule_A=ts.Schedule([seg])).coefficients(m, 0.5)[0]\n"
    "assert np.allclose(A, -np.exp(0.05) * np.eye(2))",
    "import numpy as np, thermosim as ts\n"
    "m = ts.SDEModel(A0=-np.eye(2), b0=np.zeros(2), C0=np.eye(2))\n"
    "M, S = ts.linear_sde_kernel(m, 1.0)\n"
    "assert np.allclose(M, np.exp(-1.0) * np.eye(2))",
], ids=["dense_gate", "linear_sde_kernel"])
def test_dense_exponentials_load_scipy_on_use(code):
    assert "scipy.linalg" in _scipy_modules_after(code)
