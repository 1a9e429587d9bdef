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


def test_import_leaves_scipy_sparse_unloaded():
    """The sparse oracle imports scipy.sparse lazily, keeping CLI start-up short."""
    code = "import sys, thermosim, thermosim.cli; print('scipy.sparse' in sys.modules)"
    src = str(Path(thermosim.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
