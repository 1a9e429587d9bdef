import numpy as np
import pytest

from thermosim import (ContractViolationError, Gaussian, ScoreNetworkDemon, TrainConfig,
                       VPSchedule, kernel_dsm_objective, train_demon)
from thermosim.mlp import MLP, SGD, Adam


def _reference_act(name):
    """Activation and its derivative from the activation value, as plain formulas."""
    if name == "tanh":
        return np.tanh, lambda a: 1.0 - a * a
    return (lambda z: np.logaddexp(0.0, z)), (lambda a: 1.0 - np.exp(-a))


def _reference_forward(net, X):
    f, _ = _reference_act(net.activation)
    acts = [X]
    h = X
    last = len(net.weights) - 1
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ W.T + b
        h = z if i == last else f(z)
        acts.append(h)
    return h, acts


def _reference_backward(net, acts, dY):
    _, df = _reference_act(net.activation)
    dWs, dbs = [None] * len(net.weights), [None] * len(net.biases)
    delta = dY
    for i in range(len(net.weights) - 1, -1, -1):
        dWs[i] = delta.T @ acts[i]
        dbs[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i]) * df(acts[i])
    return dWs, dbs


@pytest.mark.parametrize("activation", ["tanh", "softplus"])
@pytest.mark.parametrize("batch", [1, 7, 2000])
def test_forward_backward_match_reference_bitwise(activation, batch):
    net = MLP([3, 64, 64, 2], activation=activation, seed=4)
    rng = np.random.default_rng(batch)
    X = rng.standard_normal((batch, 3))
    dY = rng.standard_normal((batch, 2))
    ref_Y, ref_acts = _reference_forward(net, X)
    ref_dWs, ref_dbs = _reference_backward(net, ref_acts, dY)
    for _ in range(2):  # the second pass runs on the reused workspace
        Y, acts = net.forward(X)
        dWs, dbs = net.backward(acts, dY)
        np.testing.assert_array_equal(Y, ref_Y)
        for got, want in zip(dWs + dbs, ref_dWs + ref_dbs):
            np.testing.assert_array_equal(got, want)


def test_softplus_gradient_matches_finite_differences():
    net = MLP([2, 6, 5, 2], activation="softplus", seed=1)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((9, 2))
    dY = rng.standard_normal((9, 2))
    _, acts = net.forward(X)
    grads = net.flat_grads(*net.backward(acts, dY))
    flat = net.get_flat()
    h = 1e-6
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = h
        net.set_flat(flat + e)
        up = np.sum(dY * net(X))
        net.set_flat(flat - e)
        down = np.sum(dY * net(X))
        assert abs((up - down) / (2 * h) - grads[i]) < 1e-6 * max(1.0, abs(grads[i]))
    net.set_flat(flat)


def test_second_query_leaves_first_result_unchanged():
    demon = ScoreNetworkDemon(2, seed=3)
    V = np.random.default_rng(0).standard_normal((50, 2))
    first = demon.query_batch(0.4, V)
    kept = first.copy()
    second = demon.query_batch(0.9, -V)
    np.testing.assert_array_equal(first, kept)
    assert not np.shares_memory(first, second)


def test_cache_survives_forward_of_another_batch_size():
    net = MLP([3, 8, 8, 2], seed=4)
    rng = np.random.default_rng(1)
    X, dY = rng.standard_normal((7, 3)), rng.standard_normal((7, 2))
    _, acts = net.forward(X)
    net.forward(rng.standard_normal((5, 3)))  # a new size allocates new buffers
    dWs, dbs = net.backward(acts, dY)
    _, ref_acts = _reference_forward(net, X)
    ref_dWs, ref_dbs = _reference_backward(net, ref_acts, dY)
    for got, want in zip(dWs + dbs, ref_dWs + ref_dbs):
        np.testing.assert_array_equal(got, want)
    Y, _ = net.forward(X)  # and back to the first size
    np.testing.assert_array_equal(Y, _reference_forward(net, X)[0])


def test_adam_matches_reference_formula_bitwise():
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    opt = Adam(lr, b1, b2, eps)
    rng = np.random.default_rng(5)
    params = rng.standard_normal(300)
    ref, m, v = params.copy(), np.zeros(300), np.zeros(300)
    for t in range(1, 4):
        grads = rng.standard_normal(300)
        params = opt.step(params, grads)
        m = b1 * m + (1 - b1) * grads
        v = b2 * v + (1 - b2) * grads ** 2
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        ref = ref - lr * mh / (np.sqrt(vh) + eps)
        np.testing.assert_array_equal(params, ref)


def test_sgd_step_and_training():
    opt = SGD(0.5)
    params = np.array([1.0, -2.0])
    grads = np.array([0.25, 4.0])
    np.testing.assert_array_equal(opt.step(params, grads), [0.875, -4.0])
    np.testing.assert_array_equal(params, [1.0, -2.0])
    with pytest.raises(ContractViolationError):
        SGD(-1.0)

    data = Gaussian([2.0], [[0.25]])
    objective = kernel_dsm_objective(lambda rng, n: data.sample(rng, n),
                                     VPSchedule(beta_min=2.0, T=1.0), 64)
    demon = ScoreNetworkDemon(1, hidden=(16,), seed=0)
    before = demon.net.get_flat().copy()
    _, history = train_demon(demon, objective,
                             TrainConfig(optimizer="sgd", learning_rate=1e-2, steps=200, seed=0))
    assert np.all(np.isfinite(history))
    assert not np.array_equal(demon.net.get_flat(), before)
    assert np.mean(history[-40:]) < np.mean(history[:40])
