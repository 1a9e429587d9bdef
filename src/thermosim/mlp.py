"""Small fully-connected network with hand-rolled backprop.

Kept deliberately tiny (tanh, dense layers) so gradients can be verified
against finite differences and parameters serialize to plain JSON arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError



def _act(name):
    """(activation applied in place, derivative from activation values into out)."""
    if name == "tanh":
        def f(z):
            np.tanh(z, out=z)

        def df(a, out):
            np.multiply(a, a, out=out)
            np.subtract(1.0, out, out=out)
    elif name == "softplus":
        def f(z):
            np.logaddexp(0.0, z, out=z)

        def df(a, out):
            np.negative(a, out=out)
            np.exp(out, out=out)
            np.subtract(1.0, out, out=out)
    else:
        raise ContractViolationError(f"unknown activation {name!r}")
    return f, df


class MLP:
    """Dense net: sizes = [in, hidden..., out]; linear final layer."""

    def __init__(self, sizes, activation="tanh", seed=0, zero_final=False):
        if len(sizes) < 2:
            raise ContractViolationError("need at least input and output sizes")
        self.sizes = list(sizes)
        self.activation = activation
        self._f, self._df = _act(activation)
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            self.weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))
        if zero_final:
            self.weights[-1][:] = 0.0
        self._workspace_batch = None
        self._workspace_bufs = None

    def _workspace(self, batch):
        """(hidden activations, backward deltas, derivative scratch) for the
        last batch size: one (batch, width) array per hidden layer in each
        list, allocated afresh when the batch size changes."""
        if batch != self._workspace_batch:
            self._workspace_bufs = tuple(
                [np.empty((batch, k)) for k in self.sizes[1:-1]] for _ in range(3))
            self._workspace_batch = batch
        return self._workspace_bufs

    def forward(self, X):
        """X: (batch, in) -> (Y, cache) with Y: (batch, out).

        Y is a fresh array.  The hidden activations in the cache live in a
        workspace that the next forward call of the same batch size
        overwrites (a call of another size allocates a new one), so pass the
        cache to backward before that call.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        hidden, _, _ = self._workspace(len(X))
        acts = [X]
        for W, b, z in zip(self.weights, self.biases, hidden):
            np.matmul(acts[-1], W.T, out=z)
            z += b
            self._f(z)
            acts.append(z)
        Y = acts[-1] @ self.weights[-1].T + self.biases[-1]
        acts.append(Y)
        return Y, acts

    def __call__(self, X):
        return self.forward(X)[0]

    def backward(self, acts, dY):
        """Gradients of sum(dY * Y) w.r.t. parameters; returns (dWs, dbs)."""
        dWs = [None] * len(self.weights)
        dbs = [None] * len(self.biases)
        delta = np.atleast_2d(np.asarray(dY, dtype=float))
        _, deltas, deriv = self._workspace(len(delta))
        for i in range(len(self.weights) - 1, -1, -1):
            dWs[i] = delta.T @ acts[i]
            dbs[i] = delta.sum(axis=0)
            if i > 0:
                delta = np.matmul(delta, self.weights[i], out=deltas[i - 1])
                self._df(acts[i], deriv[i - 1])
                delta *= deriv[i - 1]
        return dWs, dbs

    # flat parameter vector helpers (finite-difference checks, optimizers)
    def get_flat(self):
        return np.concatenate([W.ravel() for W in self.weights]
                              + [b.ravel() for b in self.biases])

    def set_flat(self, flat):
        flat = np.asarray(flat, dtype=float)
        i = 0
        for W in self.weights:
            W[:] = flat[i:i + W.size].reshape(W.shape)
            i += W.size
        for b in self.biases:
            b[:] = flat[i:i + b.size]
            i += b.size
        if i != flat.size:
            raise ContractViolationError("flat parameter vector has wrong length")

    def flat_grads(self, dWs, dbs):
        return np.concatenate([g.ravel() for g in dWs] + [g.ravel() for g in dbs])

    def to_dict(self):
        return {
            "sizes": self.sizes,
            "activation": self.activation,
            "weights": [W.tolist() for W in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, doc):
        net = cls(doc["sizes"], activation=doc["activation"])
        net.weights = [np.asarray(W, dtype=float) for W in doc["weights"]]
        net.biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
        return net

    def copy(self):
        return MLP.from_dict(self.to_dict())


class Adam:
    """Adaptive-moment optimizer on the network's flat parameter vector."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr < 0:
            raise ContractViolationError("learning rate must be nonnegative")
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = self.v = None
        self.t = 0

    def step(self, params, grads):
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.t += 1
        self.m *= self.beta1
        self.m += (1 - self.beta1) * grads
        self.v *= self.beta2
        self.v += (1 - self.beta2) * np.square(grads)
        denom = np.sqrt(self.v / (1 - self.beta2 ** self.t))
        denom += self.eps
        update = self.m / (1 - self.beta1 ** self.t)
        update *= self.lr
        update /= denom
        return params - update


class SGD:
    """Plain stochastic gradient descent."""

    def __init__(self, lr=1e-2):
        if lr < 0:
            raise ContractViolationError("learning rate must be nonnegative")
        self.lr = lr

    def step(self, params, grads):
        return params - self.lr * grads
