"""Linear-plus-demon SDE engine for s-mode devices.

An s-mode device with state v in R^N evolves as

    dv = (A(t) v + b(t) + D(t) d(t, v)) dt + C(t) dw

where (A, b, C, D) come from a base model, optionally reshaped in time by a
gate program, and d is the output of a demon device.  This module integrates
single trajectories and ensembles with fixed-step Euler-Maruyama, and
propagates the exact Gaussian moment ODEs as an independent oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, DivergenceError

DIVERGENCE_LIMIT = 1e12
CHUNK_SIZE = 512  # _integrate's rows per chunk, and simulate_ensemble's default chunk_size

# Ensemble noise is drawn per stream in time blocks into one buffer of at most
# NOISE_BLOCK_BYTES, allocated once per call and reused by every chunk, and at
# most NOISE_BLOCK_STEPS rows per stream: longer draws no longer amortize the
# per-call cost, so they would only cost memory.  When the byte budget limits
# the block, each draw call fills NOISE_BLOCK_BYTES / (8 * chunk) values per
# stream: 1 024 at the default chunk of 512 streams.  Longer calls are
# cheaper per normal (best of 7 over 1 024 Philox streams on a 2-vCPU x86 VM:
# 23.6 ns at 512 per call, 21.0 at 1 024, 20.5 at 2 048), which pays for
# stepping narrower chunks.  States are stepped in sub-blocks of
# SUB_BLOCK_BYTES, small enough to stay in cache between the noise map and
# the step loop.  Artifacts are formatted CSV_BLOCK_VALUES values at a time.
NOISE_BLOCK_BYTES = 4 * 2 ** 20
NOISE_BLOCK_STEPS = 512
SUB_BLOCK_BYTES = 2 ** 20
CSV_BLOCK_VALUES = 512


def write_csv(path, rows, header=None):
    """Write ``rows``, an array (a vector is one row) or a list of row lists,
    under ``header`` (default x1, x2, ...) as LF-ended comma-separated lines
    of str values: a float's shortest round-trip repr, a string as it is.
    Rows are formatted about CSV_BLOCK_VALUES values at a time, so a long
    array is never held as Python floats and strings all at once."""
    if isinstance(rows, np.ndarray):
        rows = np.atleast_2d(rows)
    if header is None:
        header = ["x%d" % (j + 1) for j in range(len(rows[0]))]
    block = max(1, CSV_BLOCK_VALUES // len(header))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), block):
            part = rows[start:start + block]
            if isinstance(part, np.ndarray):
                part = part.tolist()
            fh.write("".join([",".join(map(str, row)) + "\n" for row in part]))


def write_compact_json(path, doc):
    """Write ``doc`` as one line of JSON: the bytes of json.dumps(doc) with
    each ndarray or numpy scalar, as ``doc`` or as a value of a dict ``doc``
    with string keys, as its tolist().  Such an ndarray is formatted and
    written in row blocks of about CSV_BLOCK_VALUES values, so a long array
    is never held as Python floats or as one string.  NaN and infinities
    raise ValueError.  json.dumps runs the C encoder; json.dump always runs
    the pure-Python one."""
    with open(path, "w") as fh:
        if isinstance(doc, dict):
            fh.write("{")
            for i, (key, value) in enumerate(doc.items()):
                fh.write((", " if i else "") + json.dumps(key) + ": ")
                _write_json_value(fh, value)
            fh.write("}")
        else:
            _write_json_value(fh, doc)


def _write_json_value(fh, value):
    if isinstance(value, np.generic) or isinstance(value, np.ndarray) and value.ndim == 0:
        value = value.tolist()
    if not isinstance(value, np.ndarray):
        fh.write(json.dumps(value, allow_nan=False))
        return
    rows = max(1, CSV_BLOCK_VALUES * len(value) // max(1, value.size))
    fh.write("[")
    for start in range(0, len(value), rows):
        # Each block is a list of rows; its brackets are the array's own.
        block = json.dumps(value[start:start + rows].tolist(), allow_nan=False)
        fh.write((", " if start else "") + block[1:-1])
    fh.write("]")


def trajectory_rng(base_seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based independent stream for trajectory `index`: Philox keyed
    by SeedSequence([base_seed, index]).  Ensembles build one chunk's worth
    through this function and re-key them for later chunks (_chunk_rngs),
    which draws the same numbers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([base_seed, index])))


# SeedSequence's uint32 mixing (numpy's bit_generator.pyx, after O'Neill's
# seed_seq) for a two-word entropy [base_seed, index] and its pool of four
# words: the running hash constants (init * mult**j mod 2**32) of its 16
# hashmix calls and of the 4 output words of generate_state(2, np.uint64).
_MIX_A = [0x43B0D7E5 * pow(0x931E8875, j, 2 ** 32) % 2 ** 32 for j in range(17)]
_MIX_B = [0x8B51F9DD * pow(0x58F38DED, j, 2 ** 32) % 2 ** 32 for j in range(5)]
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _philox_keys(base_seed, indices):
    """SeedSequence([base_seed, i]).generate_state(2, np.uint64) for every i
    in ``indices``, as rows of an (m, 2) uint64 array: the same multiplies,
    xors and shifts, run over all indices at once.  Exact only while
    base_seed and every index lie in [0, 2**32), one entropy word each."""
    idx = np.asarray(indices, dtype=np.uint32)
    calls = iter(range(16))

    def hashmix(v):
        j = next(calls)
        v = (v ^ np.uint32(_MIX_A[j])) * np.uint32(_MIX_A[j + 1])
        return v ^ (v >> np.uint32(16))

    zero = np.zeros_like(idx)
    pool = [hashmix(np.full_like(idx, base_seed)), hashmix(idx), hashmix(zero), hashmix(zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = v ^ (v >> np.uint32(16))
    words = []
    for j, v in enumerate(pool):
        v = (v ^ np.uint32(_MIX_B[j])) * np.uint32(_MIX_B[j + 1])
        words.append((v ^ (v >> np.uint32(16))).astype(np.uint64))
    return np.stack([words[0] | words[1] << np.uint64(32),
                     words[2] | words[3] << np.uint64(32)], axis=1)


def _chunk_rngs(rngs, base_seed, start, stop):
    """Generators for trajectories start..stop-1, each drawing what
    trajectory_rng(base_seed, i) draws.  ``rngs`` is the workspace's pool:
    the first chunk fills it through trajectory_rng, and later chunks re-key
    its Philox states from one vectorised pass of _philox_keys, which costs
    under a tenth of making new ones.  A base seed that is not an integer,
    or a seed or index outside [0, 2**32), is not a two-word SeedSequence
    entropy, so it takes the per-stream trajectory_rng path.  Only the
    Philox state is re-keyed: a re-keyed generator's bit_generator.seed_seq,
    and so its spawn(), still belong to the stream it was made for."""
    m = stop - start
    if (rngs and m <= len(rngs) and isinstance(base_seed, (int, np.integer))
            and 0 <= base_seed <= 0xFFFFFFFF and stop - 1 <= 0xFFFFFFFF):
        # A fresh Philox: counter and buffer zero, no buffered output.
        zeros = [0, 0, 0, 0]
        state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": None},
                 "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for rng, key in zip(rngs, _philox_keys(base_seed, np.arange(start, stop)).tolist()):
            state["state"]["key"] = key
            rng.bit_generator.state = state
    else:
        rngs[:] = [trajectory_rng(base_seed, i) for i in range(start, stop)]
    return rngs[:m]


@dataclass(frozen=True)
class SDEModel:
    """Base (time-independent) coefficients of an s-mode device.

    A0 : (N, N) drift matrix, b0 : (N,) drift vector, C0 : (N, N) diffusion
    matrix, D0 : (N, M) demon coupling.
    """

    A0: np.ndarray
    b0: np.ndarray
    C0: np.ndarray
    D0: np.ndarray | None = None

    def __post_init__(self):
        A0 = np.atleast_2d(np.asarray(self.A0, dtype=float))
        n = A0.shape[0]
        b0 = np.asarray(self.b0, dtype=float).reshape(-1)
        C0 = np.atleast_2d(np.asarray(self.C0, dtype=float))
        D0 = self.D0
        if D0 is None:
            D0 = np.eye(n)
        D0 = np.atleast_2d(np.asarray(D0, dtype=float))
        if n < 1 or A0.shape != (n, n):
            raise ContractViolationError(f"A0 must be square, got {A0.shape}")
        if b0.shape != (n,):
            raise ContractViolationError(f"b0 must have length {n}, got {b0.shape}")
        if C0.shape != (n, n):
            raise ContractViolationError(f"C0 must be {n}x{n}, got {C0.shape}")
        if D0.shape[0] != n:
            raise ContractViolationError(f"D0 must have {n} rows, got {D0.shape}")
        for name, arr in (("A0", A0), ("b0", b0), ("C0", C0), ("D0", D0)):
            if not np.all(np.isfinite(arr)):
                raise ContractViolationError(f"{name} contains non-finite entries")
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "C0", C0)
        object.__setattr__(self, "D0", D0)

    @property
    def dim(self) -> int:
        return self.A0.shape[0]

    @property
    def demon_dim(self) -> int:
        return self.D0.shape[1]

    def coefficients(self, t: float):
        """Bare coefficients; gate programs override this per time."""
        return self.A0, self.b0, self.C0, self.D0


@dataclass
class Trajectory:
    """Sampled path on a uniform grid: times (T,), values (T, N)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.times.ndim != 1 or len(self.times) != self.values.shape[0]:
            raise ContractViolationError("times and values lengths differ")
        if np.any(np.diff(self.times) <= 0):
            raise ContractViolationError("timestamps must be strictly increasing")

    def __len__(self):
        return len(self.times)

    def to_csv(self, path):
        write_csv(path, np.column_stack([self.times, self.values]),
                  ["t"] + [f"v{j + 1}" for j in range(self.values.shape[1])])


@dataclass(frozen=True)
class GaussianMoments:
    """Mean and covariance of the state at time t: one row of a MomentPath."""

    t: float
    mean: np.ndarray
    cov: np.ndarray


@dataclass
class MomentPath:
    """Gaussian moments on a time grid, as arrays: times (T,), means (T, N)
    and covs (T, N, N), symmetric.  propagate_moments returns one and
    simulate_ensemble an EnsembleSummary.  len(path) is T, path[k] is row k
    as a GaussianMoments of views, and a slice is a MomentPath of views;
    iterating (through __getitem__) yields the rows in order."""

    times: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __len__(self):
        return len(self.times)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return MomentPath(self.times[k], self.means[k], self.covs[k])
        return GaussianMoments(float(self.times[k]), self.means[k], self.covs[k])

    def _doc(self):
        return {"times": self.times, "mean": self.means, "cov": self.covs}

    def to_json(self, path):
        write_compact_json(path, self._doc())


@dataclass
class EnsembleSummary(MomentPath):
    """The per-grid-time empirical moments of an ensemble of n_traj
    trajectories, and its final states (n_traj, N) when kept.  Its JSON
    leads with n_traj."""

    n_traj: int
    final_states: np.ndarray | None = field(default=None, repr=False)

    def _doc(self):
        return {"n_traj": self.n_traj, **super()._doc()}


def _count(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ContractViolationError(f"{name} must be an integer of at least 1, got {value!r}")


def _vector(v, n, name):
    """v as a finite length-n float vector; zeros if v is None."""
    v = np.zeros(n) if v is None else np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (n,) or not np.all(np.isfinite(v)):
        raise ContractViolationError(f"{name} must be finite, of length {n}")
    return v


def _spd(X, n, name, psd=False):
    """X (the identity if None) as a finite n x n float matrix, symmetric
    within 1e-10 and positive definite, with its lower Cholesky factor.
    With psd=True X may be singular (no eigenvalue below -1e-9) and the
    factor is None."""
    X = np.eye(n) if X is None else np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape != (n, n):
        raise ContractViolationError(f"{name} must be {n}x{n} to match the mean or state, "
                                     f"got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ContractViolationError(f"{name} must be finite")
    if np.max(np.abs(X - X.T)) > 1e-10:
        raise ContractViolationError(f"{name} must be symmetric within 1e-10")
    if psd:
        if np.min(np.linalg.eigvalsh(X)) < -1e-9:
            raise ContractViolationError(f"{name} must be positive semidefinite")
        return X, None
    try:
        return X, np.linalg.cholesky(X)
    except np.linalg.LinAlgError as exc:
        raise ContractViolationError(f"{name} must be SPD") from exc


def _step_size(dt, name="dt"):
    """The one step-size check: ``dt`` must be finite and positive."""
    if not 0 < dt < np.inf:
        raise ContractViolationError(f"{name} must be finite and positive, got {dt}")


def _grid(t0, tf, dt):
    """The one uniform grid: (times, dts), times = t0 + dt * arange(n + 1) with
    times[-1] = tf exactly and dts = n copies of dt, so every map is built
    from dt itself.  dt must divide tf - t0 within rounding."""
    _step_size(dt)
    if not 0 < tf - t0 < np.inf:  # also refuses a NaN or infinite end
        raise ContractViolationError(f"t0 and tf must be finite with tf > t0, got {t0}, {tf}")
    n_steps = int(round((tf - t0) / dt))
    if abs(n_steps * dt - (tf - t0)) > 1e-9 * max(1.0, abs(tf - t0)):
        raise ContractViolationError("dt does not divide (tf - t0) within rounding")
    times = t0 + dt * np.arange(n_steps + 1)
    times[-1] = tf
    return times, np.full(n_steps, dt)


def _check_domain(program, times):
    """Refuse a program whose domain misses the grid by over Schedule's 1e-12."""
    lo, hi = getattr(program, "domain", None) or (times[0], times[-1])
    if times[0] < lo - 1e-12 or times[-1] > hi + 1e-12:
        raise ContractViolationError(f"gate program domain [{lo:g}, {hi:g}] does not cover "
                                     f"the grid [{times[0]:g}, {times[-1]:g}]")


def _propagators(model, program, step_times, dts):
    """Per-step maps of the Euler-Maruyama update on row states,

        V_{k+1} = V_k M_k + (noise_k S_k + c_k) + d_k E_k,

    with M = I + h A^T, S = sqrt(h) C^T, c = h b and E = h D^T built from
    the coefficients at each step start time and the step size h = dts[k].
    Each is indexable by step; without a program and with one step size
    they are broadcast views of one map.
    """
    if program is None or not len(step_times):
        table = [model.coefficients(0.0)]
    else:
        table = [program.coefficients(model, t) for t in step_times]
    A, b, C, D = (np.array(x, dtype=float) for x in zip(*table))
    n, m = model.dim, model.demon_dim
    if A.shape[1:] != (n, n) or b.shape[1:] != (n,) or C.shape[1:] != (n, n) \
            or D.shape[1:] != (n, m):
        raise ContractViolationError("coefficient shapes inconsistent with model")
    if len(A) == 1 and np.all(dts == dts[:1]):
        dts = dts[:1]
    h = dts[:, None, None]
    maps = (np.eye(n) + h * A.transpose(0, 2, 1), np.sqrt(h) * C.transpose(0, 2, 1),
            h[:, 0] * b, h * D.transpose(0, 2, 1))
    return tuple(np.broadcast_to(x, (len(step_times),) + x.shape[1:]) for x in maps)


def _block_steps(m, n, n_steps):
    """Steps per noise block and per state sub-block for m streams of dimension n."""
    row = 8 * m * n
    block = max(1, min(n_steps, NOISE_BLOCK_STEPS, NOISE_BLOCK_BYTES // row))
    return block, max(1, min(block, SUB_BLOCK_BYTES // row))


def _check_diverged(X, k, start, ends, what="trajectory {}"):
    """Raise for the first step, then the first row (named by
    ``what.format(start + i)``), whose state in X (steps k, k+1, ... by
    batch by N, step j ending at ends[j]) is non-finite or runaway: some
    |x| > DIVERGENCE_LIMIT.  X may hold no step."""
    if X.max(initial=0.0) <= DIVERGENCE_LIMIT and X.min(initial=0.0) >= -DIVERGENCE_LIMIT:
        return
    j, i = np.argwhere(~np.all(np.abs(X) <= DIVERGENCE_LIMIT, axis=2))[0]
    raise DivergenceError(f"{what.format(start + i)} diverged at step {k + j + 1}, "
                          f"t={ends[k + j]:g}",
                          trajectory=int(start + i), step=int(k + j + 1),
                          t=float(ends[k + j]), max_abs=float(np.max(np.abs(X[j, i]))))


def _integrate(model, program, demon, initial_sampler, times, dts, base_seed, n_rows,
               observe=None, chunk=CHUNK_SIZE, keep_final=True, what="trajectory {}"):
    """The one stepper: step rows 0..n_rows-1 of the (programmed,
    demon-driven) device over the whole grid (_check_domain), step k from
    times[k] by dts[k], ``chunk`` rows at a time; return their final states
    (n_rows, N), or None without keep_final.

    The per-step maps (_propagators) and the buffers are made once per call
    and reused by every chunk, including a partial last one.  Row i draws
    its initial state, then its noise, from the stream of
    trajectory_rng(base_seed, i) (a generator of one pool, see _chunk_rngs),
    one time block at a time into a buffer of chunk x block x N values.
    Each block is stepped in cache-sized sub-blocks: the noise map, the
    divergence check and ``observe(start, k, X)`` (X holds the states of the
    chunk's rows start, start+1, ... at grid indices k, k+1, ...) run once
    per sub-block.  With a demon the divergence check runs every step,
    before the demon sees the state, and its output must be (m, M) for a
    chunk of m rows; a stateful demon is stepped through demon.batch(m), one
    fresh state per chunk.  A constant c (one broadcast map) is added as one
    tiled row over the sub-block viewed as (s, m N): one long inner loop,
    not m of N.  ``what`` names a diverged row, as in _check_diverged.
    """
    _check_domain(program, times)
    step_times, ends = times[:-1], times[1:]
    M, S, c, E = _propagators(model, program, step_times, dts)
    n_steps, n = len(dts), model.dim
    width = min(chunk, n_rows)
    block, sub = _block_steps(width, n, n_steps)
    noise_buf, Vs_buf, drift_buf = (np.empty(width * block * n),
                                    np.empty((sub + 1) * width * n), np.empty(width * n))
    pool, finals = [], np.empty((n_rows, n)) if keep_final else None
    observe = observe or (lambda start, k, X: None)
    stateful = demon is not None and not getattr(demon, "stateless", False)
    for start in range(0, n_rows, chunk):
        stop = min(start + chunk, n_rows)
        m = stop - start
        rngs = _chunk_rngs(pool, base_seed, start, stop)
        V0 = np.array([initial_sampler(rng) for rng in rngs], dtype=float)
        if V0.shape != (m, n):
            raise ContractViolationError("initial state dimension mismatch")
        observe(start, 0, V0[None])
        state = demon.batch(m) if stateful else None
        bias = np.tile(c[0], m) if len(c) and c.strides[0] == 0 else None
        noise = noise_buf[:m * block * n].reshape(m, block, n)
        Vs = Vs_buf[:(sub + 1) * m * n].reshape(sub + 1, m, n)  # Vs[0]: state before the sub-block
        Vs[0] = V0
        rows = Vs.reshape(sub + 1, m * n)  # Vs with each step's states as one row
        drift = drift_buf[:m * n].reshape(m, n)
        with np.errstate(over="ignore", invalid="ignore"):
            for k0 in range(0, n_steps, block):
                nb = min(block, n_steps - k0)
                for i, rng in enumerate(rngs):
                    rng.standard_normal(out=noise[i, :nb])
                for j0 in range(0, nb, sub):
                    s, k = min(sub, nb - j0), k0 + j0
                    X = Vs[1:s + 1]
                    np.matmul(noise[:, j0:j0 + s].transpose(1, 0, 2), S[k:k + s], out=X)
                    if bias is None:
                        X += c[k:k + s, None]
                    else:
                        rows[1:s + 1] += bias
                    for j in range(s):
                        V = Vs[j]
                        X[j] += np.matmul(V, M[k + j], out=drift)
                        if demon is None:
                            continue
                        t = step_times[k + j]
                        d = demon.query_batch(t, V) if state is None else state.query(t, V)
                        if np.shape(d) != (m, E.shape[1]):
                            raise ContractViolationError("demon output dimension mismatch")
                        X[j] += d @ E[k + j]
                        _check_diverged(X[j:j + 1], k + j, start, ends, what)
                        if state is not None:
                            state.advance(t, V, (X[j] - V) / dts[k + j], dts[k + j])
                    if demon is None:
                        _check_diverged(X, k, start, ends, what)
                    observe(start, k + 1, X)
                    Vs[0] = Vs[s]
        if keep_final:
            finals[start:stop] = Vs[0]
    return finals


def _path(model, program, demon, V0, times, dts, seed):
    """Whole path (m, steps + 1, N) on the grid ``times`` of the trajectories
    starting at the rows of V0 (m, N), stepped as one chunk; row i draws its
    noise from trajectory_rng(seed, i)."""
    out = np.empty((len(V0), len(times), model.dim))

    def record(start, k, X):
        out[:, k:k + len(X)] = X.transpose(1, 0, 2)

    rows = iter(V0)
    _integrate(model, program, demon, lambda rng: next(rows), times, dts, seed, len(V0),
               record, len(V0))
    return out


def simulate_trajectory(model: SDEModel, program=None, demon=None, v0=None, t0=0.0,
                        tf=1.0, dt=1e-2, seed=0) -> Trajectory:
    """Sample one path of the (possibly programmed, demon-driven) SDE.

    Deterministic given (seed, dt): the path is member 0 of a one-trajectory
    batch drawing from trajectory_rng(seed, 0), so it equals
    simulate_ensemble(n_traj=1, base_seed=seed) bit for bit.
    """
    times, dts = _grid(t0, tf, dt)
    v0 = _vector(v0, model.dim, "v0")
    return Trajectory(times, _path(model, program, demon, v0[None], times, dts, seed)[0])


def fixed_initial(v0):
    """Initial sampler returning a constant state (consumes no randomness)."""
    v0 = np.asarray(v0, dtype=float).reshape(-1)

    def sampler(rng):
        return v0

    return sampler


def gaussian_initial(mean, cov):
    """Initial sampler drawing from N(mean, cov).

    The mean must be finite and cov a finite SPD matrix of its size,
    symmetric within 1e-10: Cholesky reads only the lower triangle, so an
    asymmetric cov would silently draw from another law.
    """
    mean = _vector(mean, np.size(mean), "initial mean")
    chol = _spd(cov, mean.size, "initial covariance")[1]

    def sampler(rng):
        return mean + chol @ rng.standard_normal(mean.size)

    return sampler


def simulate_ensemble(model: SDEModel, program=None, demon=None, initial_sampler=None,
                      t0=0.0, tf=1.0, dt=1e-2, n_traj=1, base_seed=0,
                      chunk_size=CHUNK_SIZE, keep_final=False) -> EnsembleSummary:
    """Integrate `n_traj` independent trajectories and summarize their moments.

    The trajectories go through the one stepper, _integrate, `chunk_size`
    (a positive integer) at a time; trajectory i draws the stream of
    trajectory_rng(base_seed, i).  At n_traj=1 member 0 reproduces
    simulate_trajectory(seed=base_seed) bit for bit; in larger batches it
    agrees to rounding, since BLAS may round a row of a batched product
    differently.  Stateless demons are queried on whole batches; a stateful
    demon is stepped through demon.batch(chunk), one fresh state per chunk.
    The noise block (at most NOISE_BLOCK_BYTES: 1 024 values per stream and
    draw at the default chunk of 512) and the state buffers are freed before
    the moments are formed, and the (n_traj, N) final states are held only
    with keep_final.
    """
    _count(n_traj, "n_traj")
    _count(chunk_size, "chunk_size")
    times, dts = _grid(t0, tf, dt)
    n_steps, n = len(dts), model.dim
    if initial_sampler is None:
        initial_sampler = fixed_initial(np.zeros(n))
    # Sums run over deviations from a shift, trajectory 0's own state, which
    # chunk 0 records at each grid index before summing there; so moments do
    # not cancel when the mean is large against the spread, whatever chunk_size.
    shift = np.empty((n_steps + 1, n))
    sum_d = np.zeros((n_steps + 1, n))
    sum_dd = np.zeros((n_steps + 1, n, n))
    work = np.empty(0)  # one sub-block's deviations, grown to the largest sub-block seen

    def accumulate(start, k, X):
        nonlocal work
        s, m = X.shape[:2]
        if work.size < X.size:
            work = np.empty(X.size)
        if start == 0:
            shift[k:k + s] = X[:, 0]
        # Deviations as (s, N, m): each component's row is contiguous, so the
        # subtraction runs long inner loops and the sums are plain products.
        D = np.subtract(X.transpose(0, 2, 1), shift[k:k + s, :, None],
                        out=work[:X.size].reshape(s, n, m))
        sum_d[k:k + s] += np.matmul(D, np.ones(m))
        sum_dd[k:k + s] += np.matmul(D, D.transpose(0, 2, 1))

    finals = _integrate(model, program, demon, initial_sampler, times, dts, base_seed, n_traj,
                        accumulate, chunk_size, keep_final)
    del work

    # The sums become d, the means and the covariances in place, one (T,)
    # column at a time, by the operations of the whole-array form; a
    # diagonal entry's (c + c) / 2 is c itself.
    d = np.divide(sum_d, n_traj, out=sum_d)
    means = np.add(shift, d, out=shift)
    covs = sum_dd
    if n_traj > 1:
        for i in range(n):
            for j in range(n):
                covs[:, i, j] -= n_traj * (d[:, i] * d[:, j])
        covs /= n_traj - 1
        for i in range(n):
            for j in range(i + 1, n):
                covs[:, i, j] = covs[:, j, i] = (covs[:, i, j] + covs[:, j, i]) / 2
    else:
        covs.fill(0.0)
    return EnsembleSummary(times, means, covs, int(n_traj), finals)


def propagate_moments(model: SDEModel, program=None, mu0=None, cov0=None,
                      t0=0.0, tf=1.0, dt=1e-2) -> MomentPath:
    """Integrate the exact Gaussian moment ODEs with classical RK4 into a
    MomentPath.

    mu' = A mu + b,  Sigma' = A Sigma + Sigma A^T + C C^T.  Fourth-order in
    dt, so this serves as an oracle strictly more accurate than the sampler
    on the same grid.  Demon terms are not modeled (linear models only).

    mu0 and cov0 are checked once; each step writes its moments, which the
    loop itself has symmetrised, into preallocated rows without a second
    check.  Without a program C C^T is formed once.  Moments that overflow
    raise DivergenceError naming the first step and time whose mean or
    covariance is non-finite.  The times are simulate_ensemble's (_grid),
    and a program must cover them (_check_domain).
    """
    times, dts = _grid(t0, tf, dt)
    _check_domain(program, times)
    n_steps, n = len(dts), model.dim
    means = np.empty((n_steps + 1, n))
    covs = np.empty((n_steps + 1, n, n))
    means[0] = _vector(mu0, n, "mu0")
    covs[0] = _spd(np.zeros((n, n)) if cov0 is None else cov0, n, "cov0", psd=True)[0]

    def coefficients(t):
        A, b, C, _ = model.coefficients(t) if program is None else program.coefficients(model, t)
        return A, b, C @ C.T

    if program is None:
        fixed = coefficients(t0)
        coefficients = lambda t: fixed  # noqa: E731

    def rhs(A, b, Q, mu, cov):
        return A @ mu + b, A @ cov + cov @ A.T + Q

    # Coefficients are evaluated once per distinct time: k2 and k3 share the
    # midpoint, and k4's grid time is the next step's start.
    start, grid = coefficients(t0), times.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            mu, cov = means[k], covs[k]
            mid, end = coefficients(grid[k] + dt / 2), coefficients(grid[k + 1])
            k1m, k1c = rhs(*start, mu, cov)
            k2m, k2c = rhs(*mid, mu + dt / 2 * k1m, cov + dt / 2 * k1c)
            k3m, k3c = rhs(*mid, mu + dt / 2 * k2m, cov + dt / 2 * k2c)
            k4m, k4c = rhs(*end, mu + dt * k3m, cov + dt * k3c)
            means[k + 1] = mu + dt / 6 * (k1m + 2 * k2m + 2 * k3m + k4m)
            cov = cov + dt / 6 * (k1c + 2 * k2c + 2 * k3c + k4c)
            covs[k + 1] = (cov + cov.T) / 2
            start = end

    # A non-finite entry stays non-finite in every later step, so the last
    # row tells whether any step overflowed.
    if not (np.all(np.isfinite(means[-1])) and np.all(np.isfinite(covs[-1]))):
        k = int(np.argmax(~np.isfinite(means).all(axis=1) | ~np.isfinite(covs).all(axis=(1, 2))))
        raise DivergenceError(f"moment oracle diverged at step {k}, t={times[k]:g}", step=k,
                              t=float(times[k]),
                              max_abs=float(np.max(np.abs(np.append(means[k], covs[k])))))
    return MomentPath(times, means, covs)


def stationary_covariance(model: SDEModel) -> np.ndarray:
    """Solve the Lyapunov equation A S + S A^T + C C^T = 0 (stable A only)."""
    from scipy.linalg import solve_lyapunov

    return solve_lyapunov(model.A0, -model.C0 @ model.C0.T)
