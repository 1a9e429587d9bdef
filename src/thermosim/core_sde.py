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

# Ensemble noise is drawn per stream in time blocks into one buffer of at most
# NOISE_BLOCK_BYTES, allocated once per call and reused by every chunk, and at
# most NOISE_BLOCK_STEPS rows per stream: longer draws no longer amortize the
# per-call cost, so they would only cost memory.  When the byte budget limits
# the block, each draw call fills NOISE_BLOCK_BYTES / (8 * chunk) values per
# stream: 1 024 at the default chunk of 1 024 streams.  Longer calls are
# cheaper per normal (best of 7 over 1 024 Philox streams on a 2-vCPU x86 VM:
# 23.6 ns at 512 per call, 21.0 at 1 024, 20.5 at 2 048), which pays for
# stepping narrower chunks.  States are stepped in sub-blocks of
# SUB_BLOCK_BYTES, small enough to stay in cache between the noise map and
# the step loop.
NOISE_BLOCK_BYTES = 8 * 2 ** 20
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
    """Write ``doc`` as one line of JSON, refusing NaN and infinities.
    json.dumps runs the C encoder; json.dump always runs the pure-Python
    one.  Both write the same bytes."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, allow_nan=False))


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
    """Mean and covariance of the state at time t, as propagate_moments
    computes them."""

    t: float
    mean: np.ndarray
    cov: np.ndarray


@dataclass
class EnsembleSummary:
    """Per-grid-time empirical moments of an ensemble of trajectories."""

    n_traj: int
    times: np.ndarray
    means: np.ndarray  # (T, N)
    covs: np.ndarray  # (T, N, N), symmetric by construction
    final_states: np.ndarray | None = field(default=None, repr=False)

    def to_json(self, path):
        write_compact_json(path, {"n_traj": self.n_traj, "times": self.times.tolist(),
                                  "mean": self.means.tolist(), "cov": self.covs.tolist()})


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


def _grid(t0, tf, dt):
    if not tf > t0:
        raise ContractViolationError("tf must exceed t0")
    if not 0 < dt <= tf - t0:
        raise ContractViolationError("dt must lie in (0, tf - t0]")
    n_steps = int(round((tf - t0) / dt))
    if abs(n_steps * dt - (tf - t0)) > 1e-9 * max(1.0, abs(tf - t0)):
        raise ContractViolationError("dt does not divide (tf - t0) within rounding")
    return n_steps


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


def _workspace(m, n, n_steps):
    """Buffers for chunks of at most m streams of dimension n, made once and
    viewed by every chunk: the steps per noise block and per state sub-block,
    flat space for the noise block, the sub-block's states and the linear
    drift, then the pool of generators that _chunk_rngs fills and re-keys."""
    block, sub = _block_steps(m, n, n_steps)
    return (block, sub, np.empty(m * block * n), np.empty((sub + 1) * m * n), np.empty(m * n),
            [])


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


def _integrate(props, step_times, dts, demon, initial_sampler, base_seed, start, stop,
               observe, workspace):
    """Step trajectories start..stop-1 over the whole grid, step k from
    step_times[k] by dts[k]; return final states.

    Trajectory i draws its initial state, then its noise, from the stream
    of trajectory_rng(base_seed, i) (a generator of the workspace's pool,
    see _chunk_rngs), one time block at a time into an (m, block, N) view of
    ``workspace``, which _workspace made for at least m streams.  Each block
    is stepped in cache-sized sub-blocks: the noise map, the divergence
    check and ``observe(k, X)`` (X holds the states at grid indices k, k+1,
    ...) run once per sub-block.  With a demon the divergence check runs
    every step, before the demon sees the state, and its output must be
    (m, M).  A constant c (one broadcast map) is added as one tiled row over
    the sub-block viewed as (s, m N): one long inner loop, not m of N.
    """
    M, S, c, E = props
    n_steps, n = len(step_times), M.shape[-1]
    m, ends = stop - start, step_times + dts
    block, sub, noise, Vs, drift, pool = workspace
    rngs = _chunk_rngs(pool, base_seed, start, stop)
    V0 = np.array([initial_sampler(rng) for rng in rngs], dtype=float)
    if V0.shape != (m, n):
        raise ContractViolationError("initial state dimension mismatch")
    observe(0, V0[None])
    state = None
    if demon is not None and not getattr(demon, "stateless", False):
        state = demon.batch(m)
    bias = np.tile(c[0], m) if len(c) and c.strides[0] == 0 else None

    noise = noise[:m * block * n].reshape(m, block, n)
    Vs = Vs[:(sub + 1) * m * n].reshape(sub + 1, m, n)  # Vs[0]: state before the sub-block
    Vs[0] = V0
    rows = Vs.reshape(sub + 1, m * n)  # Vs with each step's states as one row
    drift = drift[:m * n].reshape(m, n)
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
                    _check_diverged(X[j:j + 1], k + j, start, ends)
                    if state is not None:
                        state.advance(t, V, (X[j] - V) / dts[k + j], dts[k + j])
                if demon is None:
                    _check_diverged(X, k, start, ends)
                observe(k + 1, X)
                Vs[0] = Vs[s]
    return Vs[0].copy()


def _path(model, program, demon, V0, step_times, dts, seed):
    """Whole path (m, steps + 1, N) of the trajectories starting at the rows
    of V0 (m, N); row i draws its noise from trajectory_rng(seed, i)."""
    out = np.empty((len(V0), len(step_times) + 1, model.dim))

    def record(k, X):
        out[:, k:k + len(X)] = X.transpose(1, 0, 2)

    rows = iter(V0)
    _integrate(_propagators(model, program, step_times, dts), step_times, dts, demon,
               lambda rng: next(rows), seed, 0, len(V0), record,
               _workspace(len(V0), model.dim, len(step_times)))
    return out


def simulate_trajectory(model: SDEModel, program=None, demon=None, v0=None, t0=0.0,
                        tf=1.0, dt=1e-2, seed=0) -> Trajectory:
    """Sample one path of the (possibly programmed, demon-driven) SDE.

    Deterministic given (seed, dt): the path is member 0 of a one-trajectory
    batch drawing from trajectory_rng(seed, 0), so it equals
    simulate_ensemble(n_traj=1, base_seed=seed) bit for bit.
    """
    n_steps = _grid(t0, tf, dt)
    v0 = _vector(v0, model.dim, "v0")
    step_times, dts = t0 + dt * np.arange(n_steps), np.full(n_steps, dt)
    values = _path(model, program, demon, v0[None], step_times, dts, seed)[0]
    times = t0 + dt * np.arange(n_steps + 1)
    times[-1] = tf
    return Trajectory(times, values)


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
                      chunk_size=1024, keep_final=False) -> EnsembleSummary:
    """Integrate `n_traj` independent trajectories and summarize their moments.

    Trajectory i draws the stream of trajectory_rng(base_seed, i).  The
    first chunk's generators are made through trajectory_rng once per call
    and re-keyed for each later chunk (_chunk_rngs), which draws the same
    numbers; a base seed or index of 2**32 or more takes trajectory_rng per
    stream.  At n_traj=1 member 0 reproduces
    simulate_trajectory(seed=base_seed) bit for bit; in larger batches it
    agrees to rounding, since BLAS may round a row of a batched product
    differently.  Stateless demons are queried on whole
    batches; a stateful demon is stepped through demon.batch(chunk), one
    fresh state per chunk that holds every trajectory's row.

    Trajectories are stepped `chunk_size` (a positive integer) at a time.
    Noise is drawn in time blocks into one buffer of chunk x block x N values,
    at most NOISE_BLOCK_BYTES whatever n_steps is, so that when the byte
    budget sets the block each stream draws NOISE_BLOCK_BYTES / (8 chunk)
    values per call: 1 024 at the default chunk of 1 024.  The noise block
    and the state buffers are allocated once per call, reused by every chunk
    including a partial last one, and freed before the moments are formed.
    """
    for name, value in (("n_traj", n_traj), ("chunk_size", chunk_size)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ContractViolationError(f"{name} must be an integer of at least 1, "
                                         f"got {value!r}")
    n_steps = _grid(t0, tf, dt)
    n = model.dim
    if initial_sampler is None:
        initial_sampler = fixed_initial(np.zeros(n))
    step_times, dts = t0 + dt * np.arange(n_steps), np.full(n_steps, dt)
    props = _propagators(model, program, step_times, dts)
    # Sums run over deviations from a shift, trajectory 0's own state, which
    # chunk 0 records at each grid index before summing there; so moments do
    # not cancel when the mean is large against the spread, whatever chunk_size.
    shift = np.empty((n_steps + 1, n))
    sum_d = np.zeros((n_steps + 1, n))
    sum_dd = np.zeros((n_steps + 1, n, n))
    finals = np.empty((n_traj, n)) if keep_final else None
    width = min(chunk_size, n_traj)
    workspace = _workspace(width, n, n_steps)
    sub = workspace[1]
    work = np.empty(sub * width * n)  # deviations of one sub-block's states

    def accumulate(k, X):
        s, m = X.shape[:2]
        if start == 0:
            shift[k:k + s] = X[:, 0]
        # Deviations as (s, N, m): each component's row is contiguous, so the
        # subtraction runs long inner loops and the sums are plain products.
        D = np.subtract(X.transpose(0, 2, 1), shift[k:k + s, :, None],
                        out=work[:X.size].reshape(s, n, m))
        sum_d[k:k + s] += np.matmul(D, np.ones(m))
        sum_dd[k:k + s] += np.matmul(D, D.transpose(0, 2, 1))

    for start in range(0, n_traj, chunk_size):
        stop = min(start + chunk_size, n_traj)
        V = _integrate(props, step_times, dts, demon, initial_sampler, base_seed,
                       start, stop, accumulate, workspace)
        if keep_final:
            finals[start:stop] = V
    # The moment arithmetic below makes (n_steps, N, N) temporaries; without
    # the buffers alive beside them the peak does not grow with n_steps.
    del workspace, work

    times = t0 + dt * np.arange(n_steps + 1)
    times[-1] = tf
    d = sum_d / n_traj
    means = shift + d
    if n_traj > 1:
        covs = (sum_dd - n_traj * np.einsum("ti,tj->tij", d, d)) / (n_traj - 1)
        covs = (covs + np.transpose(covs, (0, 2, 1))) / 2
    else:
        covs = np.zeros((n_steps + 1, n, n))
    return EnsembleSummary(n_traj, times, means, covs, final_states=finals)


def propagate_moments(model: SDEModel, program=None, mu0=None, cov0=None,
                      t0=0.0, tf=1.0, dt=1e-2) -> list[GaussianMoments]:
    """Integrate the exact Gaussian moment ODEs with classical RK4.

    mu' = A mu + b,  Sigma' = A Sigma + Sigma A^T + C C^T.  Fourth-order in
    dt, so this serves as an oracle strictly more accurate than the sampler
    on the same grid.  Demon terms are not modeled (linear models only).

    mu0 and cov0 are checked once; each step's moments are new arrays the
    loop itself has symmetrised, so they are returned without a second
    check.  Without a program C C^T is formed once.  Moments that overflow
    raise DivergenceError naming the first step and time whose mean or
    covariance is non-finite.
    """
    n_steps = _grid(t0, tf, dt)
    n = model.dim
    mu = _vector(mu0, n, "mu0").copy()
    cov = _spd(np.zeros((n, n)) if cov0 is None else cov0, n, "cov0", psd=True)[0].copy()

    def coefficients(t):
        A, b, C, _ = model.coefficients(t) if program is None else program.coefficients(model, t)
        return A, b, C @ C.T

    if program is None:
        fixed = coefficients(t0)
        coefficients = lambda t: fixed  # noqa: E731

    def rhs(A, b, Q, mu, cov):
        return A @ mu + b, A @ cov + cov @ A.T + Q

    # Coefficients are evaluated once per distinct time: k2 and k3 share the
    # midpoint, and k4's t + dt is the next step's start.
    out = [GaussianMoments(t0, mu, cov)]
    t, start = t0, coefficients(t0)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            mid, end = coefficients(t + dt / 2), coefficients(t + dt)
            k1m, k1c = rhs(*start, mu, cov)
            k2m, k2c = rhs(*mid, mu + dt / 2 * k1m, cov + dt / 2 * k1c)
            k3m, k3c = rhs(*mid, mu + dt / 2 * k2m, cov + dt / 2 * k2c)
            k4m, k4c = rhs(*end, mu + dt * k3m, cov + dt * k3c)
            mu = mu + dt / 6 * (k1m + 2 * k2m + 2 * k3m + k4m)
            cov = cov + dt / 6 * (k1c + 2 * k2c + 2 * k3c + k4c)
            cov = (cov + cov.T) / 2
            t, start = t + dt, end
            out.append(GaussianMoments(t, mu, cov))
    def finite(g):
        return np.all(np.isfinite(g.mean)) and np.all(np.isfinite(g.cov))

    # A non-finite entry stays non-finite in every later step, so the last
    # step tells whether any step overflowed.
    if not finite(out[-1]):
        k = next(k for k, g in enumerate(out) if not finite(g))
        raise DivergenceError(f"moment oracle diverged at step {k}, t={out[k].t:g}", step=k,
                              t=float(out[k].t),
                              max_abs=float(np.max(np.abs(np.append(out[k].mean, out[k].cov)))))
    return out


def stationary_covariance(model: SDEModel) -> np.ndarray:
    """Solve the Lyapunov equation A S + S A^T + C C^T = 0 (stable A only)."""
    from scipy.linalg import solve_lyapunov

    return solve_lyapunov(model.A0, -model.C0 @ model.C0.T)
