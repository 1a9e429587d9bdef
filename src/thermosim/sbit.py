"""Continuous-time Markov chain sampling for single and coupled s-bits.

States live in {0,1}^N.  Each allowed transition carries its own
time-dependent rate schedule; event times are sampled by thinning against a
per-segment rate bound (Lewis/Ogata), with competing clocks for coupled
systems.  Small systems (N <= 12) also get an exact oracle for the
transient distribution: p is advanced over each constant-rate segment by
uniformization, a Poisson-weighted sum of powers of a stochastic matrix
applied to p one sparse product at a time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core_sde import trajectory_rng, write_csv
from .errors import ContractViolationError

MAX_DENSE_BITS = 12


@dataclass(frozen=True)
class _Segment:
    t_start: float
    t_end: float
    kind: str  # "const" | "linear"
    v0: float
    v1: float

    def value(self, t: float) -> float:
        if self.kind == "const":
            return self.v0
        w = (t - self.t_start) / (self.t_end - self.t_start)
        return (1 - w) * self.v0 + w * self.v1

    @property
    def bound(self) -> float:
        return max(self.v0, self.v1)


class RateSchedule:
    """Finite, nonnegative rate function given piecewise (constant or linear)."""

    def __init__(self, segments):
        segments = list(segments)
        if not segments:
            raise ContractViolationError("rate schedule needs at least one segment")
        for seg in segments:
            if not (np.isfinite(seg.t_start) and seg.t_end > seg.t_start):
                raise ContractViolationError("rate segment needs a finite t_start < t_end")
            if not (0 <= seg.v0 < np.inf and 0 <= seg.v1 < np.inf):
                raise ContractViolationError("rates must be finite and nonnegative")
        for prev, cur in zip(segments, segments[1:]):
            if abs(prev.t_end - cur.t_start) > 1e-12:
                raise ContractViolationError("rate segments must be contiguous")
        self.segments = segments
        self.t0 = segments[0].t_start
        self.tf = segments[-1].t_end
        self._starts = [s.t_start for s in segments]

    @classmethod
    def constant(cls, rate, t0=0.0, tf=np.inf):
        return cls([_Segment(t0, tf, "const", float(rate), float(rate))])

    @classmethod
    def piecewise_constant(cls, times, values):
        if len(times) != len(values) + 1:
            raise ContractViolationError("need len(times) == len(values) + 1")
        return cls([_Segment(a, b, "const", float(v), float(v))
                    for a, b, v in zip(times, times[1:], values)])

    @classmethod
    def piecewise_linear(cls, times, values):
        if len(times) != len(values):
            raise ContractViolationError("need one value per breakpoint")
        return cls([_Segment(a, b, "linear", float(u), float(v))
                    for a, b, u, v in zip(times, times[1:], values, values[1:])])

    def _segment_index(self, t: float) -> int:
        j = bisect_right(self._starts, t) - 1
        return max(j, 0)

    def value(self, t: float) -> float:
        if t < self.t0 - 1e-12 or t > self.tf + 1e-12:
            raise ContractViolationError(f"t={t:g} outside schedule domain")
        return self.segments[self._segment_index(min(t, self.tf))].value(t)

    @property
    def is_piecewise_constant(self) -> bool:
        return all(s.kind == "const" for s in self.segments)

    def breakpoints(self, t_max: float):
        pts = {0.0, t_max}
        for s in self.segments:
            if 0.0 < s.t_start < t_max:
                pts.add(s.t_start)
        return pts

    def first_event(self, t: float, horizon: float, rng: np.random.Generator):
        """First inhomogeneous-Poisson event after t, or None before horizon.

        Thinning against the piecewise bound: each proposal consumes one
        unit-exponential that is inverted through the integrated bound (so it
        carries across segment boundaries), then one uniform for the accept
        test at rate lambda(t)/bound(t).  Because the clock never resets at
        a boundary, splitting a constant segment without changing its value
        leaves the sampled path bitwise unchanged.
        """
        if horizon > self.tf + 1e-12:
            raise ContractViolationError("schedule domain shorter than horizon")
        while t < horizon:
            budget = rng.exponential(1.0)
            j = self._segment_index(t)
            while True:
                seg = self.segments[j]
                seg_end = min(seg.t_end, horizon)
                bound = seg.bound
                capacity = bound * (seg_end - t)
                if budget <= capacity:
                    t = t + budget / bound
                    break
                budget -= capacity
                t = seg_end
                j += 1
                if t >= horizon:
                    return None
            if rng.uniform() * bound <= seg.value(t):
                return t
        return None


@dataclass(frozen=True)
class Transition:
    """Guarded jump: fires from states where enabled(x) holds.

    flip = (bit, value) marks a single-bit flip out of x[bit] == value, so
    the exact oracle can find its states with bit operations; enabled and
    successor must then describe that same flip."""

    enabled: object  # callable state tuple -> bool
    successor: object  # callable state tuple -> state tuple
    schedule: RateSchedule
    label: str = ""
    flip: tuple | None = None


class SBitSystem:
    """N s-bits with an explicit transition set (default: single-bit flips)."""

    def __init__(self, n_bits: int, transitions):
        self.n_bits = int(n_bits)
        self.transitions = list(transitions)
        if self.n_bits < 1:
            raise ContractViolationError("need at least one s-bit")

    @classmethod
    def single_flip(cls, up_schedules, down_schedules):
        """Per-bit flip rates: up = 0->1 schedule, down = 1->0 schedule."""
        if len(up_schedules) != len(down_schedules):
            raise ContractViolationError("need matching up/down schedule lists")
        n = len(up_schedules)
        transitions = []
        for i in range(n):
            def flip(x, i=i):
                y = list(x)
                y[i] ^= 1
                return tuple(y)

            transitions.append(Transition(
                lambda x, i=i: x[i] == 0, flip, up_schedules[i], f"bit{i}_up", (i, 0)))
            transitions.append(Transition(
                lambda x, i=i: x[i] == 1, flip, down_schedules[i], f"bit{i}_down", (i, 1)))
        return cls(n, transitions)


@dataclass
class SBitTrajectory:
    """Initial state plus ordered (jump time, new state) records."""

    x0: tuple
    jumps: list  # list of (t, state tuple)

    def __post_init__(self):
        ts = [t for t, _ in self.jumps]
        self._times = ts
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ContractViolationError("jump times must be strictly increasing")
        prev = self.x0
        for _, x in self.jumps:
            if x == prev:
                raise ContractViolationError("consecutive states must differ")
            prev = x

    def state_at(self, t: float) -> tuple:
        """State at time t; at a jump time t_j the state is already x_j."""
        j = bisect_right(self._times, t)
        return self.jumps[j - 1][1] if j else self.x0

    def flip_times(self):
        return np.array([t for t, _ in self.jumps])

    def to_csv(self, path):
        write_csv(path, [[float(t), "".join(map(str, x))]
                         for t, x in [(0.0, self.x0)] + self.jumps], ["t", "state_bits"])


def sample_coupled_trajectory(system: SBitSystem, x0, T: float, seed: int) -> SBitTrajectory:
    """Competing-clocks sampler: at each state, one thinned clock per enabled
    transition; the minimum firing time wins (ties by lowest index); clocks
    are resampled after every jump."""
    if not np.isfinite(T) or T <= 0:
        raise ContractViolationError("finite positive horizon T required")
    x = tuple(int(b) for b in x0)
    if len(x) != system.n_bits or any(b not in (0, 1) for b in x):
        raise ContractViolationError("x0 must be a {0,1}^N state")
    rng = trajectory_rng(seed, 0)
    t = 0.0
    jumps = []
    while True:
        best = None
        for idx, trans in enumerate(system.transitions):
            if not trans.enabled(x):
                continue
            te = trans.schedule.first_event(t, T, rng)
            if te is not None and (best is None or te < best[0]):
                best = (te, idx)
        if best is None:
            break
        t, idx = best
        x = system.transitions[idx].successor(x)
        jumps.append((t, x))
    return SBitTrajectory(tuple(int(b) for b in x0), jumps)


def sample_sbit_trajectory(lambda0: RateSchedule, lambda1: RateSchedule, x0: int,
                           T: float, seed: int) -> SBitTrajectory:
    """Single s-bit: flip out of state 0 at rate lambda0(t), out of 1 at
    lambda1(t).  Implemented as the one-bit coupled system, so it shares the
    coupled sampler's seed protocol exactly."""
    system = SBitSystem.single_flip([lambda0], [lambda1])
    return sample_coupled_trajectory(system, (int(x0),), T, seed)


def state_index(x) -> int:
    """Bit tuple -> integer index, bit 0 least significant."""
    return sum(int(b) << i for i, b in enumerate(x))


def index_state(idx: int, n_bits: int) -> tuple:
    return tuple((idx >> i) & 1 for i in range(n_bits))


def _jump_pattern(system: SBitSystem):
    """(rows, cols, which) of every enabled jump, ordered by state and then
    by transition index: which[j] is the transition taking rows[j] to
    cols[j].  A (state, transition) table holds the enabled flags and the
    successors; marked single-bit flips fill their column by bit operations
    over all states, any other transition state by state."""
    n = system.n_bits
    states = np.arange(1 << n)
    shape = (states.size, len(system.transitions))
    enabled = np.zeros(shape, dtype=bool)
    successor = np.zeros(shape, dtype=int)
    for k, trans in enumerate(system.transitions):
        if trans.flip is not None:
            bit, value = trans.flip
            enabled[:, k] = ((states >> bit) & 1) == value
            successor[:, k] = states ^ (1 << bit)
            continue
        for i in range(states.size):
            x = index_state(i, n)
            if trans.enabled(x):
                enabled[i, k] = True
                successor[i, k] = state_index(trans.successor(x))
    rows, which = np.nonzero(enabled)
    return rows, successor[rows, which], which


def _generators(system: SBitSystem, times):
    """The 2^N x 2^N generator at each of `times`, as `(rows, cols, rates,
    exits)`: rates[j] is the rows[j] -> cols[j] rate and exits[i] the total
    rate out of state i, so G = sum of the jumps minus diag(exits).  The jump
    pattern is built once, on the first generator; each time only
    re-evaluates the rates."""
    rows, cols, which = _jump_pattern(system)
    size = 1 << system.n_bits
    for t in times:
        rates = np.array([trans.schedule.value(t) for trans in system.transitions])[which]
        yield rows, cols, rates, np.bincount(rows, weights=rates, minlength=size)


def dense_generator(system: SBitSystem, t: float) -> np.ndarray:
    """Dense 2^N x 2^N generator at time t: rows sum to zero."""
    n = system.n_bits
    if n > MAX_DENSE_BITS:
        raise ContractViolationError(
            f"dense generator refused for N={n}: 2^{n} states blow up")
    rows, cols, rates, exits = next(_generators(system, [t]))
    G = np.zeros((exits.size, exits.size))
    np.add.at(G, (rows, cols), rates)
    G[np.diag_indices_from(G)] -= exits
    return G


def _uniformized(p, rows, cols, rates, exits, s):
    """p exp(G s) by uniformization (Jensen 1953).

    With lam = max exit rate, P = I + G/lam is stochastic and
    p exp(G s) = sum_k Pois(k; lam s) p P^k.  The horizon is split into
    pieces with lam*tau <= 1, so every Poisson weight is well scaled; each
    piece sums the series until the weight falls below 1e-18.  All terms
    are nonnegative, so nothing cancels, and each p P is one bincount."""
    lam = exits.max()
    if lam <= 0.0:
        return p
    pieces = max(1, int(np.ceil(lam * s)))
    q = s / pieces * lam
    weights = [np.exp(-q)]
    while weights[-1] * q / len(weights) >= 1e-18:
        weights.append(weights[-1] * q / len(weights))
    stay = 1.0 - exits / lam
    jump = rates / lam
    for _ in range(pieces):
        term = p
        p = weights[0] * term
        for w in weights[1:]:
            term = stay * term + np.bincount(cols, weights=jump * term[rows],
                                             minlength=term.size)
            p += w * term
    return p


def transient_distribution(system: SBitSystem, p0, t: float) -> np.ndarray:
    """Exact p(t) = p0 exp(G s) piecewise; rates must be piecewise-constant.

    Each constant-rate segment advances p by uniformization on the sparse
    jump list, so no 2^N x 2^N matrix is formed.  The cost grows with the
    largest exit rate times the segment length."""
    n = system.n_bits
    if n > MAX_DENSE_BITS:
        raise ContractViolationError(
            f"transient oracle refused for N={n}: 2^{n} states blow up")
    p0 = np.asarray(p0, dtype=float).reshape(-1)
    if p0.shape != (1 << n,) or np.any(p0 < -1e-12) or abs(p0.sum() - 1) > 1e-9:
        raise ContractViolationError("p0 must be a probability distribution over 2^N states")
    for trans in system.transitions:
        if not trans.schedule.is_piecewise_constant:
            raise ContractViolationError("oracle requires piecewise-constant rates")
    pts = {0.0, t}
    for trans in system.transitions:
        pts |= trans.schedule.breakpoints(t)
    pts = sorted(pts)
    p = p0
    mids = [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    for a, b, gen in zip(pts, pts[1:], _generators(system, mids)):
        p = _uniformized(p, *gen, b - a)
    p = np.clip(p, 0.0, None)
    if abs(p.sum() - 1) > 1e-9:
        raise ContractViolationError("transient distribution failed to normalize")
    return p / p.sum()
