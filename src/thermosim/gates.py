"""Gate schedules turning base coefficients into time-dependent ones.

A schedule is a contiguous sequence of segments over [t0, tf).  Generator
segments evaluate to exp(K (t - t_start)) and compose multiplicatively onto
the product of all completed earlier segments, so the schedule is continuous
at boundaries.  Function segments evaluate a user-supplied diagonal entry
directly (the single s-mode gates), or a multiple g(t) of the identity.

An operator is a float ndarray whose rank is its form: rank 0 is a multiple
of the identity (of any size), rank 1 a diagonal and rank 2 a dense matrix.
Products keep the smallest form that holds them.  Superoperators act on
row-major vectorized matrices.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

SUPER_TARGETS = ("drift_super", "diffusion_super", "demon_coupling_super")
TARGETS = SUPER_TARGETS + ("drift_vec",)
# GateProgram field and its schedule's target, in the order of the bases A0, b0, C0, D0.
_FIELDS = (("schedule_A", "drift_super"), ("schedule_b", "drift_vec"),
           ("schedule_C", "diffusion_super"), ("schedule_D", "demon_coupling_super"))
_RANKS = {"scalar": 0, "diagonal": 1, "dense": 2}
_scipy_expm = None


def expm(A):
    """Matrix exponential by scipy.linalg.expm, imported on the first dense
    exponential so that importing thermosim does not load scipy."""
    global _scipy_expm
    if _scipy_expm is None:
        from scipy.linalg import expm as _scipy_expm
    return _scipy_expm(A)


def _matrix(op, size=None) -> np.ndarray:
    """Dense form of an operator; a multiple of the identity needs its size."""
    if op.ndim == 2:
        return op
    if op.ndim == 1:
        return np.diag(op)
    if size is None:
        raise ContractViolationError("operator size unknown; pass size explicitly")
    return op * np.eye(size)


def _compose(a, b):
    """a after b (the matrix product a @ b)."""
    if a.ndim < 2 and b.ndim < 2:
        return a * b
    n = (a.shape or b.shape)[0]
    return _matrix(a, n) @ _matrix(b, n)


@dataclass(frozen=True)
class Generator:
    """Gate generator K for one target; segments evaluate to exp(K dt).

    The generator convention is real: for superoperator targets K is the
    N^2 x N^2 matrix acting on vectorized operators (N*M for the demon
    coupling), for drift_vec it is N x N.  The payload is kept as a finite
    operator array of its form's rank.
    """

    target: str
    form: str = "dense"
    payload: object = None

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ContractViolationError(f"unknown target {self.target!r}")
        if self.form not in _RANKS:
            raise ContractViolationError(f"unknown generator form {self.form!r}")
        p = np.array(self.payload, dtype=float)
        if p.ndim != _RANKS[self.form] or len(set(p.shape)) > 1 or not np.all(np.isfinite(p)):
            kind = ("number", "vector", "square matrix")[_RANKS[self.form]]
            raise ContractViolationError(
                f"{self.target} {self.form} generator must be a finite {kind}")
        object.__setattr__(self, "payload", p)

    @classmethod
    def scalar(cls, target, kappa):
        return cls(target, "scalar", kappa)

    @classmethod
    def diagonal(cls, target, diag):
        return cls(target, "diagonal", diag)

    @classmethod
    def dense(cls, target, K):
        return cls(target, "dense", K)

    def exponential(self, duration: float) -> np.ndarray:
        if self.payload.ndim == 2:
            return expm(self.payload * duration)
        return np.exp(self.payload * duration)


@dataclass(frozen=True)
class GateSegment:
    generator: Generator
    t_start: float
    t_end: float

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ContractViolationError("segment needs t_start < t_end")

    @property
    def target(self):
        return self.generator.target

    def operator_at(self, t: float) -> np.ndarray:
        return self.generator.exponential(t - self.t_start)


@dataclass(frozen=True)
class FunctionSegment:
    """Diagonal operator with one entry given directly by g(t), rest identity;
    with index None, g(t) times the identity of any size."""

    target: str
    index: int | None  # position on the operator's diagonal (0-based)
    g: object  # callable t -> float
    size: int | None
    t_start: float
    t_end: float

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ContractViolationError("segment needs t_start < t_end")
        if self.index is not None and not 0 <= self.index < self.size:
            raise ContractViolationError("diagonal index out of range")

    def operator_at(self, t: float) -> np.ndarray:
        if self.index is None:
            return np.array(float(self.g(t)))
        diag = np.ones(self.size)
        diag[self.index] = self.g(t)
        return diag


class Schedule:
    """Ordered, contiguous segments for one target over [t0, tf)."""

    def __init__(self, segments, compose=True):
        segments = list(segments)
        if not segments:
            raise ContractViolationError("schedule needs at least one segment")
        if len({s.target for s in segments}) != 1:
            raise ContractViolationError("all segments must share one target")
        for prev, cur in zip(segments, segments[1:]):
            if abs(prev.t_end - cur.t_start) > 1e-12:
                raise ContractViolationError("segments must be contiguous and ordered")
        sizes = {s.size if isinstance(s, FunctionSegment) else
                 (s.generator.payload.shape or (None,))[0] for s in segments} - {None}
        if len(sizes) > 1:
            raise ContractViolationError(
                f"{segments[0].target} segments have operator sizes {sorted(sizes)}")
        self.segments = segments
        self.target = segments[0].target
        self.compose = compose
        self.t0 = segments[0].t_start
        self.tf = segments[-1].t_end
        self._starts = [s.t_start for s in segments]
        self._prefixes = None

    def _prefix(self, j) -> np.ndarray:
        # product of end operators of segments 0..j-1, for j below the segment count
        if self._prefixes is None:
            acc = np.array(1.0)
            prefixes = [acc]
            for seg in self.segments[:-1]:
                acc = _compose(seg.operator_at(seg.t_end), acc)
                prefixes.append(acc)
            self._prefixes = prefixes
        return self._prefixes[j]

    def operator_at(self, t: float) -> np.ndarray:
        if t < self.t0 - 1e-12 or t > self.tf + 1e-12:
            raise ContractViolationError(f"t={t:g} outside schedule domain [{self.t0:g}, {self.tf:g}]")
        t = min(max(t, self.t0), self.tf)
        j = max(bisect_right(self._starts, t) - 1, 0)
        op = self.segments[j].operator_at(t)
        if self.compose:
            op = _compose(op, self._prefix(j))
        return op


def evaluate_schedule(schedule: Schedule, t: float, size=None) -> np.ndarray:
    """Dense operator value of the schedule at time t."""
    return _matrix(schedule.operator_at(t), size)


def constant_schedule(target, g, t0, tf):
    """Schedule evaluating to g(t) times the identity on the target space."""
    return Schedule([FunctionSegment(target, None, g, None, t0, tf)])


def single_smode_gate(target_index: int, scalar_schedule, which: str, t0: float,
                      tf: float, dim: int) -> Schedule:
    """Gate acting on s-mode `target_index` (1-based) only.

    drift_vec multiplies component j of b0 by g(t); the diagonal_* variants
    multiply the (j, j) diagonal entry of A0 or C0, leaving couplings alone.
    """
    if not 1 <= target_index <= dim:
        raise ContractViolationError(f"target_index {target_index} out of range 1..{dim}")
    j = target_index - 1
    kinds = {"drift_vec": ("drift_vec", j, dim),
             "diagonal_drift_super": ("drift_super", j * (dim + 1), dim * dim),
             "diagonal_diffusion_super": ("diffusion_super", j * (dim + 1), dim * dim)}
    if which not in kinds:
        raise ContractViolationError(f"unknown single s-mode gate kind {which!r}")
    target, index, size = kinds[which]
    return Schedule([FunctionSegment(target, index, scalar_schedule, size, t0, tf)])


class GateProgram:
    """Bundle of per-target schedules; missing schedules act as identity."""

    # read-only views, so the tuple is the one copy that coefficients reads
    schedule_A, schedule_b, schedule_C, schedule_D = (
        property(lambda self, k=k: self._schedules[k]) for k in range(4))

    def __init__(self, schedule_A=None, schedule_b=None, schedule_C=None, schedule_D=None):
        self._schedules = (schedule_A, schedule_b, schedule_C, schedule_D)
        for (name, target), sched in zip(_FIELDS, self._schedules):
            if sched is not None and sched.target != target:
                raise ContractViolationError(
                    f"{name} has target {sched.target!r}, expected {target!r}")
        domains = {(s.t0, s.tf) for s in self._schedules if s is not None}
        if len(domains) > 1:
            raise ContractViolationError("all schedules must share the same domain")
        self.domain = domains.pop() if domains else None

    def coefficients(self, model, t: float):
        """(A(t), b(t), C(t), D(t)) = superoperators applied to the base model."""
        out = []
        for sched, base in zip(self._schedules, (model.A0, model.b0, model.C0, model.D0)):
            if sched is None:
                out.append(base)
                continue
            op = sched.operator_at(t)
            if op.ndim and op.shape[0] != base.size:
                raise ContractViolationError(f"{sched.target} operator has size "
                                             f"{op.shape[0]}; the model needs {base.size}")
            v = base.reshape(-1)
            out.append((op @ v if op.ndim == 2 else op * v).reshape(base.shape))
        return tuple(out)


def discrete_gate_sequence(target, generators, t0, dwell, compose=True) -> Schedule:
    """Convenience: fixed-duration segments, one per generator."""
    segs, t = [], t0
    for K in generators:
        segs.append(GateSegment(K, t, t + dwell))
        t += dwell
    return Schedule(segs, compose=compose)


def program_to_json(program: GateProgram, path=None):
    """Serialize generator-based schedules; function segments are rejected.

    `compose` maps each schedule's target to its own compose flag."""
    segments, compose = [], {}
    for sched in filter(None, program._schedules):
        compose[sched.target] = sched.compose
        for seg in sched.segments:
            if not isinstance(seg, GateSegment):
                raise ContractViolationError("only generator segments serialize to JSON")
            gen = seg.generator
            segments.append({"target": gen.target, "t_start": seg.t_start, "t_end": seg.t_end,
                             "form": gen.form, "payload": gen.payload.tolist()})
    doc = {"segments": segments, "compose": compose}
    if path is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
    return doc


def program_from_json(doc) -> GateProgram:
    """Inverse of `program_to_json`.  `compose` is either a per-target map
    of bools or one bool shared by every schedule; a missing entry means True."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ContractViolationError("program must be a JSON object")
    compose = doc.get("compose", True)
    if not isinstance(compose, dict):
        compose = {seg["target"]: compose for seg in doc["segments"]}
    if not (set(compose) <= set(TARGETS)
            and all(isinstance(flag, bool) for flag in compose.values())):
        raise ContractViolationError("program compose must be a bool or a map of target to bool")
    by_target = {}
    for seg in doc["segments"]:
        by_target.setdefault(seg["target"], []).append(GateSegment(
            Generator(seg["target"], seg["form"], seg["payload"]), seg["t_start"], seg["t_end"]))
    schedules = {}
    for target, segs in by_target.items():
        segs.sort(key=lambda s: s.t_start)
        schedules[target] = Schedule(segs, compose=compose.get(target, True))
    return GateProgram(**{name: schedules.get(target) for name, target in _FIELDS})
