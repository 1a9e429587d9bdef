"""Gate schedules turning base coefficients into time-dependent ones.

A schedule is a contiguous sequence of segments over [t0, tf).  Generator
segments evaluate to exp(K (t - t_start)) and compose multiplicatively onto
the product of all completed earlier segments, so the schedule is continuous
at boundaries.  Function segments evaluate a user-supplied diagonal entry
directly (the single s-mode gates).

Operators are stored in structured form (scalar multiple of identity,
diagonal, or dense) with dense as the fallback; superoperators act on
row-major vectorized matrices.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import ContractViolationError

SUPER_TARGETS = ("drift_super", "diffusion_super", "demon_coupling_super")
TARGETS = SUPER_TARGETS + ("drift_vec",)


class LinOp:
    """Linear operator in scalar / diagonal / dense form."""

    def __init__(self, form, payload, size=None):
        self.form = form
        if form == "scalar":
            self.payload = float(payload)
            self.size = size
        elif form == "diagonal":
            self.payload = np.asarray(payload, dtype=float).reshape(-1)
            self.size = self.payload.size
        elif form == "dense":
            self.payload = np.atleast_2d(np.asarray(payload, dtype=float))
            self.size = self.payload.shape[0]
        else:
            raise ContractViolationError(f"unknown operator form {form!r}")

    @classmethod
    def identity(cls, size=None):
        return cls("scalar", 1.0, size)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if self.form == "scalar":
            return self.payload * x
        if self.form == "diagonal":
            return self.payload * x
        return self.payload @ x

    def compose(self, other: "LinOp") -> "LinOp":
        """self after other (matrix product self @ other)."""
        if self.form == "scalar" and other.form == "scalar":
            return LinOp("scalar", self.payload * other.payload, self.size or other.size)
        if self.form in ("scalar", "diagonal") and other.form in ("scalar", "diagonal"):
            size = self.size if self.form == "diagonal" else other.size
            a = self.payload if self.form == "diagonal" else np.full(size, self.payload)
            b = other.payload if other.form == "diagonal" else np.full(size, other.payload)
            return LinOp("diagonal", a * b)
        n = self.size or other.size
        return LinOp("dense", self.matrix(n) @ other.matrix(n))

    def matrix(self, size=None) -> np.ndarray:
        n = self.size or size
        if n is None:
            raise ContractViolationError("operator size unknown; pass size explicitly")
        if self.form == "scalar":
            return self.payload * np.eye(n)
        if self.form == "diagonal":
            return np.diag(self.payload)
        return self.payload


@dataclass(frozen=True)
class Generator:
    """Gate generator K for one target; segments evaluate to exp(K dt).

    The generator convention is real: for superoperator targets K is the
    (structured) N^2 x N^2 matrix acting on vectorized operators, for
    drift_vec it is N x N.
    """

    target: str
    form: str = "dense"
    payload: object = None

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ContractViolationError(f"unknown target {self.target!r}")
        if self.form == "scalar":
            object.__setattr__(self, "payload", float(self.payload))
        elif self.form == "diagonal":
            p = np.asarray(self.payload, dtype=float).reshape(-1)
            if not np.all(np.isfinite(p)):
                raise ContractViolationError("generator entries must be finite")
            object.__setattr__(self, "payload", p)
        elif self.form == "dense":
            p = np.atleast_2d(np.asarray(self.payload, dtype=float))
            if p.shape[0] != p.shape[1] or not np.all(np.isfinite(p)):
                raise ContractViolationError("dense generator must be finite and square")
            object.__setattr__(self, "payload", p)
        else:
            raise ContractViolationError(f"unknown generator form {self.form!r}")

    @classmethod
    def scalar(cls, target, kappa):
        return cls(target, "scalar", kappa)

    @classmethod
    def diagonal(cls, target, diag):
        return cls(target, "diagonal", diag)

    @classmethod
    def dense(cls, target, K):
        return cls(target, "dense", K)

    def exponential(self, duration: float) -> LinOp:
        if self.form == "scalar":
            return LinOp("scalar", np.exp(self.payload * duration))
        if self.form == "diagonal":
            return LinOp("diagonal", np.exp(self.payload * duration))
        return LinOp("dense", expm(self.payload * duration))


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

    def operator_at(self, t: float) -> LinOp:
        return self.generator.exponential(t - self.t_start)

    def end_operator(self) -> LinOp:
        return self.generator.exponential(self.t_end - self.t_start)


@dataclass(frozen=True)
class FunctionSegment:
    """Diagonal operator with one entry given directly by g(t), rest identity."""

    target: str
    index: int  # position on the operator's diagonal (0-based)
    g: object  # callable t -> float
    size: int
    t_start: float
    t_end: float

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ContractViolationError("segment needs t_start < t_end")
        if not 0 <= self.index < self.size:
            raise ContractViolationError("diagonal index out of range")

    def operator_at(self, t: float) -> LinOp:
        diag = np.ones(self.size)
        diag[self.index] = self.g(t)
        return LinOp("diagonal", diag)

    def end_operator(self) -> LinOp:
        return self.operator_at(self.t_end)


class Schedule:
    """Ordered, contiguous segments for one target over [t0, tf)."""

    def __init__(self, segments, compose=True):
        segments = list(segments)
        if not segments:
            raise ContractViolationError("schedule needs at least one segment")
        targets = {s.target for s in segments}
        if len(targets) != 1:
            raise ContractViolationError("all segments must share one target")
        for prev, cur in zip(segments, segments[1:]):
            if abs(prev.t_end - cur.t_start) > 1e-12:
                raise ContractViolationError("segments must be contiguous and ordered")
        self.segments = segments
        self.target = segments[0].target
        self.compose = compose
        self.t0 = segments[0].t_start
        self.tf = segments[-1].t_end
        self._starts = [s.t_start for s in segments]
        self._prefixes = None

    def _prefix(self, j) -> LinOp:
        # product of end-operators of segments 0..j-1
        if self._prefixes is None:
            acc = LinOp.identity()
            prefixes = [acc]
            for seg in self.segments:
                acc = seg.end_operator().compose(acc)
                prefixes.append(acc)
            self._prefixes = prefixes
        return self._prefixes[j]

    def operator_at(self, t: float) -> LinOp:
        if t < self.t0 - 1e-12 or t > self.tf + 1e-12:
            raise ContractViolationError(f"t={t:g} outside schedule domain [{self.t0:g}, {self.tf:g}]")
        t = min(max(t, self.t0), self.tf)
        j = bisect_right(self._starts, t) - 1
        if j < 0:
            j = 0
        op = self.segments[j].operator_at(t)
        if self.compose:
            op = op.compose(self._prefix(j))
        return op


def evaluate_schedule(schedule: Schedule, t: float, size=None) -> np.ndarray:
    """Dense operator value of the schedule at time t."""
    return schedule.operator_at(t).matrix(size)


def constant_schedule(target, g, t0, tf, size=None):
    """Schedule evaluating to g(t) times the identity on the target space."""

    class _Seg:
        def __init__(self):
            self.target = target
            self.t_start = t0
            self.t_end = tf

        def operator_at(self, t):
            return LinOp("scalar", g(t), size)

        def end_operator(self):
            return self.operator_at(tf)

    return Schedule([_Seg()])


def single_smode_gate(target_index: int, scalar_schedule, which: str, t0: float,
                      tf: float, dim: int) -> Schedule:
    """Gate acting on s-mode `target_index` (1-based) only.

    drift_vec multiplies component j of b0 by g(t); the diagonal_* variants
    multiply the (j, j) diagonal entry of A0 or C0, leaving couplings alone.
    """
    if not 1 <= target_index <= dim:
        raise ContractViolationError(f"target_index {target_index} out of range 1..{dim}")
    j = target_index - 1
    if which == "drift_vec":
        seg = FunctionSegment("drift_vec", j, scalar_schedule, dim, t0, tf)
    elif which == "diagonal_drift_super":
        seg = FunctionSegment("drift_super", j * (dim + 1), scalar_schedule, dim * dim, t0, tf)
    elif which == "diagonal_diffusion_super":
        seg = FunctionSegment("diffusion_super", j * (dim + 1), scalar_schedule, dim * dim, t0, tf)
    else:
        raise ContractViolationError(f"unknown single s-mode gate kind {which!r}")
    return Schedule([seg])


class GateProgram:
    """Bundle of per-target schedules; missing schedules act as identity."""

    def __init__(self, schedule_A=None, schedule_b=None, schedule_C=None, schedule_D=None):
        self.schedule_A = schedule_A
        self.schedule_b = schedule_b
        self.schedule_C = schedule_C
        self.schedule_D = schedule_D
        present = [s for s in (schedule_A, schedule_b, schedule_C, schedule_D) if s is not None]
        domains = {(s.t0, s.tf) for s in present}
        if len(domains) > 1:
            raise ContractViolationError("all schedules must share the same domain")
        self.domain = domains.pop() if domains else None
        expected = {"schedule_A": "drift_super", "schedule_b": "drift_vec",
                    "schedule_C": "diffusion_super", "schedule_D": "demon_coupling_super"}
        for name, sched in (("schedule_A", schedule_A), ("schedule_b", schedule_b),
                            ("schedule_C", schedule_C), ("schedule_D", schedule_D)):
            if sched is not None and sched.target != expected[name]:
                raise ContractViolationError(
                    f"{name} has target {sched.target!r}, expected {expected[name]!r}")

    def coefficients(self, model, t: float):
        """(A(t), b(t), C(t), D(t)) = superoperators applied to the base model."""
        n = model.dim
        A0, b0, C0, D0 = model.A0, model.b0, model.C0, model.D0
        if self.schedule_A is not None:
            op = self.schedule_A.operator_at(t)
            A = op.apply(A0.reshape(-1)).reshape(n, n)
        else:
            A = A0
        if self.schedule_b is not None:
            b = self.schedule_b.operator_at(t).apply(b0)
        else:
            b = b0
        if self.schedule_C is not None:
            op = self.schedule_C.operator_at(t)
            C = op.apply(C0.reshape(-1)).reshape(n, n)
        else:
            C = C0
        if self.schedule_D is not None:
            op = self.schedule_D.operator_at(t)
            D = op.apply(D0.reshape(-1)).reshape(D0.shape)
        else:
            D = D0
        return A, b, C, D


def apply_program(program: GateProgram | None, model, t: float):
    """Programmed coefficients at time t; empty program returns the base ones."""
    if program is None:
        return model.A0, model.b0, model.C0, model.D0
    return program.coefficients(model, t)


def discrete_gate_sequence(target, generators, t0, dwell, compose=True) -> Schedule:
    """Convenience: fixed-duration segments, one per generator."""
    segs = []
    t = t0
    for K in generators:
        segs.append(GateSegment(K, t, t + dwell))
        t += dwell
    return Schedule(segs, compose=compose)


def program_to_json(program: GateProgram, path=None):
    """Serialize generator-based schedules; function segments are rejected.

    `compose` maps each schedule's target to its own compose flag."""
    segments, compose = [], {}
    for sched in (program.schedule_A, program.schedule_b, program.schedule_C,
                  program.schedule_D):
        if sched is None:
            continue
        compose[sched.target] = sched.compose
        for seg in sched.segments:
            if not isinstance(seg, GateSegment):
                raise ContractViolationError("only generator segments serialize to JSON")
            gen = seg.generator
            payload = gen.payload if gen.form == "scalar" else np.asarray(gen.payload).tolist()
            segments.append({"target": gen.target, "t_start": seg.t_start,
                             "t_end": seg.t_end, "form": gen.form, "payload": payload})
    doc = {"segments": segments, "compose": compose}
    if path is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
    return doc


def program_from_json(doc) -> GateProgram:
    """Inverse of `program_to_json`.  `compose` is either a per-target map
    or one flag shared by every schedule; a missing entry means True."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    compose = doc.get("compose", True)
    if not isinstance(compose, dict):
        compose = {seg["target"]: compose for seg in doc["segments"]}
    by_target = {}
    for seg in doc["segments"]:
        gen = Generator(seg["target"], seg["form"], seg["payload"])
        by_target.setdefault(seg["target"], []).append(
            GateSegment(gen, seg["t_start"], seg["t_end"]))
    schedules = {}
    for target, segs in by_target.items():
        segs.sort(key=lambda s: s.t_start)
        schedules[target] = Schedule(segs, compose=compose.get(target, True))
    return GateProgram(
        schedule_A=schedules.get("drift_super"),
        schedule_b=schedules.get("drift_vec"),
        schedule_C=schedules.get("diffusion_super"),
        schedule_D=schedules.get("demon_coupling_super"),
    )
