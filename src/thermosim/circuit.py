"""Compile noisy-RC netlists into linear SDE coefficients.

A cell is a noisy resistor (Johnson-Nyquist source) with terminal capacitor;
cells couple either resistively or capacitively.  The white-noise term
<dv dv'> = 2 kB T R delta(t - t') is normalized to a standard Wiener
diffusion coefficient, so a compiled single cell reproduces the equipartition
stationary variance kB T / C.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .core_sde import SDEModel
from .errors import ContractViolationError

BOLTZMANN_K = 1.380649e-23  # J/K
ELECTRON_CHARGE = 1.602176634e-19  # C


@dataclass(frozen=True)
class NoiseSourceSpec:
    """Thermal (R, T, bandwidth) or shot (I, bandwidth) noise source."""

    kind: str
    R: float = 0.0
    T: float = 0.0
    I: float = 0.0
    bandwidth: float = 0.0

    def __post_init__(self):
        if self.kind not in ("thermal", "shot"):
            raise ContractViolationError(f"unknown noise kind {self.kind!r}")
        if self.R < 0 or self.T < 0 or self.bandwidth < 0:
            raise ContractViolationError("physical quantities must be nonnegative")

    def amplitude(self) -> float:
        if self.kind == "thermal":
            return thermal_noise_amplitude(self.R, self.T, self.bandwidth)
        return shot_noise_amplitude(self.I, self.bandwidth)


def thermal_noise_amplitude(R: float, T: float, bandwidth: float) -> float:
    """Johnson-Nyquist voltage std: sqrt(4 kB T R df), volts."""
    if R < 0 or T < 0 or bandwidth < 0:
        raise ContractViolationError("R, T, and bandwidth must be nonnegative")
    return float(np.sqrt(4.0 * BOLTZMANN_K * T * R * bandwidth))


def shot_noise_amplitude(I: float, bandwidth: float) -> float:
    """Shot-noise current std: sqrt(2 q |I| df), amperes."""
    if bandwidth < 0:
        raise ContractViolationError("bandwidth must be nonnegative")
    return float(np.sqrt(2.0 * ELECTRON_CHARGE * abs(I) * bandwidth))


@dataclass(frozen=True)
class Cell:
    R: float
    C: float
    T: float

    def __post_init__(self):
        if self.R <= 0 or self.C <= 0:
            raise ContractViolationError("cell R and C must be positive")
        if self.T < 0:
            raise ContractViolationError("temperature must be nonnegative")


@dataclass(frozen=True)
class Coupling:
    i: int
    j: int
    kind: str  # "resistive" | "capacitive"
    value: float
    switch: bool = True

    def __post_init__(self):
        if self.i == self.j:
            raise ContractViolationError("coupling endpoints must be distinct")
        if self.kind not in ("resistive", "capacitive"):
            raise ContractViolationError(f"unknown coupling kind {self.kind!r}")
        if self.value <= 0:
            raise ContractViolationError("coupling value must be positive")


@dataclass(frozen=True)
class RCNetlist:
    cells: tuple
    couplings: tuple = ()

    def __post_init__(self):
        cells = tuple(self.cells)
        couplings = tuple(self.couplings)
        n = len(cells)
        if n == 0:
            raise ContractViolationError("netlist needs at least one cell")
        kinds = {c.kind for c in couplings}
        if len(kinds) > 1:
            raise ContractViolationError(
                "mixed resistive and capacitive couplings are not supported")
        for c in couplings:
            if not (0 <= c.i < n and 0 <= c.j < n):
                raise ContractViolationError("coupling endpoint out of range")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "couplings", couplings)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @classmethod
    def from_json(cls, doc):
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        cells = tuple(Cell(c["R"], c["C"], c["T"]) for c in doc["cells"])
        couplings = tuple(
            Coupling(c["i"], c["j"], c["kind"], c["value"], c.get("switch", True))
            for c in doc.get("couplings", ()))
        return cls(cells, couplings)

    def to_json(self):
        return {
            "cells": [{"R": c.R, "C": c.C, "T": c.T} for c in self.cells],
            "couplings": [{"i": c.i, "j": c.j, "kind": c.kind,
                           "value": c.value, "switch": c.switch}
                          for c in self.couplings],
        }


@dataclass(frozen=True)
class AdjacencyMatrix:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise ContractViolationError("adjacency matrix must be square")
        if np.any(np.diag(m) != 0):
            raise ContractViolationError("adjacency diagonal must be zero")
        if np.max(np.abs(m - m.T)) > 0:
            raise ContractViolationError("adjacency matrix must be symmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def compile_rc_cell(R: float, C: float, T: float) -> SDEModel:
    """Single noisy-RC cell: dv = -v/(RC) dt + sqrt(2 kB T R)/(RC) dw."""
    cell = Cell(R, C, T)  # validates
    a = -1.0 / (cell.R * cell.C)
    c = np.sqrt(2.0 * BOLTZMANN_K * cell.T * cell.R) / (cell.R * cell.C)
    return SDEModel(A0=[[a]], b0=[0.0], C0=[[c]], D0=[[1.0]])


def _stamp(diagonal, netlist: RCNetlist, weight) -> np.ndarray:
    """diag(diagonal) plus the Laplacian of the closed couplings, each
    stamped with weight(coupling value)."""
    L = np.diag(diagonal)
    for cp in netlist.couplings:
        if not cp.switch:
            continue
        w = weight(cp.value)
        L[cp.i, cp.i] += w
        L[cp.j, cp.j] += w
        L[cp.i, cp.j] -= w
        L[cp.j, cp.i] -= w
    return L


def compile_network(netlist: RCNetlist) -> SDEModel:
    """Assemble the coupled-cell drift and diffusion matrices.

    Resistive coupling:  -v' = C^-1 (J v + R^-1 dv);  capacitive coupling:
    -v' = C^-1 R^-1 (v + dv), with the coupling capacitances folded into the
    capacitance matrix.  Per-cell noise amplitudes sqrt(2 kB T_i R_i) are
    propagated through the same linear map as the fluctuation term.
    """
    n = netlist.n_cells
    Rinv = np.linalg.inv(np.diag([c.R for c in netlist.cells]))
    noise_amp = np.diag([np.sqrt(2.0 * BOLTZMANN_K * c.T * c.R) for c in netlist.cells])
    kinds = {c.kind for c in netlist.couplings if c.switch}
    kind = kinds.pop() if kinds else "resistive"

    if kind == "resistive":
        Cinv = _safe_inverse(np.diag([c.C for c in netlist.cells]), netlist)
        A0 = -Cinv @ _stamp([1.0 / c.R for c in netlist.cells], netlist, lambda r: 1.0 / r)
    else:
        Cinv = _safe_inverse(_stamp([c.C for c in netlist.cells], netlist, float), netlist)
        A0 = -Cinv @ Rinv
    # fluctuation enters as C^-1 R^-1 dv
    C0 = Cinv @ Rinv @ noise_amp
    return SDEModel(A0=A0, b0=np.zeros(n), C0=C0, D0=np.eye(n))


def _safe_inverse(Cm, netlist):
    if abs(np.linalg.det(Cm)) < 1e-300:
        diag = np.diag(Cm)
        bad = int(np.argmin(np.abs(diag))) if np.any(diag == 0) else 0
        raise ContractViolationError(
            f"singular capacitance matrix (check cell {bad})")
    return np.linalg.inv(Cm)


def apply_adjacency(netlist: RCNetlist, adjacency: AdjacencyMatrix) -> RCNetlist:
    """Close exactly the couplings selected by the adjacency matrix.

    Adjacency entries referencing pairs with no hard-wired coupling are an
    error: software switching cannot create new wires.
    """
    if adjacency.dim != netlist.n_cells:
        raise ContractViolationError("adjacency dimension must match cell count")
    pairs = {frozenset((c.i, c.j)) for c in netlist.couplings}
    m = adjacency.matrix
    for i in range(adjacency.dim):
        for j in range(i + 1, adjacency.dim):
            if m[i, j] != 0 and frozenset((i, j)) not in pairs:
                raise ContractViolationError(
                    f"adjacency connects ({i}, {j}) but the netlist has no coupling there")
    new = tuple(replace(c, switch=bool(m[c.i, c.j] != 0)) for c in netlist.couplings)
    return RCNetlist(netlist.cells, new)
