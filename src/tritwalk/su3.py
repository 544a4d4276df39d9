"""Decomposition of 3x3 unitaries into subspace rotations.

Any SU(3) matrix factors as three Z-Y-Z sandwiches, one per two-level
subspace: a 02 sandwich, then a 01 sandwich, then a 12 sandwich (as a matrix
product; temporally the 12 block acts first).  Eight angles suffice because
the first-column reduction leaves no phase freedom on the middle step.  A U(3)
matrix adds one global phase, a third of the determinant's argument.

The parameter extraction follows the column-nulling of Reck et al. (PRL 73,
58, 1994): the first column fixes the 02 and 01 sandwiches, and the 12
sandwich is read off the remainder once those two are peeled from the matrix.
Angles come from atan2 on moduli (no divisions, no arccos), so the read-off is
stable at the boundaries, including a first column concentrated in one entry.
Callers should rely on the reconstruction residual, never on particular angle
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .circuit import Circuit, Gate, rotation
from .gates import checked_unitary, rotation_matrix

__all__ = [
    "Su3Params",
    "U3Decomposition",
    "su3_factors",
    "decompose_su3",
    "reconstruct_su3",
    "params_to_circuit",
    "decompose_u3",
    "decompose_diagonal",
    "decompose_special_diagonal",
]

# Below this modulus an entry's phase is unconstrained and is pinned to 0.
_PHASE_EPS = 1e-12
# Row v: the (Z01, Z12) angles per unit theta with which e^{i theta/3}
# R_Z01 R_Z12 puts the phase theta on level v alone.  The literals are the
# exact coefficients every diagonal decomposition and phase ladder shares.
_PHASE_TABLE = ((2 / 3, 1 / 3), (-1 / 3, 1 / 3), (-1 / 3, -2 / 3))


@dataclass(frozen=True)
class Su3Params:
    theta1: float
    phi1: float
    psi1: float
    theta2: float
    psi2: float
    theta3: float
    phi3: float
    psi3: float


@dataclass(frozen=True)
class U3Decomposition:
    alpha: float
    su3: Su3Params


def su3_factors(p: Su3Params) -> list[tuple[str, float]]:
    """The nine (axis, angle) rotations of the factorization, in temporal order."""
    return [
        ("Z12", (-p.phi3 - p.psi3) / 2),
        ("Y12", -p.theta3),
        ("Z12", (-p.phi3 + p.psi3) / 2),
        ("Z01", -p.psi2 / 2),
        ("Y01", -p.theta2),
        ("Z01", p.psi2 / 2),
        ("Z02", (-p.phi1 - p.psi1) / 2),
        ("Y02", -p.theta1),
        ("Z02", (-p.phi1 + p.psi1) / 2),
    ]


def reconstruct_su3(p: Su3Params) -> np.ndarray:
    """Multiply out the nine-rotation factorization of the parameters."""
    # Matrix order is the reverse of temporal order, multiplied left to right.
    factors = reversed(su3_factors(p))
    return reduce(np.matmul, [rotation_matrix(axis, angle) for axis, angle in factors])


def params_to_circuit(p: Su3Params, wire: int) -> Circuit:
    """Nine-rotation circuit on one wire realizing reconstruct_su3(p)."""
    return Circuit(wire, tuple(rotation(axis, angle, wire) for axis, angle in su3_factors(p)))


def _arg(z: complex) -> float:
    return float(np.angle(z)) if abs(z) > _PHASE_EPS else 0.0


def _su3_params(u: np.ndarray) -> Su3Params:
    """decompose_su3 for a complex 3x3 array already checked to be unitary."""
    if abs(np.linalg.det(u) - 1) > 1e-8:
        raise ValueError("input must have unit determinant; use decompose_u3")
    # The first column is S02 S01 e0: it fixes the 02 and 01 sandwiches.
    theta1 = float(np.arctan2(abs(u[2, 0]), abs(u[0, 0])))
    theta2 = float(np.arctan2(abs(u[1, 0]), np.hypot(abs(u[0, 0]), abs(u[2, 0]))))
    phi1, psi1, psi2 = -_arg(u[0, 0]), -_arg(u[2, 0]), -_arg(u[1, 0])
    # What remains, (S02 S01)^dagger u, is the 12 sandwich.
    r = reconstruct_su3(Su3Params(theta1, phi1, psi1, theta2, psi2, 0.0, 0.0, 0.0)).conj().T @ u
    theta3 = float(np.arctan2(abs(r[1, 2]), abs(r[1, 1])))
    return Su3Params(theta1, phi1, psi1, theta2, psi2, theta3, -_arg(r[1, 1]), _arg(-r[1, 2]))


def decompose_su3(u: np.ndarray) -> Su3Params:
    """Extract the eight rotation angles of a special unitary 3x3 matrix.

    The first column gives the 02 and 01 angles; the 12 angles are read off
    the remainder left once those two sandwiches are peeled from ``u``.
    """
    return _su3_params(checked_unitary(u, "input"))


def decompose_u3(u: np.ndarray) -> U3Decomposition:
    """Split a 3x3 unitary into a global phase and an SU(3) part.

    alpha is a third of the principal argument of the determinant, so the
    original matrix is exp(i alpha) times the reconstructed SU(3) factor.
    """
    u = checked_unitary(u, "input")
    alpha = float(np.angle(np.linalg.det(u)) / 3)
    return U3Decomposition(alpha=alpha, su3=_su3_params(u * np.exp(-1j * alpha)))


def reconstruct_u3(d: U3Decomposition) -> np.ndarray:
    return np.exp(1j * d.alpha) * reconstruct_su3(d.su3)


def decompose_diagonal(alpha: float, beta: float, zeta: float) -> tuple[float, tuple[Gate, Gate]]:
    """Write diag(e^{ia}, e^{ib}, e^{iz}) as a global phase and two Z rotations.

    Returns the phase angle and (R_Z01, R_Z12) gates on wire 1; the matrix is
    phase * Z01 * Z12 (diagonal factors commute, so order is moot).  Each
    level's phase contributes its row of _PHASE_TABLE.  No library code
    calls it; it is public because acceptance criterion 02 reproduces the
    paper's diagonal forms with it.
    """
    levels = (alpha, beta, zeta)
    z01, z12 = (sum(row[i] * x for row, x in zip(_PHASE_TABLE, levels)) for i in (0, 1))
    return (alpha + beta + zeta) / 3, (rotation("Z01", z01, 1), rotation("Z12", z12, 1))


def decompose_special_diagonal(alpha: float, beta: float, variant: int = 1) -> tuple[Gate, Gate]:
    """Two-rotation forms of diag(e^{ia}, e^{ib}, e^{-i(a+b)}).

    Three equivalent variants exist; all three reconstruct the same matrix.
    No library code calls it; it is public because acceptance criterion 02
    reproduces the paper's three special-diagonal forms with it.
    """
    if variant == 1:
        pair = rotation("Z01", alpha, 1), rotation("Z12", alpha + beta, 1)
    elif variant == 2:
        pair = rotation("Z02", alpha, 1), rotation("Z12", beta, 1)
    elif variant == 3:
        pair = rotation("Z02", alpha + beta, 1), rotation("Z01", -beta, 1)
    else:
        raise ValueError(f"variant must be 1, 2 or 3, got {variant!r}")
    return pair

