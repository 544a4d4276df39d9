"""Elementary single-qutrit gates.

Rotation gates act on one two-dimensional subspace of the qutrit and leave the
third level alone; the subspace is named by the pair of levels it mixes ("01",
"12", "02").  On top of those there are the five permutation gates (three
transpositions and the two cyclic shifts) and a global phase gate.  Everything
here returns a fresh 3x3 complex ndarray.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AXES",
    "X_KINDS",
    "rotation_matrix",
    "x_matrix",
    "phase_matrix",
    "is_unitary",
    "checked_unitary",
    "frobenius_distance",
]

# (row, col) index pairs of the subspace each axis label mixes.
_PAIRS = {"01": (0, 1), "12": (1, 2), "02": (0, 2)}

AXES = (
    "X01", "X12", "X02",
    "Y01", "Y12", "Y02",
    "Z01", "Z12", "Z02",
)

X_KINDS = ("X01", "X12", "X02", "X+1", "X+2")


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    """Return the 3x3 rotation gate for the given axis label.

    ``axis`` is one of the nine labels in :data:`AXES`.  The X family uses
    i*sin off-diagonals, the Y family real sin with the upper entry positive,
    and the Z family phases exp(+i theta), exp(-i theta) on the two levels of
    the pair.
    """
    if axis not in AXES:
        raise ValueError(f"unknown rotation axis {axis!r}")
    family = axis[0]
    p, q = _PAIRS[axis[1:]]
    m = np.eye(3, dtype=complex)
    if family == "Z":
        m[p, p] = np.exp(1j * theta)
        m[q, q] = np.exp(-1j * theta)
        return m
    c, s = np.cos(theta), np.sin(theta)
    m[p, p] = c
    m[q, q] = c
    if family == "X":
        m[p, q] = 1j * s
        m[q, p] = 1j * s
    else:
        m[p, q] = s
        m[q, p] = -s
    return m


def x_matrix(kind: str) -> np.ndarray:
    """Return a qutrit X gate: a transposition X01/X12/X02 or a shift X+1/X+2.

    X+1 maps |p> to |p+1 mod 3>, X+2 maps |p> to |p+2 mod 3>; the
    transpositions swap the two named levels.
    """
    m = np.zeros((3, 3), dtype=complex)
    if kind in ("X01", "X12", "X02"):
        p, q = _PAIRS[kind[1:]]
        r = 3 - p - q
        m[p, q] = m[q, p] = m[r, r] = 1.0
    elif kind == "X+1":
        for p in range(3):
            m[(p + 1) % 3, p] = 1.0
    elif kind == "X+2":
        for p in range(3):
            m[(p + 2) % 3, p] = 1.0
    else:
        raise ValueError(f"unknown X gate kind {kind!r}")
    return m


def phase_matrix(theta: float) -> np.ndarray:
    """Global phase gate exp(i theta) * I3."""
    return np.exp(1j * theta) * np.eye(3, dtype=complex)


def is_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=tol))


def checked_unitary(m: np.ndarray, what: str) -> np.ndarray:
    """``m`` as a complex array, or ValueError unless it is a 3x3 unitary.

    ``what`` names the input in the message; the message carries the
    Frobenius size of the defect ``m m† - I``.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (3, 3):
        raise ValueError(f"{what} must be a 3x3 matrix")
    if not is_unitary(m, tol=1e-8):
        defect = frobenius_distance(m @ m.conj().T, np.eye(3))
        raise ValueError(f"{what} is not unitary (defect {defect:.3e})")
    return m


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))
