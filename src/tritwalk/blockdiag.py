"""Multi-controlled rotations and block-diagonal synthesis.

A multi-controlled rotation holds one angle per control pattern: with n - 1
control wires there are 3^{n-1} angle slots, indexed by reading the control
values as a base-3 number (first control wire most significant).  Its dense
matrix is block diagonal with a 3x3 rotation in every block, and conversely
any block-diagonal special unitary splits into nine multi-controlled
rotations, one per factor of the single-qutrit Z-Y-Z sandwiches.

The expansion to two-qutrit gates peels one control at a time.  Each peeled
wire splits an angle vector psi_a/psi_b/psi_c (per value of that wire) into
three half-sum combinations applied unconditionally, interleaved with
controlled conjugator gates D satisfying D R(x) D = R(-x) on the target, so
the signs work out to psi_a, psi_b, psi_c on the three sectors.  For Y and Z
rotations the conjugator is the transposition on the same level pair; X
rotations need a Z half-turn on the complementary pair instead.  No
zero-angle pruning happens here: the gate count must stay exactly
3^{n-1} leaf rotations plus 2(3^{n-1} - 1) controlled conjugators.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, Gate, register_width, rotation, xgate
from .su3 import decompose_su3, su3_factors

__all__ = [
    "expand_mc_rotation",
    "blockdiag_synthesize",
]


# Conjugator D with D R_axis(x) D = R_axis(-x): transposition of the level
# pair for Y/Z, a Z half-turn on the complementary pair for X.
def _conjugator(axis: str, target: int, controls: tuple[tuple[int, int], ...]) -> Gate:
    family, pair = axis[0], axis[1:]
    if family in "YZ":
        return xgate("X" + pair, target, controls)
    zpair = {"01": "Z12", "12": "Z02", "02": "Z12"}[pair]
    return rotation(zpair, np.pi, target, controls)


def expand_mc_rotation(
    axis: str, angles: np.ndarray, ctrl_wires: tuple[int, ...], target: int
) -> list[Gate]:
    """Temporal gate list for a multi-controlled rotation on arbitrary wires.

    ``angles`` has one slot per control pattern of ``ctrl_wires`` (first wire
    most significant).  Only uncontrolled rotations and singly-controlled
    gates are emitted.
    """
    angles = np.asarray(angles, dtype=float)
    if not ctrl_wires:
        return [rotation(axis, float(angles.reshape(())), target)]
    w, rest = ctrl_wires[0], tuple(ctrl_wires[1:])
    a = angles.reshape(3, -1)
    psi_a, psi_b, psi_c = a[0], a[1], a[2]
    theta = (psi_b + psi_c) / 2
    phi = (psi_a - psi_b) / 2
    gamma = (psi_a - psi_c) / 2
    d1 = _conjugator(axis, target, ((w, 1),))
    d2 = _conjugator(axis, target, ((w, 2),))
    gates = expand_mc_rotation(axis, theta, rest, target)
    gates.append(d1)
    gates.extend(expand_mc_rotation(axis, phi, rest, target))
    gates.append(d1)
    gates.append(d2)
    gates.extend(expand_mc_rotation(axis, gamma, rest, target))
    gates.append(d2)
    return gates


def _split_blocks(u: np.ndarray) -> list[np.ndarray]:
    u = np.asarray(u, dtype=complex)
    dim = u.shape[0] if u.ndim == 2 and u.shape[0] == u.shape[1] else 0
    # A 1x1 matrix (width 0) holds no 3x3 block, so it is rejected too.
    width = register_width(dim)
    if width < 1 or 3**width != dim:
        raise ValueError(f"matrix dimension must be a power of 3, got {u.shape}")
    nblocks = dim // 3
    blocks = []
    mask = np.ones_like(u, dtype=bool)
    for j in range(nblocks):
        sl = slice(3 * j, 3 * j + 3)
        blocks.append(u[sl, sl])
        mask[sl, sl] = False
    if np.abs(u[mask]).max(initial=0.0) > 1e-10:
        raise ValueError("matrix is not block diagonal with 3x3 blocks")
    return blocks


def blockdiag_synthesize(u: np.ndarray) -> Circuit:
    """Compile a block-diagonal special unitary into rotations and MS-type gates.

    Every 3x3 diagonal block must itself be special unitary.  The result is
    nine expanded multi-controlled rotations (temporal order: the 12-sandwich
    factors first) and contains no gate with more than one control.
    """
    blocks = _split_blocks(u)
    width = register_width(3 * len(blocks))
    params = []
    for j, b in enumerate(blocks):
        try:
            params.append(decompose_su3(b))
        except ValueError as exc:
            raise ValueError(f"block {j} is not special unitary: {exc}") from None
    ctrl_wires = tuple(range(1, width))
    gates: list[Gate] = []
    # One column per factor in temporal order, holding every block's angle.
    for column in zip(*(su3_factors(p) for p in params)):
        axis = column[0][0]
        angles = np.array([angle for _, angle in column])
        gates.extend(expand_mc_rotation(axis, angles, ctrl_wires, width))
    return Circuit(width, tuple(gates))
