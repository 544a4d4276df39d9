"""Multi-controlled X gates, controlled phases, and lowering passes.

Everything here reduces to the same two primitives: multi-controlled
rotations with one-hot angle vectors (a single active control pattern) and a
recursive multi-controlled phase.  The shift targets X+1 and X+2 compile to
two and four rotation ladders whose products are exactly the permutations.
The transposition targets X01/X12/X02 have determinant -1, which no
product of controlled rotations can reach, so they route through an explicit
controlled global phase.

The target-first form conjugates a target-last core with a chain of
neighbour permutation blocks.  Every block in the chain flips the core's
shift direction, so the core applies the requested shift when the chain has
an even number of blocks (odd register width) and the other shift otherwise.
"""

from __future__ import annotations

import numpy as np

from .blockdiag import expand_mc_rotation

# circuit_unitary and embed_gate are unused here but stay importable, because
# perfbench/tracing.py patches them as tritwalk.toffoli attributes.
from .circuit import (  # noqa: F401
    Circuit,
    Gate,
    circuit_unitary,
    embed_gate,
    phase,
    rotation,
    shift_gates,
    xgate,
)
from .su3 import decompose_u3, su3_factors

__all__ = [
    "mc_phase_gates",
    "compile_mc_x_target_last",
    "p_gate_circuit",
    "compile_mc_x_target_first",
    "lower_circuit",
]

# Per control value v: (psi_a, psi_b) with S(theta/3) R_Z01(psi_a) R_Z12(psi_b)
# = diag phases (theta iff level == v, else 0).
_PHASE_TABLE = {
    0: (2 / 3, 1 / 3),
    1: (-1 / 3, 1 / 3),
    2: (-1 / 3, -2 / 3),
}


def _mc_rotation(
    axis: str, angle: float, controls: tuple[tuple[int, int], ...], target: int
) -> list[Gate]:
    """R_axis(angle) on the target exactly when every control holds its value.

    The valued controls pick one slot of the expander's angle vector, read
    as a base-3 number in control order; every other slot is zero.
    """
    slot = 0
    for _, v in controls:
        slot = 3 * slot + v
    angles = np.zeros(3 ** len(controls))
    angles[slot] = angle
    return expand_mc_rotation(axis, angles, tuple(w for w, _ in controls), target)


def mc_phase_gates(theta: float, controls: tuple[tuple[int, int], ...]) -> list[Gate]:
    """Gates multiplying by e^{i theta} exactly when every control matches.

    The construction peels the last control wire: a third of the phase is
    delegated to the remaining wires unconditionally, and two one-hot Z
    ladders on the peeled wire steer the three levels so only the controlled
    value accumulates the full theta.  Purely diagonal, so no target wire is
    involved.
    """
    if not controls:
        raise ValueError("need at least one control wire")
    controls = tuple(sorted((int(w), int(v)) for w, v in controls))
    rest, (last_w, last_v) = controls[:-1], controls[-1]
    fa, fb = _PHASE_TABLE[last_v]
    psi_a, psi_b = fa * theta, fb * theta
    if not rest:
        return [
            phase(theta / 3, last_w),
            rotation("Z01", psi_a, last_w),
            rotation("Z12", psi_b, last_w),
        ]
    gates = mc_phase_gates(theta / 3, rest)
    gates += _mc_rotation("Z12", psi_b, rest, last_w)
    gates += _mc_rotation("Z01", psi_a, rest, last_w)
    return gates


# Stage recipes: (axis, angle) ladders in temporal order whose active-block
# product is the named permutation.
_SHIFT_STAGES = {
    "X+1": (("Y12", -np.pi / 2), ("Y01", -np.pi / 2)),
    "X+2": (("Z12", -np.pi / 2), ("Y12", -np.pi / 2), ("Z12", np.pi / 2), ("Y02", -np.pi / 2)),
}


def _mc_x_gates(kind: str, controls: tuple[tuple[int, int], ...], target: int) -> list[Gate]:
    if kind in _SHIFT_STAGES:
        gates = []
        for axis, angle in _SHIFT_STAGES[kind]:
            gates += _mc_rotation(axis, angle, controls, target)
    elif kind in ("X01", "X12", "X02"):
        # X01 = R_Y01(-pi/2) e^{i pi/3} R_Z01(-pi/3) R_Z12(pi/3); X12 and X02
        # are its conjugates by uncontrolled target shifts.
        core = _mc_rotation("Z12", np.pi / 3, controls, target)
        core += _mc_rotation("Z01", -np.pi / 3, controls, target)
        core += mc_phase_gates(np.pi / 3, controls)
        core += _mc_rotation("Y01", -np.pi / 2, controls, target)
        if kind == "X01":
            gates = core
        elif kind == "X12":
            gates = [xgate("X+2", target), *core, xgate("X+1", target)]
        else:
            gates = [xgate("X+1", target), *core, xgate("X+2", target)]
    else:
        raise ValueError(f"unknown X gate kind {kind!r}")
    return gates


def compile_mc_x_target_last(n: int, a: int, x: str) -> Circuit:
    """X on wire n, fired when wires 1..n-1 all hold the value ``a``.

    Shift targets use the two- and four-ladder stage forms; transpositions
    go through the controlled-phase route.  The output never has more than
    one control per gate.
    """
    if n < 2:
        raise ValueError("need at least one control wire, so n >= 2")
    if a not in (0, 1, 2):
        raise ValueError(f"control value must be 0, 1 or 2, got {a!r}")
    gates = _mc_x_gates(x, tuple((w, a) for w in range(1, n)), n)
    return Circuit(n, tuple(gates))


def _swap_levels(a: int, b: int, w1: int, w2: int) -> list[Gate]:
    # Three alternating controlled transpositions swap levels a,b across wires.
    kind = f"X{min(a, b)}{max(a, b)}"
    return [
        xgate(kind, w2, controls=((w1, b),)),
        xgate(kind, w1, controls=((w2, b),)),
        xgate(kind, w2, controls=((w1, b),)),
    ]


def p_gate_circuit() -> Circuit:
    """Two-wire permutation block used to walk a control past its neighbour.

    Exchanges |0,2> with |2,1> and |1,2> with |2,0> (basis indices 2 and 7,
    5 and 6), fixing the other five states; it is an involution.  Eight
    two-qutrit gates.
    """
    gates = [
        xgate("X01", 2, controls=((1, 2),)),
        xgate("X01", 1, controls=((2, 2),)),
        *_swap_levels(1, 2, 1, 2),
        *_swap_levels(0, 2, 1, 2),
    ]
    return Circuit(2, tuple(gates))


def compile_mc_x_target_first(n: int, a: int, x: str) -> Circuit:
    """X on wire 1, fired when wires 2..n all hold ``a`` (a in {0, 2}).

    A chain of neighbour permutation blocks carries the target's role down to
    the last wire, a target-last core acts there, and the chain unwinds; for
    a = 0 the control wires are shifted to 2 and back around the whole
    sandwich.  Each of the n - 1 blocks flips the core's shift direction, so
    the core is ``x`` itself for odd n and the other shift for even n.
    """
    if n < 2:
        raise ValueError("need at least one control wire, so n >= 2")
    if a not in (0, 2):
        raise ValueError(f"control value must be 0 or 2 here, got {a!r}")
    if x not in ("X+1", "X+2"):
        raise ValueError(f"target-first compilation covers shift targets, got {x!r}")
    p = p_gate_circuit()
    chain: list[Gate] = []
    for w in range(1, n):
        chain += shift_gates(p.gates, w - 1)
    core_kind = x if n % 2 else {"X+1": "X+2", "X+2": "X+1"}[x]
    borders_in = [xgate("X+2", w) for w in range(2, n + 1)] if a == 0 else []
    borders_out = [xgate("X+1", w) for w in range(2, n + 1)] if a == 0 else []
    # The chain blocks are involutions gate-by-gate, so the unwind is the
    # same gate list reversed.
    core = compile_mc_x_target_last(n, 2, core_kind).gates
    gates = borders_in + chain + list(core) + chain[::-1] + borders_out
    return Circuit(n, tuple(gates))


def lower_circuit(c: Circuit) -> Circuit:
    """Expand every gate with two or more controls into arity <= 2 form.

    Rotations become one-hot ladders, phases become phase ladders, X targets
    use the shift or transposition compilations, and custom matrices go
    through the eight-angle decomposition (nine one-hot ladders) with a
    controlled phase for their determinant.  Gates with at most one control
    are kept as they are.
    """
    gates: list[Gate] = []
    for g in c.gates:
        if len(g.controls) < 2:
            gates.append(g)
            continue
        if g.kind == "rotation":
            gates += _mc_rotation(g.axis, g.angle, g.controls, g.target)
        elif g.kind == "phase":
            gates += mc_phase_gates(g.angle, g.controls)
        elif g.kind == "xgate":
            gates += _mc_x_gates(g.xkind, g.controls, g.target)
        else:
            d = decompose_u3(g.matrix)
            if abs(d.alpha) > 1e-12:
                gates += mc_phase_gates(d.alpha, g.controls)
            for axis, angle in su3_factors(d.su3):
                gates += _mc_rotation(axis, angle, g.controls, g.target)
    return Circuit(c.width, tuple(gates))
