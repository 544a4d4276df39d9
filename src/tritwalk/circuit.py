"""Circuit IR: gates with valued controls on qutrit wires.

A :class:`Gate` applies one elementary operation to one target wire, of kind
rotation (two-level), xgate (two-level or cyclic X) or phase (global),
optionally gated on other wires each holding a specific value in {0, 1, 2}
(the circled-value controls of ternary circuit diagrams).  An arbitrary 3x3
unitary enters a circuit as ``phase`` plus ``params_to_circuit`` of
``decompose_u3``.  A :class:`Circuit` is an ordered gate list; the list order
is temporal, so the first gate acts first and the dense unitary is the
reversed matrix product.  ``compile_circuit`` turns a circuit into ops:
each maximal run of xgates is one basis permutation and each other run one
unitary on the wires it touches.  ``_layer_step`` runs an op list as one
step in preallocated buffers, and every walk, noiseless or noisy, steps
its state that way; ``apply_op`` applies one op and is the step's
bit-for-bit reference.

Gates are hashable values, and circuits are immutable once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import cycle, groupby
from typing import Callable, Iterable, Sequence

import numpy as np

from .gates import AXES, X_KINDS, phase_matrix, rotation_matrix, x_matrix

__all__ = [
    "Gate",
    "Circuit",
    "GateCounts",
    "rotation",
    "xgate",
    "phase",
    "gate_matrix",
    "apply_local",
    "embed_gate",
    "circuit_unitary",
    "apply_state",
    "split_runs",
    "run_matrix",
    "compile_circuit",
    "apply_op",
    "inverse",
    "count_gates",
    "shift_gates",
    "add_control",
    "register_width",
]

KINDS = ("rotation", "xgate", "phase")


@dataclass(frozen=True)
class Gate:
    """One gate: kind, per-kind payload, 1-based target wire, valued controls."""

    kind: str
    target: int
    axis: str | None = None
    angle: float | None = None
    xkind: str | None = None
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not isinstance(self.target, int) or self.target < 1:
            raise ValueError(f"target must be a positive wire index, got {self.target!r}")
        if self.kind == "rotation":
            if self.axis not in AXES or self.angle is None:
                raise ValueError("rotation gate needs axis and angle")
        elif self.kind == "xgate":
            if self.xkind not in X_KINDS:
                raise ValueError(f"unknown X gate kind {self.xkind!r}")
        elif self.angle is None:
            raise ValueError("phase gate needs an angle")
        ctrls = tuple(sorted((int(w), int(v)) for w, v in self.controls))
        wires = [w for w, _ in ctrls]
        if len(set(wires)) != len(wires):
            raise ValueError("duplicate control wires")
        for w, v in ctrls:
            if w < 1:
                raise ValueError(f"control wire {w} out of range")
            if w == self.target:
                raise ValueError("control wire coincides with target")
            if v not in (0, 1, 2):
                raise ValueError(f"control value {v} not a qutrit level")
        object.__setattr__(self, "controls", ctrls)


def rotation(
    axis: str, angle: float, target: int, controls: Iterable[tuple[int, int]] = ()
) -> Gate:
    return Gate("rotation", target, axis=axis, angle=float(angle), controls=tuple(controls))


def xgate(kind: str, target: int, controls: Iterable[tuple[int, int]] = ()) -> Gate:
    return Gate("xgate", target, xkind=kind, controls=tuple(controls))


def phase(angle: float, target: int, controls: Iterable[tuple[int, int]] = ()) -> Gate:
    return Gate("phase", target, angle=float(angle), controls=tuple(controls))


def gate_matrix(g: Gate) -> np.ndarray:
    """The 3x3 matrix the gate applies on its target (controls not included)."""
    if g.kind == "rotation":
        return rotation_matrix(g.axis, g.angle)
    if g.kind == "xgate":
        return x_matrix(g.xkind)
    return phase_matrix(g.angle)


@dataclass(frozen=True, eq=False)
class Circuit:
    width: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.width, int) or self.width < 1:
            raise ValueError(f"width must be a positive integer, got {self.width!r}")
        gs = tuple(self.gates)
        for g in gs:
            wires = [g.target] + [w for w, _ in g.controls]
            if any(w > self.width for w in wires):
                raise ValueError(f"gate wire out of range for width {self.width}")
        object.__setattr__(self, "gates", gs)

    def __len__(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class GateCounts:
    one_qutrit_rotation: int = 0
    one_qutrit_other: int = 0
    two_qutrit_controlled: int = 0
    multi_controlled: int = 0

    @property
    def total(self) -> int:
        return (
            self.one_qutrit_rotation
            + self.one_qutrit_other
            + self.two_qutrit_controlled
            + self.multi_controlled
        )


def register_width(dim: int) -> int:
    """Smallest k >= 0 with 3^k >= dim: the qutrit wires needed to hold dim states."""
    k = 0
    while 3**k < dim:
        k += 1
    return k


def apply_local(t: np.ndarray, op: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Contract a square operator into the listed axes of a tensor.

    ``op`` acts on the joint index of ``axes``, the first listed most
    significant; the axes may have any sizes.  The result keeps every axis
    in its place, so a wire tensor stays a wire tensor.
    """
    axes = list(axes)
    k = len(axes)
    shape = tuple(t.shape[a] for a in axes)
    size = math.prod(shape)
    if op.shape != (size, size):
        raise ValueError(f"operator shape {op.shape} does not fit axes of sizes {shape}")
    out = np.tensordot(op.reshape(shape + shape), t, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def _apply_gate(t: np.ndarray, g: Gate) -> np.ndarray:
    """Fold one gate into a tensor whose leading axes are wires (wire w on axis w-1).

    Extra trailing axes (batch columns) pass through untouched.
    """
    out = apply_local(t, gate_matrix(g), (g.target - 1,))
    if g.controls:
        mask = np.ones((1,) * t.ndim, dtype=bool)
        for w, v in g.controls:
            shape = [1] * t.ndim
            shape[w - 1] = 3
            mask = mask & (np.arange(3) == v).reshape(shape)
        out = np.where(mask, out, t)
    return out


def embed_gate(width: int, g: Gate) -> np.ndarray:
    """Dense 3^width x 3^width unitary of one (possibly controlled) gate.

    Wire 1 is the most significant base-3 digit of the basis index.
    """
    return circuit_unitary(Circuit(width, (g,)))


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit, first-listed gate applied first."""
    dim = 3**c.width
    t = np.eye(dim, dtype=complex).reshape((3,) * c.width + (dim,))
    for g in c.gates:
        t = _apply_gate(t, g)
    return t.reshape(dim, dim)


def apply_state(c: Circuit, psi: np.ndarray) -> np.ndarray:
    """Apply the circuit to a state vector without forming the unitary."""
    psi = np.asarray(psi, dtype=complex)
    dim = 3**c.width
    if psi.shape != (dim,):
        raise ValueError(f"state dimension {psi.shape} does not match width {c.width}")
    t = psi.reshape((3,) * c.width)
    for g in c.gates:
        t = _apply_gate(t, g)
    return t.reshape(dim)


def _support(g: Gate) -> tuple[int, ...]:
    return tuple(sorted((g.target,) + tuple(w for w, _ in g.controls)))


def _relabelled(g: Gate, support: tuple[int, ...]) -> tuple:
    """Fields of g with its target and controls relabelled onto wires 1..k of support."""
    local = {w: i + 1 for i, w in enumerate(support)}
    controls = tuple((local[w], v) for w, v in g.controls)
    return (g.kind, local[g.target], g.axis, g.angle, g.xkind, controls)


def split_runs(c: Circuit) -> list[tuple[tuple[int, ...], Circuit]]:
    """Maximal runs of c's xgates and of its other gates, in order.

    Each run is the 0-based axes of its sorted support and its gates
    relabelled onto wires 1..k of that support.
    """
    runs = []
    for _, group in groupby(c.gates, key=lambda g: g.kind == "xgate"):
        gates = list(group)
        support = tuple(sorted({w for g in gates for w in _support(g)}))
        local = tuple(Gate(*_relabelled(g, support)) for g in gates)
        runs.append((tuple(w - 1 for w in support), Circuit(len(support), local)))
    return runs


def run_matrix(run: Circuit, axes: Sequence[int], width: int) -> np.ndarray:
    """The op of one run of split_runs within a register of width wires.

    Any run but an xgate run is its unitary on its own wires.  An xgate run
    permutes basis states: pushing the indices 0..3^k-1 through it gives p,
    with U psi = psi[p] on its wires, and the result is p gathered along
    ``axes`` of the whole register, so one flat gather applies the run.
    """
    if run.gates[0].kind != "xgate":
        return circuit_unitary(run)
    p = apply_state(run, np.arange(3**run.width)).real.astype(np.intp)
    k = len(axes)
    if k == width:
        return p
    t = np.moveaxis(np.arange(3**width).reshape((3,) * width), axes, range(k))
    t = t.reshape(3**k, -1)[p].reshape(t.shape)
    return np.moveaxis(t, range(k), axes).ravel()


def compile_circuit(c: Circuit) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The (0-based axes, run_matrix) op of every run of c, for a step on a state."""
    return [(axes, run_matrix(run, axes, c.width)) for axes, run in split_runs(c)]


def apply_op(t: np.ndarray, op: tuple[Sequence[int], np.ndarray]) -> np.ndarray:
    """Apply one (axes, matrix) op to a tensor.

    A square matrix contracts into the axes with apply_local.  A 1-D matrix
    is an index that gathers the whole flattened tensor, and its axes only
    name the axes it permutes.
    """
    axes, m = op
    return t.ravel()[m].reshape(t.shape) if m.ndim == 1 else apply_local(t, m, axes)


# A step is one list of (tensor axes, matrix) ops, built once per run into
# calls between preallocated buffers (_step_plan, _layer_step): one matmul
# per square op, after one transposing copy where the op's axes are not
# where np.tensordot would read them in place, and one np.take per gather,
# so each tensor is bit-identical to applying the ops one by one with
# apply_op.  The axis order a buffer holds is tracked while the calls are
# built, and a step ends in the ascending order.


def _step_plan(ops: list, shape: tuple[int, ...]) -> list[tuple]:
    """The calls of one step of ops on a tensor of this shape, each from one buffer to another.

    The order in which a buffer holds the axes is tracked here rather than
    restored after every op; the tensor starts and ends in ascending
    order.  A square op on axes A is one ("dot", m, columns_first): a
    matmul with the buffer as a (d, -1) matrix whose rows run over A and
    whose columns run over the other axes in ascending order, written in
    that order.  If the buffer holds A then the rest, the matmul reads it
    in C order, and if it holds the rest then A, in Fortran order
    (columns_first); otherwise a ("copy", old order, new order) first
    moves A to the front.  That copy, or view, and that product are the
    ones np.tensordot makes inside apply_op, so every tensor is
    bit-identical to an apply_op loop.  A gather is one ("take", index),
    its index composed with the order the buffer holds, so it reads the
    buffer as it lies and writes the ascending order.  After the last op,
    one more copy restores the ascending order if needed.
    """
    canonical = tuple(range(len(shape)))
    plan: list[tuple] = []
    order = canonical
    for axes, m in ops:
        if m.ndim == 1:
            if order != canonical:
                laid = np.arange(m.size).reshape([shape[a] for a in order])
                m = laid.transpose(np.argsort(order)).ravel()[m]
            plan.append(("take", m))
            order = canonical
            continue
        rest = tuple(a for a in canonical if a not in axes)
        front = tuple(axes) + rest
        columns_first = order != front and order == rest + tuple(axes)
        if order != front and not columns_first:
            plan.append(("copy", order, front))
        plan.append(("dot", m, columns_first))
        order = front
    if order != canonical:
        plan.append(("copy", order, canonical))
    return plan


def _layer_step(ops: list, bufs: tuple[np.ndarray, ...]) -> Callable[[], np.ndarray]:
    """Build one step of ops (_step_plan) on the tensor in bufs[0].

    The buffers share one shape, and each call writes the buffer after the
    one it reads, cyclically.  With three buffers or more the last two
    calls are steered so that the step ends in the buffer it started from;
    otherwise a step can end in another one, and the steps after it run
    the same plan bound from there.  The step returns the buffer that
    holds its result, in ascending axis order; the next step starts from
    that buffer and overwrites the others.
    """
    shape = bufs[0].shape
    plan = _step_plan(ops, shape)
    k = len(bufs)

    @cache
    def laid_out(b: int, order: tuple[int, ...], new: tuple[int, ...]) -> np.ndarray:
        """Buffer b holding the axes in order, seen in order new."""
        return bufs[b].reshape([shape[a] for a in order]).transpose([order.index(a) for a in new])

    @cache
    def matrix(b: int, d: int, columns_first: bool) -> np.ndarray:
        return bufs[b].reshape(-1, d).T if columns_first else bufs[b].reshape(d, -1)

    def bind(start: int) -> tuple[list[partial], int]:
        seq = [(start + i) % k for i in range(len(plan) + 1)]
        if k > 2 and len(plan) > 1:
            if seq[-2] == start:
                seq[-2] = (start + 1) % k
            seq[-1] = start
        calls = []
        for (kind, *args), b, nxt in zip(plan, seq, seq[1:]):
            if kind == "copy":
                old, new = args
                calls.append(partial(np.copyto, laid_out(nxt, new, new), laid_out(b, old, new)))
            elif kind == "dot":
                m, columns_first = args
                src, dst = matrix(b, len(m), columns_first), matrix(nxt, len(m), False)
                calls.append(partial(np.matmul, m, src, dst))
            else:
                # mode "clip" lets take write into out directly; "raise" buffers it.
                src, dst = bufs[b].reshape(-1), bufs[nxt].reshape(-1)
                calls.append(partial(np.take, src, args[0], None, dst, "clip"))
        return calls, seq[-1]

    bound = [bind(0)]
    while bound[-1][1] != 0:
        bound.append(bind(bound[-1][1]))
    steps = cycle(bound)

    def step() -> np.ndarray:
        calls, out = next(steps)
        for call in calls:
            call()
        return bufs[out]

    return step


def _invert_gate(g: Gate) -> Gate:
    if g.kind in ("rotation", "phase"):
        return replace(g, angle=-g.angle)
    flip = {"X+1": "X+2", "X+2": "X+1"}
    return replace(g, xkind=flip.get(g.xkind, g.xkind))


def inverse(c: Circuit) -> Circuit:
    return Circuit(c.width, tuple(_invert_gate(g) for g in reversed(c.gates)))


def count_gates(c: Circuit) -> GateCounts:
    rot = other = two = multi = 0
    for g in c.gates:
        k = len(g.controls)
        if k == 0:
            if g.kind == "rotation":
                rot += 1
            else:
                other += 1
        elif k == 1:
            two += 1
        else:
            multi += 1
    return GateCounts(rot, other, two, multi)


def shift_gates(gates: Iterable[Gate], offset: int) -> list[Gate]:
    """The same gates with every wire index moved by ``offset``."""
    return [
        replace(g, target=g.target + offset, controls=tuple((w + offset, v) for w, v in g.controls))
        for g in gates
    ]


def add_control(gates: Iterable[Gate], wire: int, value: int) -> list[Gate]:
    """The same gates with one more control appended to each."""
    return [replace(g, controls=g.controls + ((wire, value),)) for g in gates]

