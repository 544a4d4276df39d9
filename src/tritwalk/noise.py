"""Kraus channels and density-matrix evolution of walk circuits."""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Iterable, Iterator
from zlib import crc32

import numpy as np

# circuit_unitary is unused here but stays importable, because
# perfbench/tracing.py patches it as a tritwalk.noise attribute.
from .circuit import (  # noqa: F401
    Circuit,
    Gate,
    _layer_step,
    _relabelled,
    _support,
    apply_local,
    circuit_unitary,
    embed_gate,
    register_width,
    run_matrix,
    split_runs,
)
from .gates import x_matrix
from .toffoli import lower_circuit

IDLE_KINDS = ("none", "amplitude", "phase")

_Z3 = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map given by explicit Kraus operators."""

    kind: str
    operators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.operators:
            raise ValueError("channel needs at least one Kraus operator")
        ops = tuple(np.asarray(op, dtype=complex) for op in self.operators)
        dim = ops[0].shape[0] if ops[0].ndim == 2 else 0
        if 3 ** register_width(dim) != dim:
            raise ValueError("Kraus operators must be square with power-of-3 size")
        for op in ops:
            if op.shape != (dim, dim):
                raise ValueError("Kraus operators must share one shape")
        object.__setattr__(self, "operators", ops)

    @property
    def arity(self) -> int:
        return register_width(self.operators[0].shape[0])


def depolarizing_channel(k: int, p1: float) -> KrausChannel:
    """Uniform Weyl-twirl noise on k qutrits.

    The operator set is sqrt(1 - 3^2k p1) I together with sqrt(p1) W for
    every tensor product W of X+1^a Z3^b factors, the identity included.
    Complete positivity bounds p1 by 3^(-2k).
    """
    if k < 1:
        raise ValueError("channel needs at least one qutrit")
    if not 0 <= p1 <= 3.0 ** (-2 * k) + 1e-15:
        raise ValueError(f"p1={p1} outside [0, 3^-{2 * k}]")
    xp1 = x_matrix("X+1")
    factors = {
        (a, b): np.linalg.matrix_power(xp1, a) @ np.linalg.matrix_power(_Z3, b)
        for a in range(3)
        for b in range(3)
    }
    ops = [np.sqrt(max(0.0, 1 - 3 ** (2 * k) * p1)) * np.eye(3**k)]
    for choice in product(range(3), repeat=2 * k):
        weyl = np.eye(1)
        for j in range(k):
            weyl = np.kron(weyl, factors[choice[2 * j], choice[2 * j + 1]])
        ops.append(np.sqrt(p1) * weyl)
    return KrausChannel("depolarizing", tuple(ops))


def _survival(r: float, t: float) -> float:
    """exp(-r t), with no decay at a zero rate or duration, where 0 * inf is NaN."""
    return 1.0 if r == 0 or t == 0 else np.exp(-r * t)


def amplitude_damping_channel(r1: float, r2: float, t: float) -> KrausChannel:
    """Relaxation of |1> and |2> toward |0> at rates r1 and r2."""
    if not (r1 >= 0 and r2 >= 0 and t >= 0):
        raise ValueError("rates and duration must be nonnegative")
    e1, e2 = _survival(r1, t), _survival(r2, t)
    k0 = np.diag([1.0, np.sqrt(e1), np.sqrt(e2)])
    k1 = np.zeros((3, 3))
    k1[0, 1] = np.sqrt(1 - e1)
    k2 = np.zeros((3, 3))
    k2[0, 2] = np.sqrt(1 - e2)
    return KrausChannel("amplitude", (k0, k1, k2))


def phase_damping_channel(r1: float, t: float) -> KrausChannel:
    """Dephasing that mixes in a Z3 kick; diagonal states are fixed points."""
    if not (r1 >= 0 and t >= 0):
        raise ValueError("rate and duration must be nonnegative")
    e1 = _survival(r1, t)
    return KrausChannel("phase", (np.sqrt(e1) * np.eye(3), np.sqrt(1 - e1) * _Z3))


@dataclass(frozen=True)
class NoiseConfig:
    """Which noise processes run and with what strength.

    When epsilon_exponent is set, p1/r1/r2 are drawn uniformly from
    (0, 10^-epsilon) with rng_seed; otherwise they must be given
    explicitly for whichever processes are enabled.
    """

    gate_noise_enabled: bool = False
    p1: float | None = None
    idle_kind: str = "none"
    r1: float | None = None
    r2: float | None = None
    t_idle: float = 1.0
    epsilon_exponent: int | None = None
    rng_seed: int | None = None

    def __post_init__(self) -> None:
        if self.idle_kind not in IDLE_KINDS:
            raise ValueError(f"unknown idle kind {self.idle_kind!r}")
        # Written so that NaN fails too.
        if not self.t_idle >= 0:
            raise ValueError("t_idle must be nonnegative")
        for name in ("p1", "r1", "r2"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.epsilon_exponent is not None:
            if self.rng_seed is None:
                raise ValueError("parameter draws need rng_seed")
            if -self.epsilon_exponent > sys.float_info.max_10_exp:
                raise ValueError(
                    f"epsilon {self.epsilon_exponent} is out of range: 10^{-self.epsilon_exponent} "
                    "is not a finite float"
                )


def resolve_noise(config: NoiseConfig) -> NoiseConfig:
    """Fill in drawn parameters, or validate that explicit ones suffice."""
    if config.epsilon_exponent is not None:
        rng = np.random.default_rng(config.rng_seed)
        scale = 10.0 ** (-config.epsilon_exponent)
        p1, r1, r2 = rng.uniform(0.0, 1.0, 3) * scale
        return replace(
            config, p1=float(p1), r1=float(r1), r2=float(r2), epsilon_exponent=None
        )
    if config.gate_noise_enabled and config.p1 is None:
        raise ValueError("gate noise needs p1 or epsilon_exponent")
    if config.idle_kind == "amplitude" and (config.r1 is None or config.r2 is None):
        raise ValueError("amplitude damping needs r1 and r2")
    if config.idle_kind == "phase" and config.r1 is None:
        raise ValueError("phase damping needs r1")
    return config


def clamped_p1(p1: float, k: int) -> float:
    """Largest CP-admissible Weyl weight not exceeding the requested one."""
    return min(p1, 3.0 ** (-2 * k))


def apply_channel(rho: np.ndarray, ch: KrausChannel, wires: tuple[int, ...]) -> np.ndarray:
    """Kraus-sum application of ch to the given wires of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    dim = rho.shape[0]
    width = register_width(dim)
    if 3**width != dim:
        raise ValueError("density dimension must be a power of 3")
    wires = tuple(wires)
    if len(set(wires)) != len(wires):
        raise ValueError("wires must be distinct")
    if len(wires) != ch.arity:
        raise ValueError("channel arity does not match wire count")
    for w in wires:
        if not 1 <= w <= width:
            raise ValueError(f"wire {w} outside register")
    t = rho.reshape((3,) * (2 * width))
    ket = [w - 1 for w in wires]
    bra = [width + w - 1 for w in wires]
    out = sum(apply_local(apply_local(t, op, ket), op.conj(), bra) for op in ch.operators)
    return out.reshape(dim, dim)


# A step is one list of (tensor axes, matrix) ops, run in preallocated
# buffers by circuit._layer_step, the runner of the noiseless walk too.
# Without gate noise the density is one complex (3,)*2*width tensor, the ket
# trits of every wire then the bra trits, in two buffers.  Each run of
# split_runs is one op or two: a unitary on the k wires a run touches acts
# on their ket axes and its conjugate on their bra axes, and an xgate run is
# a 1-D index that gathers the flattened density.  Idle damping on that
# engine is not an op but one in-place pass after the layer (_idle_pass):
# slice adds into every wire's (0,0) entries, then one multiply by all
# wires' diagonals.  That order is exact because each wire's superoperator
# is D + L with L inside row (0,0), whose diagonal entry is 1 wherever L is
# not zero, so D L = L and D + L = D (I + L).
# With gate noise the density is a real (9,)*width tensor in the per-wire
# orthonormal Gell-Mann basis (Bertlmann & Krammer, arXiv:0806.1174), in
# three buffers; the layer is lowered gate by gate into runs on at most two
# wires, and a run, each gate with its twirl, or an idle channel is one real
# 9^k x 9^k transfer matrix.  On both paths axis a is wire a % width + 1,
# and the idle channel follows the layer on every wire.

# Budget: a density run on either engine holds at most _DENSITIES complex
# densities of 16 * 9^width bytes at its peak.  Two-step walks on
# dihedral-27 and dihedral-81 (widths 5 and 6) peaked at 5.2-5.3 (complex)
# and 5.6-6.0 (Gell-Mann) densities over their plan, with their caller
# holding the initial density and the last output; `tritwalk walk` holds
# neither.  The complex engine's peak is its two buffers, the caller's two
# densities and the yielded copy; the Gell-Mann engine's is its three real
# buffers (1.5 densities), those two and its basis change's two complex
# buffers.  A candidate cycle of p <= _MAX_PERIOD steps holds p copies of
# the real tensor (0.5 densities each) through p steps without a basis
# change; once it is confirmed, the walk holds p densities and the copy it
# yields, and no step.  So the peak stays at the basis change: 5.7-5.9
# densities over the plan, as without the cycle check, for criterion 08's
# walk and for noisy-dihedral27 at seed 2, through their cycles of one and
# two steps.  At width 5 the Gell-Mann peak includes 0.35 densities of the
# step's bound calls (330 kB for 559 ops), which the plan below does not
# count.  A plan adds its op list (_OP_BYTES an entry: its pair, an axes
# tuple of at most two axes, its list slot, plus 8 bytes an axis beyond
# two) and its matrices: 2 * 16 * 9^k bytes for a unitary on k wires and
# its conjugate, 8 * 9^width for an xgate run's gather index (the step keeps
# one index per gather, composed with its buffer's axis order), and with
# gate noise 8 * 81^k bytes per distinct run on k wires.  Idle channels and
# matrix-building transients are not counted.
DENSITY_BUDGET_BYTES = 2**30
_DENSITIES = 6
# The longest cycle of Gell-Mann tensors a gate-noise walk stops stepping
# for: it then holds that many densities.
_MAX_PERIOD = 2
_OP_BYTES = 2 * sys.getsizeof((0, 0)) + 8


def _gell_mann() -> np.ndarray:
    """I/sqrt(3) and the eight Gell-Mann matrices over sqrt(2), as (9, 3, 3)."""
    basis = [np.eye(3, dtype=complex) / np.sqrt(3)]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        sym = np.zeros((3, 3), dtype=complex)
        sym[a, b] = sym[b, a] = 1 / np.sqrt(2)
        anti = np.zeros((3, 3), dtype=complex)
        anti[a, b], anti[b, a] = -1j / np.sqrt(2), 1j / np.sqrt(2)
        basis += [sym, anti]
    basis.append(np.diag([1, -1, 0]).astype(complex) / np.sqrt(2))
    basis.append(np.diag([1, 1, -2]).astype(complex) / np.sqrt(6))
    return np.array(basis)


_GELL_MANN = _gell_mann()
# Row i takes a pair-ordered wire block, X[a, b] at 3a+b, to Tr(B_i X).
_TO_GELL_MANN = _GELL_MANN.conj().reshape(9, 9)
_FROM_GELL_MANN = _TO_GELL_MANN.conj().T


def check_density_budget(width: int, ops_bytes: int = 0) -> None:
    """Refuse a density run's working set plus ops_bytes of step ops over the budget."""
    size = _DENSITIES * 16 * 9**width + ops_bytes
    if size > DENSITY_BUDGET_BYTES:
        raise ValueError(
            f"a density run on {width} wires takes {size} bytes, "
            f"over the {DENSITY_BUDGET_BYTES}-byte budget"
        )


def _pairing(n: int) -> list[int]:
    """Axis order taking (kets of n wires, bras of n wires) to per-wire pairs."""
    return [x for i in range(n) for x in (i, n + i)]


def _to_gell_mann(rho: np.ndarray, width: int) -> np.ndarray:
    """Real (9,)*width Gell-Mann coefficients of a Hermitian density matrix.

    The basis change runs as one step (_layer_step) in two complex buffers,
    the first a copy of rho in pair order.
    """
    t = np.array(rho.reshape((3,) * (2 * width)).transpose(_pairing(width)), complex, order="C")
    t = t.reshape((9,) * width)
    t = _layer_step([((axis,), _TO_GELL_MANN) for axis in range(width)], (t, np.empty_like(t)))()
    return np.ascontiguousarray(t.real)


def _from_gell_mann(c: np.ndarray, width: int) -> np.ndarray:
    """The 3^width x 3^width density matrix of Gell-Mann coefficients.

    The basis change runs as one step (_layer_step) in two complex buffers,
    and the spare one is freed before the final transposing copy, so at
    most two complex densities are alive at once.
    """
    t = c.astype(complex)
    t = _layer_step([((axis,), _FROM_GELL_MANN) for axis in range(width)], (t, np.empty_like(t)))()
    unpair = list(np.argsort(_pairing(width)))
    return t.reshape((3,) * (2 * width)).transpose(unpair).reshape(3**width, 3**width)


def _superop(ops: Iterable[np.ndarray], k: int, real: bool = False) -> np.ndarray:
    """Superoperator of the Kraus sum over ops on k wires.

    Pair-ordered and complex by default, with each population column's
    populations summing to 1; with ``real`` the Gell-Mann transfer matrix of
    a trace-preserving channel, whose row 0 is exactly e_0.
    """
    m = sum(np.kron(op, op.conj()) for op in ops)
    pair = _pairing(k)
    perm = pair + [2 * k + x for x in pair]
    m = m.reshape((3,) * (4 * k)).transpose(perm).reshape(9**k, 9**k)
    if not real:
        # Pinned like row 0 below: fl(sqrt(e))^2 + fl(sqrt(1 - e))^2 can be an ulp off 1.
        pop = np.flatnonzero(np.eye(3**k).reshape((3,) * (2 * k)).transpose(pair))
        others = m[np.ix_(pop, pop)] * (1 - np.eye(len(pop)))
        m[pop, pop] = 1 - others.sum(axis=0)
        return m
    to = _TO_GELL_MANN
    for _ in range(k - 1):
        to = np.kron(to, _TO_GELL_MANN)
    m = (to @ m @ to.conj().T).real
    # Set row 0 to e_0 exactly, or the rounding of 1/sqrt(3) drifts the
    # trace by ~1e-12 a step.  Twirl row scaling, kron with the identity and
    # matrix products all keep the exact row.
    m[0] = 0
    m[0, 0] = 1
    return m


def _idle_pass(m: np.ndarray, width: int) -> Callable[[np.ndarray], None]:
    """Apply the one-wire superoperator m to every wire of a complex density, in place.

    m = D + L with D diagonal and L's entries all in row (0,0), none for
    phase damping, and that row's diagonal entry 1 wherever L has one, so
    D L = L and m = D (I + L).  Each D_v commutes with I + L_w for v != w,
    so the pass adds every wire's L terms into its (0,0) slice first, then
    multiplies by the diagonals of all wires at once.
    """
    n = 2 * width
    d = np.diag(m).reshape(3, 3)

    def entry(w: int, i: int, j: int) -> tuple:
        idx: list = [slice(None)] * n
        idx[w], idx[width + w] = i, j
        return tuple(idx)

    cols = np.flatnonzero(m[0, 1:]) + 1
    adds = [
        (entry(w, 0, 0), [(entry(w, *divmod(int(c), 3)), m[0, c]) for c in cols])
        for w in range(width)
        if len(cols)
    ]
    acc = np.empty((3,) * (n - 2), dtype=complex)
    buf = np.empty_like(acc)

    def diagonal(wires: range) -> np.ndarray:
        f = np.ones((1,) * n, dtype=complex)
        for w in wires:
            shape = [1] * n
            shape[w] = shape[width + w] = 3
            f = f * d.reshape(shape)
        return f

    # Two broadcast factors of at most 9^ceil(width/2) entries each, so no
    # density-sized array is built.
    half = (width + 1) // 2
    factors = [diagonal(wires) for wires in (range(half), range(half, width)) if wires]

    def apply(t: np.ndarray) -> None:
        # Slices of t are strided, and a ufunc on a strided operand allocates
        # its own loop buffers, so they are only copied, into and out of two
        # contiguous buffers.  At width 1 t[dst] is a scalar, not a view, so
        # the sum goes back by indexed assignment.
        for dst, srcs in adds:
            acc[...] = t[dst]
            for src, c in srcs:
                buf[...] = t[src]
                np.multiply(buf, c, out=buf)
                np.add(acc, buf, out=acc)
            t[dst] = acc
        for f in factors:
            t *= f

    return apply


def _twirl_diagonal(k: int, p1: float) -> np.ndarray:
    """The depolarizing twirl on k wires, diagonal in the Gell-Mann basis."""
    lam = 3 ** (2 * k) * clamped_p1(p1, k)
    d = np.full(9**k, 1 - lam)
    d[0] = 1.0
    return d


def _promote_superop(m: np.ndarray, axes: tuple[int, ...], to: tuple[int, ...]) -> np.ndarray:
    if axes == to:
        return m
    return np.kron(m, np.eye(9)) if axes[0] == to[0] else np.kron(np.eye(9), m)


def _lowered_runs(layer: Circuit) -> Iterator[tuple[set[int], list]]:
    """Maximal runs of the lowered layer on at most two wires, in order.

    Each layer gate is lowered on its own, and each lowered gate joins the
    current run as (its sorted support, its relabelled fields).
    """
    wires: set[int] = set()
    run: list[tuple[tuple[int, ...], tuple]] = []
    for layer_gate in layer.gates:
        for g in lower_circuit(Circuit(layer.width, (layer_gate,))).gates:
            support = _support(g)
            if run and len(wires.union(support)) > 2:
                yield wires, run
                wires, run = set(), []
            wires.update(support)
            run.append((support, _relabelled(g, support)))
    if run:
        yield wires, run


def _gate_noise_plan(layer: Circuit, p1: float) -> tuple:
    """Fused runs of every lowered gate plus its twirl, on the Gell-Mann axes.

    A run is keyed by each gate's relabelled fields and its place among the
    run's wires, so runs equal up to their wires share one matrix, built
    once by fusing its gates' noisy maps in order.
    """
    # Distinct (k, ((place, fields), ...)) -> index into the matrices built below.
    table: dict[tuple[int, tuple], int] = {}
    placed = []
    for wires, run in _lowered_runs(layer):
        support = sorted(wires)
        place = {w: i for i, w in enumerate(support)}
        key = (len(support), tuple((tuple(place[w] for w in on), fields) for on, fields in run))
        placed.append((tuple(w - 1 for w in support), table.setdefault(key, len(table))))

    def build() -> list[np.ndarray]:
        twirls = {k: _twirl_diagonal(k, p1) for k in (1, 2)}
        transfers: dict[tuple, np.ndarray] = {}
        matrices = []
        for _, run in table:
            axes: tuple[int, ...] = ()
            for support, fields in run:
                if fields not in transfers:
                    k = len(support)
                    u = embed_gate(k, Gate(*fields))
                    transfers[fields] = twirls[k][:, None] * _superop((u,), k, real=True)
                m = transfers[fields]
                if axes:
                    union = tuple(sorted(set(axes) | set(support)))
                    m = _promote_superop(m, support, union) @ _promote_superop(fused, axes, union)
                    support = union
                axes, fused = support, m
            matrices.append(fused)
        return matrices

    return placed, sum(8 * 81**k for k, _ in table), build


def _compiled_plan(layer: Circuit) -> tuple:
    """The layer's runs (split_runs) as ops on the complex density.

    A unitary run acts on its wires' ket axes and its conjugate on their bra
    axes; an xgate run, with U psi = psi[P] on the register, is one gather
    of the flattened density by the index of rho[P][:, P].
    """
    width = layer.width
    runs = split_runs(layer)
    placed = []
    size = 0
    for ket, run in runs:
        bra = tuple(width + a for a in ket)
        if run.gates[0].kind == "xgate":
            placed.append((ket + bra, len(placed)))
            size += 8 * 9**width
        else:
            placed += [(ket, len(placed)), (bra, len(placed) + 1)]
            size += 2 * 16 * 9**run.width

    def build() -> list[np.ndarray]:
        matrices = []
        for ket, run in runs:
            m = run_matrix(run, ket, width)
            matrices += [m, m.conj()] if m.ndim == 2 else [(m[:, None] * len(m) + m).ravel()]
        return matrices

    return placed, size, build


def _layer_ops(layer: Circuit, p1: float | None) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """(0-based axes, matrix) of the layer's step ops, with gate noise p1 or none.

    A plan is the op list with matrix indices, the bytes of its matrices and
    index arrays, and their builder; the budget is checked before any matrix
    or index array is built.
    """
    placed, size, build = _compiled_plan(layer) if p1 is None else _gate_noise_plan(layer, p1)
    size += sum(_OP_BYTES + 8 * max(0, len(axes) - 2) for axes, _ in placed)
    check_density_budget(layer.width, size)
    matrices = build() if placed else []
    for i, (axes, j) in enumerate(placed):
        placed[i] = (axes, matrices[j])
    return placed


def simulate_noisy_walk(
    layer: Circuit,
    width: int,
    rho0: np.ndarray,
    steps: int,
    noise: NoiseConfig,
) -> Iterator[np.ndarray]:
    """Yield the density matrix after each of `steps` walk layers.

    With gate noise enabled the layer is lowered to elementary gates, one
    layer gate at a time, and a depolarizing channel of matching arity
    follows every lowered gate; without it each run of split_runs acts as
    one unitary on the wires it touches or as one basis permutation. Idle
    damping is applied once per step, after the layer, to every wire.
    Each step runs the layer's ops in preallocated buffers
    (circuit._layer_step). With gate noise, once the Gell-Mann
    coefficients of step k + p equal those of step k bit for bit, for a
    period p of one or two steps, every later step repeats that cycle, so
    the run frees its step and yields a fresh copy of the cycle's densities
    for each step left; longer cycles are stepped through.
    """
    check_density_budget(width)
    if layer.width != width:
        raise ValueError("layer width does not match register width")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    dim = 3**width
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise ValueError("initial density has the wrong shape")
    cfg = resolve_noise(noise)
    real = cfg.gate_noise_enabled
    # Refuse over-budget ops before the checks below copy the density.
    ops = _layer_ops(layer, cfg.p1 if real else None)
    if np.linalg.norm(rho0 - rho0.conj().T) > 1e-10:
        raise ValueError("initial density must be Hermitian")
    if abs(np.trace(rho0) - 1) > 1e-9:
        raise ValueError("initial density must have unit trace")
    idle_pass = None
    if cfg.idle_kind != "none":
        if cfg.idle_kind == "amplitude":
            idle = amplitude_damping_channel(cfg.r1, cfg.r2, cfg.t_idle)
        else:
            idle = phase_damping_channel(cfg.r1, cfg.t_idle)
        m = _superop(idle.operators, 1, real)
        if real:
            ops += [((w,), m) for w in range(width)]
        else:
            idle_pass = _idle_pass(m, width)

    # Either engine's first buffer is its own: the Gell-Mann coefficients, or
    # a copy of the caller's density, which the step then never reads.  The
    # frame's names would keep the initial density, and each gather index
    # beside its composed copy in the step, alive for the whole run.
    t = _to_gell_mann(rho0, width) if real else rho0.reshape((3,) * (2 * width)).copy()
    del rho0
    # The gate-noise step alternates a transposing copy with a GEMM that BLAS
    # splits over threads.  Cycling three buffers, each copy writes a buffer
    # that only the copying thread has read since its last write, and each
    # GEMM one that the same threads last read the same halves of: on
    # dihedral-27 that step took 160-168 ms against 180-185 ms in two
    # buffers.  The complex engine's steps timed the same either way, and
    # its densities are twice as large, so it keeps two.
    step = _layer_step(ops, (t,) + tuple(np.empty_like(t) for _ in range(2 if real else 1)))
    del ops
    if not real:
        for _ in range(steps):
            t = step()
            if idle_pass is not None:
                idle_pass(t)
            yield t.reshape(dim, dim).copy()
        return
    # A step is a fixed list of calls on the same buffers, so once step
    # k + p returns the tensor of step k bit for bit, the walk repeats those
    # p densities for good.  A digest of each tensor flags a candidate
    # period; the next p steps, stepped without a basis change and kept,
    # confirm it bit for bit, or the walk steps on from step k again.
    recent: list[int] = []  # digests of the last _MAX_PERIOD tensors, newest first
    done = 0
    while done < steps:
        t = step()
        done += 1
        yield _from_gell_mann(t, width)
        digest = crc32(t)
        period = recent.index(digest) + 1 if digest in recent else 0
        recent = [digest] + recent[: _MAX_PERIOD - 1]
        if not period or done + period > steps:
            continue
        cycle = [t.copy()] + [step().copy() for _ in range(period - 1)]
        # Bit patterns, not floats: == equates -0.0 with 0.0 and never matches NaN.
        if np.array_equal(step().view(np.uint64), cycle[0].view(np.uint64)):
            break
        # Only the digests matched: step on from step k's tensor, put back
        # in the buffer that the step returns and reads next.
        t[...] = cycle[0]
        del cycle
    else:
        return
    del step, t
    # Popped, so that each tensor is freed once it is converted.
    densities = [_from_gell_mann(cycle.pop(0), width) for _ in range(period)]
    for i in range(1, steps - done + 1):
        yield densities[i % period].copy()
