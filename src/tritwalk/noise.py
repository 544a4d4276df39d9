"""Kraus channels and density-matrix evolution of walk circuits."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterable, Iterator

import numpy as np

from .circuit import Circuit, Gate, apply_local, circuit_unitary, embed_gate, register_width
from .gates import x_matrix
from .toffoli import lower_circuit

IDLE_KINDS = ("none", "amplitude", "phase")
IDLE_SCOPES = ("untouched", "all")

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


def amplitude_damping_channel(r1: float, r2: float, t: float) -> KrausChannel:
    """Relaxation of |1> and |2> toward |0> at rates r1 and r2."""
    if r1 < 0 or r2 < 0 or t < 0:
        raise ValueError("rates and duration must be nonnegative")
    e1, e2 = np.exp(-r1 * t), np.exp(-r2 * t)
    k0 = np.diag([1.0, np.sqrt(e1), np.sqrt(e2)])
    k1 = np.zeros((3, 3))
    k1[0, 1] = np.sqrt(1 - e1)
    k2 = np.zeros((3, 3))
    k2[0, 2] = np.sqrt(1 - e2)
    return KrausChannel("amplitude", (k0, k1, k2))


def phase_damping_channel(r1: float, t: float) -> KrausChannel:
    """Dephasing that mixes in a Z3 kick; diagonal states are fixed points."""
    if r1 < 0 or t < 0:
        raise ValueError("rate and duration must be nonnegative")
    e1 = np.exp(-r1 * t)
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
    idle_scope: str = "untouched"
    epsilon_exponent: int | None = None
    rng_seed: int | None = None

    def __post_init__(self) -> None:
        if self.idle_kind not in IDLE_KINDS:
            raise ValueError(f"unknown idle kind {self.idle_kind!r}")
        if self.idle_scope not in IDLE_SCOPES:
            raise ValueError(f"unknown idle scope {self.idle_scope!r}")
        if self.t_idle < 0:
            raise ValueError("t_idle must be nonnegative")
        for name in ("p1", "r1", "r2"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.epsilon_exponent is not None and self.rng_seed is None:
            raise ValueError("parameter draws need rng_seed")


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


def _support(g: Gate) -> tuple[int, ...]:
    return (g.target,) + tuple(w for w, _ in g.controls)


def idle_wires(circuit: Circuit, scope: str) -> tuple[int, ...]:
    """Wires that idle damping acts on: every wire, or those no gate touches."""
    if scope == "all":
        return tuple(range(1, circuit.width + 1))
    touched = {w for g in circuit.gates for w in _support(g)}
    return tuple(w for w in range(1, circuit.width + 1) if w not in touched)


# A step is one list of (tensor axes, matrix) ops, each contracted into the
# density with apply_local.  Without gate noise the density is one complex
# (3,)*2*width tensor holding the ket trits of every wire, then the bra
# trits; the layer's dense unitary acts on the ket axes and its conjugate on
# the bra axes, and each one-wire idle channel is a 9 x 9 superoperator
# indexed (ket, bra).  With gate noise the density is instead one real
# (9,)*width tensor of coefficients in the per-wire orthonormal Gell-Mann
# basis (Bertlmann & Krammer, arXiv:0806.1174), in wire order, and every
# noisy gate or idle channel is a real 9^k x 9^k transfer matrix, so one
# gate plus its depolarizing twirl is a single op.  Only this path pairs
# each wire's ket and bra axes.

# Budget for one complex density, 16 * 9^width bytes.
DENSITY_BUDGET_BYTES = 2**30


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


def check_density_budget(width: int) -> None:
    """Refuse a register whose complex density exceeds DENSITY_BUDGET_BYTES."""
    size = 16 * 9**width
    if size > DENSITY_BUDGET_BYTES:
        raise ValueError(
            f"a density on {width} wires takes {size} bytes, "
            f"over the {DENSITY_BUDGET_BYTES}-byte budget"
        )


def _pairing(n: int) -> list[int]:
    """Axis order taking (kets of n wires, bras of n wires) to per-wire pairs."""
    return [x for i in range(n) for x in (i, n + i)]


def _to_gell_mann(rho: np.ndarray, width: int) -> np.ndarray:
    """Real (9,)*width Gell-Mann coefficients of a Hermitian density matrix."""
    t = rho.reshape((3,) * (2 * width)).transpose(_pairing(width)).reshape((9,) * width)
    for axis in range(width):
        t = apply_local(t, _TO_GELL_MANN, (axis,))
    return np.ascontiguousarray(t.real)


def _from_gell_mann(c: np.ndarray, width: int) -> np.ndarray:
    """The 3^width x 3^width density matrix of Gell-Mann coefficients."""
    for axis in range(width):
        c = apply_local(c, _FROM_GELL_MANN, (axis,))
    unpair = list(np.argsort(_pairing(width)))
    return c.reshape((3,) * (2 * width)).transpose(unpair).reshape(3**width, 3**width)


def _superop(ops: Iterable[np.ndarray], k: int, real: bool = False) -> np.ndarray:
    """Superoperator of the Kraus sum over ops on k wires.

    Pair-ordered and complex by default; with ``real`` the Gell-Mann
    transfer matrix of a trace-preserving channel, whose row 0 is exactly
    e_0.
    """
    m = sum(np.kron(op, op.conj()) for op in ops)
    pair = _pairing(k)
    perm = pair + [2 * k + x for x in pair]
    m = m.reshape((3,) * (4 * k)).transpose(perm).reshape(9**k, 9**k)
    if not real:
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


def _twirl_diagonal(k: int, p1: float) -> np.ndarray:
    """The depolarizing twirl on k wires, diagonal in the Gell-Mann basis."""
    lam = 3 ** (2 * k) * clamped_p1(p1, k)
    d = np.full(9**k, 1 - lam)
    d[0] = 1.0
    return d


def _gate_transfers(circuit: Circuit, p1: float) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """(support, transfer matrix) of every gate followed by its twirl.

    Each gate is relabelled to wires 1..k of its sorted support; gates
    that are equal after relabelling share one matrix, built once.
    """
    twirls = {k: _twirl_diagonal(k, p1) for k in (1, 2)}
    built: dict[tuple, np.ndarray] = {}
    out = []
    for g in circuit.gates:
        support = tuple(sorted(_support(g)))
        k = len(support)
        local = {w: i + 1 for i, w in enumerate(support)}
        target = local[g.target]
        controls = tuple((local[w], v) for w, v in g.controls)
        matrix = None if g.matrix is None else g.matrix.tobytes()
        key = (g.kind, g.axis, g.angle, g.xkind, matrix, target, controls)
        m = built.get(key)
        if m is None:
            moved = replace(g, target=target, controls=controls)
            m = built[key] = twirls[k][:, None] * _superop((embed_gate(k, moved),), k, real=True)
        out.append((support, m))
    return out


def _promote_superop(m: np.ndarray, axes: tuple[int, ...], to: tuple[int, ...]) -> np.ndarray:
    if axes == to:
        return m
    return np.kron(m, np.eye(9)) if axes[0] == to[0] else np.kron(np.eye(9), m)


def simulate_noisy_walk(
    layer: Circuit,
    width: int,
    rho0: np.ndarray,
    steps: int,
    noise: NoiseConfig,
) -> Iterator[np.ndarray]:
    """Yield the density matrix after each of `steps` walk layers.

    With gate noise enabled the layer is lowered to elementary gates and
    a depolarizing channel of matching arity follows every gate; without
    it the layer acts as one dense unitary. Idle damping is applied once
    per step, after the layer, to untouched wires or to all of them.
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
    if np.linalg.norm(rho0 - rho0.conj().T) > 1e-10:
        raise ValueError("initial density must be Hermitian")
    if abs(np.trace(rho0) - 1) > 1e-9:
        raise ValueError("initial density must have unit trace")

    cfg = resolve_noise(noise)
    real = cfg.gate_noise_enabled
    circuit = lower_circuit(layer) if real else layer

    # (0-based tensor axes, matrix) in the order they act within one step.
    ops: list[tuple[tuple[int, ...], np.ndarray]] = []
    if real:
        for support, m in _gate_transfers(circuit, cfg.p1):
            axes = tuple(w - 1 for w in support)
            # Fuse runs whose supports share a wire pair into one contraction;
            # exact, since each entry is already the gate's full noisy map.
            if ops:
                prev_axes, prev = ops[-1]
                union = tuple(sorted(set(prev_axes) | set(axes)))
                if len(union) <= 2:
                    ops[-1] = (
                        union,
                        _promote_superop(m, axes, union) @ _promote_superop(prev, prev_axes, union),
                    )
                    continue
            ops.append((axes, m))
    else:
        u = circuit_unitary(circuit)
        ops = [(tuple(range(width)), u), (tuple(range(width, 2 * width)), u.conj())]

    if cfg.idle_kind != "none":
        if cfg.idle_kind == "amplitude":
            idle = amplitude_damping_channel(cfg.r1, cfg.r2, cfg.t_idle)
        else:
            idle = phase_damping_channel(cfg.r1, cfg.t_idle)
        m = _superop(idle.operators, 1, real)
        for w in idle_wires(circuit, cfg.idle_scope):
            ops.append(((w - 1,) if real else (w - 1, width + w - 1), m))

    t = _to_gell_mann(rho0, width) if real else rho0.reshape((3,) * (2 * width))
    for _ in range(steps):
        for axes, m in ops:
            t = apply_local(t, m, axes)
        yield _from_gell_mann(t, width) if real else t.reshape(dim, dim).copy()
