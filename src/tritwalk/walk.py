"""Walk graphs, coins, shift operators, and layer circuits.

A walk lives on either an N-cycle (with a liveliness jump a, so the third
coin direction hops a vertices) or the 2N vertices of a dihedral-group
Cayley graph, addressed as (reflection flag, rotation index).  Outside this
module a vertex is one index into `WalkGraph.labels`.  The circuit
encodes the rotation index in n base-3 digits, n the smallest power with
N <= 3^n; when N < 3^n, one transposition after each modulo-3^n step wraps
the valid states modulo N and maps the spare band onto itself.

One layer is one walk step.  The cycle layer applies the coin on the coin
wire and then moves the rotation register under coin-value controls: down on
0, up on 1, and a hops up on 2.  The dihedral layer applies the coin, undoes
it on the (unreachable) flag-2 sector so only those states are exact fixed
points, flips the reflection flag on coin 2, and moves the register up or
down on coin 0 depending on the flag.  Reference unitaries for both graphs are
built directly from the shift permutations for cross-checking the circuits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, add_control, inverse, phase, register_width, shift_gates, xgate
from .gates import checked_unitary
from .su3 import decompose_u3, params_to_circuit

__all__ = [
    "WalkGraph",
    "CoinSpec",
    "coin_matrix",
    "shift_cycle",
    "shift_dihedral",
    "reference_step_unitary",
    "build_increment",
    "build_decrement",
    "build_boundary_remap",
    "build_rc",
    "build_layer_cycle",
    "build_layer_dihedral",
]

COIN_KINDS = ("xclass", "yclass", "zclass", "wclass", "custom")


@dataclass(frozen=True)
class WalkGraph:
    """Cycle or dihedral Cayley graph a walk runs on."""

    kind: str
    N: int
    liveliness: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("cycle", "dihedral"):
            raise ValueError(f"graph kind must be cycle or dihedral, got {self.kind!r}")
        if not isinstance(self.N, int) or self.N < 3:
            raise ValueError(f"need at least 3 rotations, got N={self.N!r}")
        if self.kind == "cycle":
            if self.liveliness is None or not 0 <= self.liveliness < self.N:
                raise ValueError("cycle graphs need liveliness a with 0 <= a < N")
        elif self.liveliness is not None:
            raise ValueError("liveliness applies to cycle graphs only")

    @property
    def n(self) -> int:
        """Number of base-3 digits for the rotation register."""
        return register_width(self.N)

    @property
    def circuit_width(self) -> int:
        # Coin wire, plus a reflection-flag wire for dihedral graphs.
        return self.n + (1 if self.kind == "cycle" else 2)

    @property
    def num_vertices(self) -> int:
        return self.N if self.kind == "cycle" else 2 * self.N

    @property
    def labels(self) -> tuple[str, ...]:
        """Vertex labels in index order: "r" on cycles, "s:r" at s*N + r on dihedral graphs."""
        if self.kind == "cycle":
            return tuple(str(r) for r in range(self.N))
        return tuple(f"{s}:{r}" for s in (0, 1) for r in range(self.N))

    def basis_index(self, vertex: int, coin: int) -> int:
        """Register basis state holding a vertex index and a coin value.

        The coin is the most significant trit, then (dihedral only) the
        reflection flag, then the rotation register.
        """
        if not 0 <= vertex < self.num_vertices or coin not in (0, 1, 2):
            raise ValueError(f"no basis state for vertex {vertex!r} with coin {coin!r}")
        s, r = divmod(vertex, self.N)
        return coin * 3 ** (self.circuit_width - 1) + s * 3**self.n + r


@dataclass(frozen=True)
class CoinSpec:
    """Coin choice: one of the four one-parameter orthogonal families or custom.

    The families are real circulant-style combinations of cos/sin terms; the
    x and z families share entries but cycle their rows differently, as do y
    and w.  A custom coin supplies its 3x3 unitary directly.
    """

    kind: str
    theta: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in COIN_KINDS:
            raise ValueError(f"unknown coin kind {self.kind!r}")
        if self.kind == "custom":
            if self.theta is not None:
                raise ValueError("custom coin takes no theta")
            object.__setattr__(self, "matrix", checked_unitary(self.matrix, "custom coin"))
        else:
            if self.theta is None:
                raise ValueError(f"{self.kind} coin needs theta")
            if self.matrix is not None:
                raise ValueError("theta families take no explicit matrix")
            object.__setattr__(self, "theta", float(self.theta))


def coin_matrix(spec: CoinSpec) -> np.ndarray:
    if spec.kind == "custom":
        return spec.matrix.copy()
    c, s = np.cos(spec.theta), np.sin(spec.theta)
    if spec.kind in ("xclass", "zclass"):
        d = (2 * c + 1) / 3
        hi = (1 - c) / 3 + s / np.sqrt(3)
        lo = (1 - c) / 3 - s / np.sqrt(3)
    else:
        d = (2 * c - 1) / 3
        hi = (-1 - c) / 3 + s / np.sqrt(3)
        lo = (-1 - c) / 3 - s / np.sqrt(3)
    if spec.kind in ("xclass", "yclass"):
        rows = [[d, hi, lo], [lo, d, hi], [hi, lo, d]]
    else:
        rows = [[d, hi, lo], [hi, lo, d], [lo, d, hi]]
    return np.array(rows, dtype=complex)


def shift_cycle(N: int, a: int) -> np.ndarray:
    """Shift permutation on coin ⊗ Z_N: down on coin 0, up on 1, a up on 2."""
    s = np.zeros((3 * N, 3 * N))
    for m in range(N):
        s[0 * N + (m - 1) % N, 0 * N + m] = 1
        s[1 * N + (m + 1) % N, 1 * N + m] = 1
        s[2 * N + (m + a) % N, 2 * N + m] = 1
    return s


def shift_dihedral(N: int) -> np.ndarray:
    """Shift on coin ⊗ flag ⊗ Z_N: rotate against the flag on 0, reflect on 2."""
    s = np.zeros((6 * N, 6 * N))
    for r in range(N):
        s[0 * 2 * N + 0 * N + (r + 1) % N, 0 * 2 * N + 0 * N + r] = 1
        s[0 * 2 * N + 1 * N + (r - 1) % N, 0 * 2 * N + 1 * N + r] = 1
        for flag in (0, 1):
            s[1 * 2 * N + flag * N + r, 1 * 2 * N + flag * N + r] = 1
            s[2 * 2 * N + (1 - flag) * N + r, 2 * 2 * N + flag * N + r] = 1
    return s


def reference_step_unitary(g: WalkGraph, coin: CoinSpec) -> np.ndarray:
    """Dense one-step walk operator: shift after coin."""
    c = coin_matrix(coin)
    if g.kind == "cycle":
        return shift_cycle(g.N, g.liveliness) @ np.kron(c, np.eye(g.N))
    return shift_dihedral(g.N) @ np.kron(c, np.eye(2 * g.N))


def build_increment(n: int) -> Circuit:
    """Plus one modulo 3^n on an n-trit register, most significant wire first.

    Digit j advances exactly when every less significant digit is about to
    wrap, i.e. currently holds 2; emitting the most significant gate first
    lets all carries read the original digits.
    """
    gates = [
        xgate("X+1", w, controls=tuple((u, 2) for u in range(w + 1, n + 1)))
        for w in range(1, n + 1)
    ]
    return Circuit(n, tuple(gates))


def build_decrement(n: int) -> Circuit:
    """Minus one modulo 3^n: borrows propagate over digits holding 0."""
    gates = [
        xgate("X+2", w, controls=tuple((u, 0) for u in range(w + 1, n + 1)))
        for w in range(1, n + 1)
    ]
    return Circuit(n, tuple(gates))


def _digits(value: int, n: int) -> tuple[int, ...]:
    return tuple((value // 3 ** (n - 1 - j)) % 3 for j in range(n))


def _transposition_gates(x: int, y: int, n: int) -> list[Gate]:
    """Swap basis states x and y, fixing all others.

    Walks a digit-fixing path from x to y (most significant digit first) and
    conjugates the final elementary swap by the approach chain.  Each step
    differs in one digit, so it is a single multi-controlled transposition.
    """
    dx, dy = list(_digits(x, n)), _digits(y, n)
    path = [tuple(dx)]
    for j in range(n):
        if dx[j] != dy[j]:
            dx[j] = dy[j]
            path.append(tuple(dx))
    steps = []
    for u, v in zip(path, path[1:]):
        j = next(i for i in range(n) if u[i] != v[i])
        p, q = sorted((u[j], v[j]))
        controls = tuple((i + 1, u[i]) for i in range(n) if i != j)
        steps.append(xgate(f"X{p}{q}", j + 1, controls=controls))
    return steps[:-1] + [steps[-1]] + steps[-2::-1]


def build_boundary_remap(N: int, n: int, direction: str) -> Circuit:
    """Correction after a modulo-3^n step so the walk wraps modulo N.

    After increment only N (due at 0) and 0 (from the spare 3^n - 1) are
    wrong, after decrement only 3^n - 1 (due at N - 1) and N - 1 (from the
    spare N), so each correction is one transposition.  Valid states move by
    one modulo N and spare states stay spare, though not fixed.  Empty when
    N fills the register exactly.
    """
    if direction not in ("increment", "decrement"):
        raise ValueError(f"direction must be increment or decrement, got {direction!r}")
    full = 3**n
    if not 3 ** (n - 1) <= N <= full:
        raise ValueError(f"N={N} does not fit an {n}-trit register")
    if N == full:
        return Circuit(n)
    if direction == "increment":
        return Circuit(n, tuple(_transposition_gates(N, 0, n)))
    return Circuit(n, tuple(_transposition_gates(full - 1, N - 1, n)))


def build_rc(N: int, n: int, a: int) -> Circuit:
    """Rotation by a: a repetitions of increment plus its boundary remap."""
    if not 0 <= a < N:
        raise ValueError(f"need 0 <= a < N, got a={a!r}")
    step = list(build_increment(n).gates) + list(build_boundary_remap(N, n, "increment").gates)
    return Circuit(n, tuple(step * a))


def _coin_gates(coin: CoinSpec) -> list[Gate]:
    d = decompose_u3(coin_matrix(coin))
    gates: list[Gate] = []
    if abs(d.alpha) > 1e-12:
        gates.append(phase(d.alpha, 1))
    gates += list(params_to_circuit(d.su3, 1).gates)
    return gates


def _inverted(gates: list[Gate]) -> list[Gate]:
    return list(inverse(Circuit(max(g.target for g in gates), tuple(gates))).gates)


def build_layer_cycle(N: int, coin: CoinSpec, a: int) -> Circuit:
    """One walk step on the N-cycle: wire 1 holds the coin, the rest the vertex.

    Temporally: the coin, then decrement under coin 0, increment under coin
    1, and the a-fold rotation under coin 2, each movement followed by its
    boundary remap.
    """
    g = WalkGraph("cycle", N, a)
    n = g.n
    gates = _coin_gates(coin)
    down = list(build_decrement(n).gates) + list(build_boundary_remap(N, n, "decrement").gates)
    up = list(build_increment(n).gates) + list(build_boundary_remap(N, n, "increment").gates)
    gates += add_control(shift_gates(down, 1), 1, 0)
    gates += add_control(shift_gates(up, 1), 1, 1)
    gates += add_control(shift_gates(build_rc(N, n, a).gates, 1), 1, 2)
    return Circuit(n + 1, tuple(gates))


def build_layer_dihedral(N: int, coin: CoinSpec) -> Circuit:
    """One walk step on the dihedral graph.

    Wire 1 is the coin, wire 2 the reflection flag, the rest the rotation
    register.  The coin acts, is undone on the unreachable flag-2 sector (so
    only flag-2 states are exact fixed points), coin 2 toggles the flag, and
    coin 0 moves the register up on flag 0 and down on flag 1.
    """
    g = WalkGraph("dihedral", N)
    n = g.n
    coin_gates = _coin_gates(coin)
    gates = list(coin_gates)
    gates += add_control(_inverted(coin_gates), 2, 2)
    gates.append(xgate("X01", 2, controls=((1, 2),)))
    up = list(build_increment(n).gates) + list(build_boundary_remap(N, n, "increment").gates)
    down = list(build_decrement(n).gates) + list(build_boundary_remap(N, n, "decrement").gates)
    gates += add_control(add_control(shift_gates(up, 2), 2, 0), 1, 0)
    gates += add_control(add_control(shift_gates(down, 2), 2, 1), 1, 0)
    return Circuit(n + 2, tuple(gates))
