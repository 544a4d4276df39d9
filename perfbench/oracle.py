"""Independent references the benchmark checks the program's outputs against.

Nothing here routes through the code paths being timed.  Walk CSVs are
parsed here, not by the CLI's parser; noiseless walks are compared with the
dense shift-after-coin operator from ``walk.reference_step_unitary``; noisy
walks with explicit Kraus sums (``apply_channel``) or with a partial-trace
form of the depolarizing twirl written out below; KL and TVD are recomputed
from the CSV rows.  The noise draw is re-derived from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from tritwalk.circuit import Circuit, Gate, apply_state, embed_gate
from tritwalk.noise import KrausChannel, apply_channel, depolarizing_channel
from tritwalk.walk import CoinSpec, WalkGraph, reference_step_unitary

TOL = 1e-8  # trace, Hermiticity and population tolerance of the test suite
MATCH = 1e-9  # agreement with a reference


@dataclass
class WalkCsv:
    meta: dict[str, str]
    probs: list[np.ndarray]  # index t = 0..steps
    leaked: list[float]
    avg: np.ndarray
    avg_leaked: float
    problems: list[str]


def parse_walk_csv(path) -> WalkCsv:
    meta: dict[str, str] = {}
    rows: dict[int, list[float]] = {}
    leaks: dict[int, float] = {}
    avg: list[float] = []
    avg_leaked = 0.0
    problems = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif line and line != "t,vertex,probability,leaked":
                t, _, prob, leak = line.split(",")
                if t == "avg":
                    avg.append(float(prob))
                    avg_leaked = float(leak)
                else:
                    rows.setdefault(int(t), []).append(float(prob))
                    msg = f"t={t}: rows disagree on the leaked mass"
                    if leaks.setdefault(int(t), float(leak)) != float(leak) and msg not in problems:
                        problems.append(msg)
    steps = max(rows) if rows else -1
    if sorted(rows) != list(range(steps + 1)):
        raise ValueError(f"{path}: missing time steps")
    return WalkCsv(
        meta,
        [np.array(rows[t]) for t in range(steps + 1)],
        [leaks[t] for t in range(steps + 1)],
        np.array(avg),
        avg_leaked,
        problems,
    )


def csv_failures(csv: WalkCsv, steps: int) -> list[str]:
    """Row-level invariants every walk CSV must meet."""
    out = list(csv.problems)
    if len(csv.probs) != steps + 1:
        out.append(f"expected {steps + 1} time rows, got {len(csv.probs)}")
        return out
    for t, (p, leak) in enumerate(zip(csv.probs, csv.leaked)):
        if p.min() < -TOL or leak < -TOL:
            out.append(f"t={t}: negative population")
        if abs(p.sum() + leak - 1) > TOL:
            out.append(f"t={t}: total probability {p.sum() + leak!r}")
    mean = np.mean(csv.probs[1:], axis=0)
    if csv.avg.shape != mean.shape or np.abs(csv.avg - mean).max() > MATCH \
            or abs(csv.avg_leaked - np.mean(csv.leaked[1:])) > MATCH:
        out.append("time average is not the mean of rows t=1..T")
    return out


def draw_noise(seed: int, epsilon: int) -> tuple[float, float, float]:
    """(p1, r1, r2) as the paper's protocol draws them: uniform in (0, 10^-eps)."""
    p1, r1, r2 = np.random.default_rng(seed).uniform(0.0, 1.0, 3) * 10.0 ** (-epsilon)
    return float(p1), float(r1), float(r2)


def valid_indices(g: WalkGraph) -> np.ndarray:
    """Register index of every (coin, [flag,] rotation) basis state, in reference order."""
    rot = 3**g.n
    if g.kind == "cycle":
        return np.array([c * rot + r for c in range(3) for r in range(g.N)])
    return np.array([c * 3 * rot + s * rot + r for c in range(3) for s in (0, 1) for r in range(g.N)])


def embedded_reference(g: WalkGraph, coin: CoinSpec) -> np.ndarray:
    """Reference step on the circuit register, identity on padding states."""
    u = np.eye(3**g.circuit_width, dtype=complex)
    idx = valid_indices(g)
    u[np.ix_(idx, idx)] = reference_step_unitary(g, coin)
    return u


def vertex_probs(diag: np.ndarray, g: WalkGraph) -> np.ndarray:
    """Vertex marginal of register populations, coin summed out."""
    rot = 3**g.n
    if g.kind == "cycle":
        return diag.reshape(3, rot)[:, : g.N].sum(axis=0)
    return diag.reshape(3, 3, rot)[:, :2, : g.N].sum(axis=0).reshape(2 * g.N)


def noiseless_probs(g: WalkGraph, coin: CoinSpec, psi0: np.ndarray, steps: int) -> list[np.ndarray]:
    u = reference_step_unitary(g, coin)
    psi = psi0[valid_indices(g)]
    out = []
    for t in range(steps + 1):
        if t:
            psi = u @ psi
        full = np.zeros(3**g.circuit_width)
        full[valid_indices(g)] = np.abs(psi) ** 2
        out.append(vertex_probs(full, g))
    return out


def physical_failures(rho: np.ndarray, label: str) -> list[str]:
    out = []
    if abs(np.trace(rho).real - 1) > TOL:
        out.append(f"{label}: trace {np.trace(rho).real!r}")
    if np.abs(rho - rho.conj().T).max() > TOL:
        out.append(f"{label}: not Hermitian")
    if np.diag(rho).real.min() < -TOL:
        out.append(f"{label}: negative population")
    return out


def support(g: Gate) -> tuple[int, ...]:
    return tuple(sorted((g.target,) + tuple(w for w, _ in g.controls)))


def local_unitary(g: Gate, wires: tuple[int, ...]) -> np.ndarray:
    """The gate as a 3^k x 3^k unitary on its own wires, in the given order."""
    pos = {w: i + 1 for i, w in enumerate(wires)}
    local = replace(g, target=pos[g.target], controls=tuple((pos[w], v) for w, v in g.controls))
    return embed_gate(len(wires), local)


@lru_cache(maxsize=None)
def _depolarizing(k: int, p1: float) -> KrausChannel:
    return depolarizing_channel(k, min(p1, 3.0 ** (-2 * k)))


def kraus_route(gates, width, rho, p1, idle, steps):
    """Yield rho after each step: every gate, then its Weyl-twirl Kraus sum,
    then the idle channel on every wire, all through ``apply_channel``."""
    for _ in range(steps):
        for g in gates:
            wires = support(g)
            rho = apply_channel(rho, KrausChannel("gate", (local_unitary(g, wires),)), wires)
            rho = apply_channel(rho, _depolarizing(len(wires), p1), wires)
        for w in range(1, width + 1):
            rho = apply_channel(rho, idle, (w,))
        yield rho


def _on_axes(t: np.ndarray, m: np.ndarray, axes: list[int]) -> np.ndarray:
    k = len(axes)
    t = np.tensordot(m.reshape((3,) * (2 * k)), t, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(t, list(range(k)), axes)


def twirl_step(gates, width, rho, p1, idle) -> np.ndarray:
    """One noisy step with depolarizing written as (1-l) rho + l I/3^k (x) Tr_S rho.

    The same map as the Weyl Kraus sum, at a small fraction of its cost, so
    a whole 2089-gate layer can be checked.
    """
    t = rho.reshape((3,) * (2 * width))
    for g in gates:
        wires = support(g)
        k = len(wires)
        u = local_unitary(g, wires)
        ket = [w - 1 for w in wires]
        bra = [width + w - 1 for w in wires]
        t = _on_axes(_on_axes(t, u, ket), u.conj(), bra)
        lam = 9**k * min(p1, 9.0 ** (-k))
        front = np.moveaxis(t, ket + bra, list(range(2 * k)))
        rest = front.shape[2 * k :]
        traced = np.trace(front.reshape(3**k, 3**k, -1))
        mixed = np.multiply.outer(np.eye(3**k) / 3**k, traced.reshape(rest))
        mixed = np.moveaxis(mixed.reshape((3,) * (2 * k) + rest), list(range(2 * k)), ket + bra)
        t = (1 - lam) * t + lam * mixed
    dim = 3**width
    rho = t.reshape(dim, dim)
    for w in range(1, width + 1):
        rho = apply_channel(rho, idle, (w,))
    return rho


def idle_route(u: np.ndarray, width: int, rho: np.ndarray, idle: KrausChannel, steps: int):
    """Yield rho after each dense-unitary step followed by idle Kraus sums on every wire."""
    for _ in range(steps):
        rho = u @ rho @ u.conj().T
        for w in range(1, width + 1):
            rho = apply_channel(rho, idle, (w,))
        yield rho


def random_states(rng: np.random.Generator, dim: int, count: int) -> list[np.ndarray]:
    out = []
    for _ in range(count):
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        out.append(psi / np.linalg.norm(psi))
    return out


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def lowering_failures(layer: Circuit, lowered: Circuit, states: list[np.ndarray], label: str) -> list[str]:
    """A lowered circuit has arity <= 2 and acts as its layer on the given states."""
    out = []
    if any(len(g.controls) >= 2 for g in lowered.gates):
        out.append(f"{label}: lowered circuit keeps a gate with two or more controls")
    for i, psi in enumerate(states):
        if np.linalg.norm(apply_state(lowered, psi) - apply_state(layer, psi)) > MATCH:
            out.append(f"{label}: lowered circuit differs from its layer on random state {i}")
    return out


def kl_bits(p: np.ndarray, q: np.ndarray, floor: float = 1e-12) -> float:
    p = p / p.sum()
    q = np.maximum(q / q.sum(), floor)
    q = q / q.sum()
    nz = p > 0
    return float(np.sum(p[nz] * np.log2(p[nz] / q[nz])))


def tvd(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.abs(p / p.sum() - q / q.sum()).sum())
