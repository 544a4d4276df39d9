"""Shared random generators and reference maps for the test suite."""

import numpy as np

from tritwalk.circuit import Circuit, phase, rotation, xgate
from tritwalk.gates import AXES, X_KINDS, phase_matrix, rotation_matrix
from tritwalk.noise import clamped_p1


def random_unitary(rng, dim=3):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_su3(rng):
    u = random_unitary(rng, 3)
    return u / np.linalg.det(u) ** (1 / 3)


def block_diagonal(blocks):
    """Dense matrix with the given 3x3 blocks down its diagonal, zeros elsewhere."""
    dim = 3 * len(blocks)
    m = np.zeros((dim, dim), dtype=complex)
    for j, b in enumerate(blocks):
        m[3 * j : 3 * j + 3, 3 * j : 3 * j + 3] = b
    return m


def mc_rotation_reference(axis, angles):
    """Dense multi-controlled rotation: one rotation block per control pattern."""
    return block_diagonal([rotation_matrix(axis, a) for a in angles])


def diagonal_phase_matrix(phase, gates):
    """Dense matrix of a decompose_diagonal result: phase times the two rotations."""
    m = phase_matrix(phase)
    for g in gates:
        m = m @ rotation_matrix(g.axis, g.angle)
    return m


def completeness_defect(ch):
    """Frobenius norm of sum(K†K) - I; zero for a trace-preserving channel."""
    dim = ch.operators[0].shape[0]
    acc = sum(op.conj().T @ op for op in ch.operators)
    return float(np.linalg.norm(acc - np.eye(dim)))


def random_gate(rng, width):
    target = int(rng.integers(1, width + 1))
    free = [w for w in range(1, width + 1) if w != target]
    k = int(rng.integers(0, len(free) + 1)) if free else 0
    wires = rng.choice(free, size=k, replace=False) if k else []
    controls = tuple((int(w), int(rng.integers(0, 3))) for w in wires)
    roll = rng.integers(0, 3)
    if roll == 0:
        return rotation(AXES[rng.integers(len(AXES))], rng.uniform(-np.pi, np.pi), target, controls)
    if roll == 1:
        return xgate(X_KINDS[rng.integers(len(X_KINDS))], target, controls)
    return phase(rng.uniform(-np.pi, np.pi), target, controls)


def random_circuit(rng, width, ngates):
    return Circuit(width, tuple(random_gate(rng, width) for _ in range(ngates)))


def twirl_depolarizing(
    t: np.ndarray, wires: tuple[int, ...], width: int, p1: float
) -> np.ndarray:
    # Same map as the explicit Weyl sum: mix toward I/3^k on the wires.
    k = len(wires)
    lam = 3 ** (2 * k) * clamped_p1(p1, k)
    if lam == 0:
        return t
    ket = [w - 1 for w in wires]
    bra = [width + w - 1 for w in wires]
    front = np.moveaxis(t, ket + bra, range(2 * k))
    rest_shape = front.shape[2 * k :]
    traced = np.trace(front.reshape(3**k, 3**k, -1))
    repl = np.multiply.outer(np.eye(3**k) / 3**k, traced.reshape(rest_shape))
    repl = repl.reshape((3,) * (2 * k) + rest_shape)
    repl = np.moveaxis(repl, range(2 * k), ket + bra)
    return (1 - lam) * t + lam * repl
