import numpy as np
import pytest
from helpers import diagonal_phase_matrix, random_su3, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

import tritwalk.gates
from tritwalk.circuit import circuit_unitary
from tritwalk.gates import frobenius_distance, rotation_matrix, x_matrix
from tritwalk.su3 import (
    Su3Params,
    decompose_diagonal,
    decompose_special_diagonal,
    decompose_su3,
    decompose_u3,
    params_to_circuit,
    reconstruct_su3,
    reconstruct_u3,
)

ZERO = Su3Params(0, 0, 0, 0, 0, 0, 0, 0)


def test_identity_gives_zero_params():
    p = decompose_su3(np.eye(3))
    assert p == ZERO
    assert frobenius_distance(reconstruct_su3(p), np.eye(3)) < 1e-15


def test_roundtrip_random_su3():
    rng = np.random.default_rng(42)
    for _ in range(200):
        u = random_su3(rng)
        res = frobenius_distance(reconstruct_su3(decompose_su3(u)), u)
        assert res < 1e-9


def test_roundtrip_rotation_gates_themselves():
    for axis in ("Y01", "Y12", "Y02", "Z01", "Z12", "Z02", "X01", "X12", "X02"):
        u = rotation_matrix(axis, 0.7)
        assert frobenius_distance(reconstruct_su3(decompose_su3(u)), u) < 1e-9


def test_degenerate_middle_row():
    # First column concentrated in the middle entry, general lower block.
    rng = np.random.default_rng(6)
    for _ in range(50):
        psi2 = rng.uniform(-np.pi, np.pi)
        v = random_unitary(rng, 2)
        v = v / np.sqrt(np.linalg.det(v))  # make det(v) = 1
        b = v @ np.diag([1, -np.exp(1j * psi2)])
        u = np.zeros((3, 3), dtype=complex)
        u[1, 0] = np.exp(-1j * psi2)
        u[0, 1:], u[2, 1:] = b[0], b[1]
        assert abs(np.linalg.det(u) - 1) < 1e-10
        assert frobenius_distance(reconstruct_su3(decompose_su3(u)), u) < 1e-9


def test_degenerate_antidiagonal():
    rng = np.random.default_rng(8)
    for _ in range(20):
        psi1, psi2 = rng.uniform(-np.pi, np.pi, 2)
        u = np.zeros((3, 3), dtype=complex)
        u[0, 1] = -np.exp(1j * psi1)
        u[1, 0] = np.exp(-1j * psi2)
        u[2, 2] = np.exp(1j * (psi2 - psi1))
        assert frobenius_distance(reconstruct_su3(decompose_su3(u)), u) < 1e-9


def test_shift_matrices_roundtrip():
    # X+1 and X+2 are special unitary permutations.
    for kind in ("X+1", "X+2"):
        u = x_matrix(kind)
        assert frobenius_distance(reconstruct_su3(decompose_su3(u)), u) < 1e-9


def test_decompose_u3_checks_unitarity_once(monkeypatch):
    calls = []
    real = tritwalk.gates.is_unitary

    def counting(m, tol=1e-10):
        calls.append(tol)
        return real(m, tol)

    monkeypatch.setattr(tritwalk.gates, "is_unitary", counting)
    rng = np.random.default_rng(5)
    for _ in range(3):
        decompose_u3(random_unitary(rng))
    assert len(calls) == 3


def test_decompose_su3_validation():
    with pytest.raises(ValueError):
        decompose_su3(np.ones((3, 3)))
    with pytest.raises(ValueError):
        decompose_su3(x_matrix("X01"))  # det -1 belongs to decompose_u3
    with pytest.raises(ValueError):
        decompose_su3(np.eye(2))


def test_params_to_circuit_matches_matrix():
    rng = np.random.default_rng(15)
    for _ in range(10):
        p = decompose_su3(random_su3(rng))
        u = circuit_unitary(params_to_circuit(p, 1))
        assert frobenius_distance(u, reconstruct_su3(p)) < 1e-12
    c = params_to_circuit(ZERO, 1)
    assert len(c) == 9 and all(g.kind == "rotation" for g in c.gates)


def test_decompose_u3_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(100):
        u = random_unitary(rng)
        d = decompose_u3(u)
        assert frobenius_distance(reconstruct_u3(d), u) < 1e-9


def _degenerate_u3(rng, branch):
    """A unitary on one degenerate branch of the decomposition, up to phase."""
    psi1, psi2 = rng.uniform(-np.pi, np.pi, 2)
    u = np.zeros((3, 3), dtype=complex)
    if branch == "middle_row":
        # First column wholly in u10, as _middle_row_params reads it.
        v = random_unitary(rng, 2)
        u[1, 0] = np.exp(-1j * psi2)
        u[0, 1:], u[2, 1:] = v[0], v[1]
    elif branch == "antidiagonal":
        # Anti-diagonal upper block, as _antidiagonal_params reads it.
        u[0, 1] = -np.exp(1j * psi1)
        u[1, 0] = np.exp(-1j * psi2)
        u[2, 2] = np.exp(1j * (psi2 - psi1))
    else:
        # |u00| = 1: the 02 and 01 sandwiches carry no rotation.
        u[0, 0] = np.exp(1j * psi1)
        u[1:, 1:] = random_unitary(rng, 2)
    return u


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    branch=st.sampled_from(("middle_row", "antidiagonal", "u00")),
    log_eps=st.floats(-16, -1),
)
def test_decompose_u3_round_trips_near_degenerate_branches(seed, branch, log_eps):
    # A unitary kick of size eps = 10^log_eps moves the matrix off the branch
    # by about eps, where the generic read-off and the closed forms compete.
    # With |u10| near 1 the generic read-off takes the 12 sandwich from the
    # middle row, whose entries shrink like eps, so it errs by ~1e-16/eps
    # while the closed forms err by ~eps: the residual peaks at 4.3e-8 near
    # eps = 1e-8 (a known defect), against 3.1e-12 on the |u00| branch.
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    w, v = np.linalg.eigh(h + h.conj().T)
    kick = (v * np.exp(1j * 10.0**log_eps * w)) @ v.conj().T
    u = np.exp(1j * rng.uniform(-np.pi, np.pi)) * kick @ _degenerate_u3(rng, branch)
    bound = 1e-9 if branch == "u00" else 1e-7
    assert frobenius_distance(reconstruct_u3(decompose_u3(u)), u) < bound


def test_decompose_u3_global_phase_only():
    # det(iI) = -i, so alpha is the principal third: -pi/6.
    d = decompose_u3(1j * np.eye(3))
    assert abs(d.alpha + np.pi / 6) < 1e-12
    assert frobenius_distance(reconstruct_u3(d), 1j * np.eye(3)) < 1e-9


def test_decompose_u3_negative_det():
    u = x_matrix("X01")
    d = decompose_u3(u)
    assert frobenius_distance(reconstruct_u3(d), u) < 1e-9


def test_decompose_diagonal():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a, b, z = rng.uniform(-np.pi, np.pi, 3)
        phase, gates = decompose_diagonal(a, b, z)
        target = np.diag(np.exp(1j * np.array([a, b, z])))
        assert frobenius_distance(diagonal_phase_matrix(phase, gates), target) < 1e-12
    phase, gates = decompose_diagonal(0, 0, 0)
    assert phase == 0 and all(g.angle == 0 for g in gates)


def test_decompose_special_diagonal_all_variants():
    rng = np.random.default_rng(37)
    for _ in range(50):
        a, b = rng.uniform(-np.pi, np.pi, 2)
        target = np.diag(np.exp(1j * np.array([a, b, -(a + b)])))
        for variant in (1, 2, 3):
            g1, g2 = decompose_special_diagonal(a, b, variant)
            m = rotation_matrix(g1.axis, g1.angle) @ rotation_matrix(g2.axis, g2.angle)
            assert frobenius_distance(m, target) < 1e-12
    with pytest.raises(ValueError):
        decompose_special_diagonal(0.1, 0.2, variant=4)
