from dataclasses import astuple

import numpy as np
import pytest
from helpers import diagonal_phase_matrix, random_su3, random_unitary
from hypothesis import example, given, settings
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
from tritwalk.walk import CoinSpec, coin_matrix

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


# (alpha, theta1, phi1, psi1, theta2, psi2, theta3, phi3, psi3) for five
# unitaries drawn from default_rng(71) and the Grover coin.  They were taken
# from a read-off of the 12 angles off the middle row of u, which agrees with
# the peeled remainder wherever |u10| is well below 1.
PINNED_U3_ANGLES = [
    (-0.0986596724204744, 1.3161512446851154, 1.3145347851859595, 1.1785858215547858,
     0.31665576655227956, 1.6944489158254232, 0.9490670548662736, -0.052054679028298245,
     -2.6275939625093336),
    (0.2619613666067965, 1.1939610579195292, 1.5012513159767162, -0.9094210572427595,
     0.710135750276186, 0.9216368953888007, 0.9974630082242985, -2.8592327873953822,
     -2.52657760783935),
    (0.839246091402849, 0.8701977148726568, 0.8102855990479605, -2.795797287501703,
     0.8090006588920368, 1.401677671466999, 0.14092027863353643, -2.309860371057711,
     -3.0966094414661107),
    (-0.2412999299388017, 0.7354726248393296, 2.888963566866344, 2.529587771755008,
     0.5991867828950141, 1.8997422039617744, 0.6805774600649088, -0.3056189877388678,
     -1.5453993143698896),
    (-0.956540034494349, 1.0374700300101596, 3.0642039454869936, -1.0793049388166454,
     0.6840932278200766, -2.8191070808325343, 1.1462210857235935, 3.1409618487562856,
     2.1057977089943454),
    (0.0, 1.1071487177940906, -3.141592653589793, -0.0, 0.7297276562269662, -0.0,
     1.1071487177940906, -3.141592653589793, -3.141592653589793),
]


def test_decompose_u3_angles_pinned_on_generic_matrices():
    # A sign or conjugation slip in the 12 read-off can still round-trip on
    # some inputs; fixed angles catch it.  Compared modulo 2 pi, which leaves
    # the factorization unchanged, so a signed-zero flip of a phase of pi
    # does not count.
    rng = np.random.default_rng(71)
    mats = [random_unitary(rng) for _ in range(5)] + [coin_matrix(CoinSpec("xclass", theta=np.pi))]
    for u, want in zip(mats, PINNED_U3_ANGLES):
        d = decompose_u3(u)
        got = np.array([d.alpha, *astuple(d.su3)])
        assert np.abs(np.angle(np.exp(1j * (got - np.array(want))))).max() < 1e-12


def _degenerate_u3(rng, branch):
    """A unitary on one degenerate branch of the decomposition, up to phase."""
    psi1, psi2 = rng.uniform(-np.pi, np.pi, 2)
    u = np.zeros((3, 3), dtype=complex)
    if branch == "middle_row":
        # First column wholly in u10: the 02 sandwich carries no rotation.
        v = random_unitary(rng, 2)
        u[1, 0] = np.exp(-1j * psi2)
        u[0, 1:], u[2, 1:] = v[0], v[1]
    elif branch == "antidiagonal":
        # Anti-diagonal upper block: first column in u10, diagonal remainder.
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
@example(seed=0, branch="middle_row", log_eps=-7.0)
@example(seed=0, branch="antidiagonal", log_eps=-8.0)
def test_decompose_u3_round_trips_near_degenerate_branches(seed, branch, log_eps):
    # A unitary kick of size eps = 10^log_eps moves the matrix off the branch
    # by about eps.  The 12 sandwich is read off the peeled remainder, whose
    # 12 block stays of unit size however the first column falls, so the
    # round trip holds at 1e-9 at every eps on every branch.
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    w, v = np.linalg.eigh(h + h.conj().T)
    kick = (v * np.exp(1j * 10.0**log_eps * w)) @ v.conj().T
    u = np.exp(1j * rng.uniform(-np.pi, np.pi)) * kick @ _degenerate_u3(rng, branch)
    assert frobenius_distance(reconstruct_u3(decompose_u3(u)), u) < 1e-9


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
