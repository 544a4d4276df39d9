import numpy as np
import pytest
from helpers import random_su3

from tritwalk.blockdiag import (
    MCRotation,
    blockdiag_synthesize,
    mc_rotation_expand,
    mc_rotation_matrix,
)
from tritwalk.circuit import circuit_unitary, count_gates, embed_gate, rotation
from tritwalk.gates import AXES, frobenius_distance, rotation_matrix


def test_mc_rotation_matrix_blocks():
    mc = MCRotation(2, "Y01", (0.3, -0.8, 1.2))
    m = mc_rotation_matrix(mc)
    for j, angle in enumerate(mc.angles):
        assert np.allclose(m[3 * j : 3 * j + 3, 3 * j : 3 * j + 3], rotation_matrix("Y01", angle))
    assert np.count_nonzero(m) <= 9 * 3


def test_mc_rotation_validation():
    with pytest.raises(ValueError):
        MCRotation(2, "Y01", (0.1,))  # wrong slot count
    with pytest.raises(ValueError):
        MCRotation(2, "Q01", (0.1, 0.2, 0.3))


def test_expand_matches_dense_all_axes():
    rng = np.random.default_rng(17)
    for axis in AXES:
        for width in (1, 2, 3):
            angles = tuple(rng.uniform(-np.pi, np.pi, 3 ** (width - 1)))
            mc = MCRotation(width, axis, angles)
            got = circuit_unitary(mc_rotation_expand(mc))
            assert frobenius_distance(got, mc_rotation_matrix(mc)) < 1e-10, (axis, width)


def test_one_hot_slot_is_value_controlled_rotation():
    # A single nonzero slot acts as a rotation controlled on that pattern,
    # value 0 meaning the first slot.
    for value in (0, 1, 2):
        angles = np.zeros(3)
        angles[value] = 0.9
        got = circuit_unitary(mc_rotation_expand(MCRotation(2, "Z12", tuple(angles))))
        want = embed_gate(2, rotation("Z12", 0.9, 2, controls=((1, value),)))
        assert frobenius_distance(got, want) < 1e-12


def test_expansion_counts_exact():
    # 3^{n-1} leaf rotations, 2(3^{n-1} - 1) singly-controlled conjugators.
    rng = np.random.default_rng(29)
    for axis in ("Y01", "X02", "Z12"):
        for width in (1, 2, 3, 4):
            slots = 3 ** (width - 1)
            mc = MCRotation(width, axis, tuple(rng.uniform(-1, 1, slots)))
            counts = count_gates(mc_rotation_expand(mc))
            assert counts.one_qutrit_rotation == slots
            assert counts.two_qutrit_controlled == 2 * (slots - 1)
            assert counts.one_qutrit_other == 0
            assert counts.multi_controlled == 0


def test_no_pruning_of_zero_angles():
    mc = MCRotation(3, "Y01", (0.0,) * 9)
    counts = count_gates(mc_rotation_expand(mc))
    assert counts.one_qutrit_rotation == 9
    assert counts.two_qutrit_controlled == 16


def random_blockdiag(rng, width):
    blocks = [random_su3(rng) for _ in range(3 ** (width - 1))]
    dim = 3**width
    u = np.zeros((dim, dim), dtype=complex)
    for j, b in enumerate(blocks):
        u[3 * j : 3 * j + 3, 3 * j : 3 * j + 3] = b
    return u


def test_blockdiag_synthesize_matches():
    rng = np.random.default_rng(41)
    for width in (1, 2, 3):
        for _ in range(5):
            u = random_blockdiag(rng, width)
            c = blockdiag_synthesize(u)
            assert frobenius_distance(circuit_unitary(c), u) < 1e-8
            assert count_gates(c).multi_controlled == 0


def test_blockdiag_synthesize_counts():
    # Nine expanded rotation ladders.
    rng = np.random.default_rng(43)
    for width in (2, 3):
        c = blockdiag_synthesize(random_blockdiag(rng, width))
        counts = count_gates(c)
        slots = 3 ** (width - 1)
        assert counts.one_qutrit_rotation == 9 * slots
        assert counts.two_qutrit_controlled == 9 * 2 * (slots - 1)


def test_blockdiag_rejects_bad_input():
    rng = np.random.default_rng(47)
    with pytest.raises(ValueError):
        blockdiag_synthesize(np.eye(6))  # not a power of 3
    with pytest.raises(ValueError):
        blockdiag_synthesize(np.eye(1))  # width 0 holds no 3x3 block
    u = random_blockdiag(rng, 2)
    u[0, 3] = 0.5  # off-block mass
    with pytest.raises(ValueError):
        blockdiag_synthesize(u)
    v = random_blockdiag(rng, 2)
    v[0:3, 0:3] *= np.exp(0.4j)  # block determinant off unity
    with pytest.raises(ValueError):
        blockdiag_synthesize(v)
