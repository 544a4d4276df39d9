import numpy as np
import pytest
from helpers import block_diagonal, mc_rotation_reference, random_su3

from tritwalk.blockdiag import blockdiag_synthesize, expand_mc_rotation
from tritwalk.circuit import Circuit, circuit_unitary, count_gates, embed_gate, rotation
from tritwalk.gates import AXES, frobenius_distance


def expanded(axis, angles, width):
    """The expansion on wires 1..width, all but the last controlling."""
    gates = expand_mc_rotation(axis, np.asarray(angles), tuple(range(1, width)), width)
    return Circuit(width, tuple(gates))


def test_expand_matches_dense_all_axes():
    rng = np.random.default_rng(17)
    for axis in AXES:
        for width in (1, 2, 3):
            angles = rng.uniform(-np.pi, np.pi, 3 ** (width - 1))
            got = circuit_unitary(expanded(axis, angles, width))
            assert frobenius_distance(got, mc_rotation_reference(axis, angles)) < 1e-10, (axis, width)


def test_one_hot_slot_is_value_controlled_rotation():
    # A single nonzero slot acts as a rotation controlled on that pattern,
    # value 0 meaning the first slot.
    for value in (0, 1, 2):
        angles = np.zeros(3)
        angles[value] = 0.9
        got = circuit_unitary(expanded("Z12", angles, 2))
        want = embed_gate(2, rotation("Z12", 0.9, 2, controls=((1, value),)))
        assert frobenius_distance(got, want) < 1e-12


def test_expansion_counts_exact():
    # 3^{n-1} leaf rotations, 2(3^{n-1} - 1) singly-controlled conjugators.
    rng = np.random.default_rng(29)
    for axis in ("Y01", "X02", "Z12"):
        for width in (1, 2, 3, 4):
            slots = 3 ** (width - 1)
            counts = count_gates(expanded(axis, rng.uniform(-1, 1, slots), width))
            assert counts.one_qutrit_rotation == slots
            assert counts.two_qutrit_controlled == 2 * (slots - 1)
            assert counts.one_qutrit_other == 0
            assert counts.multi_controlled == 0


def test_no_pruning_of_zero_angles():
    counts = count_gates(expanded("Y01", np.zeros(9), 3))
    assert counts.one_qutrit_rotation == 9
    assert counts.two_qutrit_controlled == 16


def random_blockdiag(rng, width):
    return block_diagonal([random_su3(rng) for _ in range(3 ** (width - 1))])


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
