import numpy as np
import pytest

from tritwalk.gates import (
    AXES,
    frobenius_distance,
    is_unitary,
    phase_matrix,
    rotation_matrix,
    x_matrix,
)


def test_ry01_quarter_turn_pinned():
    expected = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=complex)
    assert frobenius_distance(rotation_matrix("Y01", np.pi / 2), expected) < 1e-12


def test_rotation_families_explicit():
    th = 0.37
    c, s = np.cos(th), np.sin(th)
    assert np.allclose(
        rotation_matrix("X01", th),
        [[c, 1j * s, 0], [1j * s, c, 0], [0, 0, 1]],
    )
    assert np.allclose(
        rotation_matrix("Y12", th),
        [[1, 0, 0], [0, c, s], [0, -s, c]],
    )
    assert np.allclose(
        rotation_matrix("Y02", th),
        [[c, 0, s], [0, 1, 0], [-s, 0, c]],
    )
    e = np.exp(1j * th)
    assert np.allclose(rotation_matrix("Z01", th), np.diag([e, e.conjugate(), 1]))
    assert np.allclose(rotation_matrix("Z12", th), np.diag([1, e, e.conjugate()]))
    assert np.allclose(rotation_matrix("Z02", th), np.diag([e, 1, e.conjugate()]))


def test_rotation_unitary_and_inverse():
    rng = np.random.default_rng(7)
    for axis in AXES:
        for th in rng.uniform(-np.pi, np.pi, size=8):
            m = rotation_matrix(axis, th)
            assert is_unitary(m)
            assert frobenius_distance(m @ rotation_matrix(axis, -th), np.eye(3)) < 1e-12


def test_rotation_addition():
    # Same-axis rotations compose by angle addition.
    rng = np.random.default_rng(11)
    for axis in AXES:
        a, b = rng.uniform(-2, 2, size=2)
        assert (
            frobenius_distance(
                rotation_matrix(axis, a) @ rotation_matrix(axis, b),
                rotation_matrix(axis, a + b),
            )
            < 1e-12
        )


def test_rotation_determinants():
    # The 01/12/02 rotations are special unitary for every angle.
    for axis in AXES:
        assert abs(np.linalg.det(rotation_matrix(axis, 0.9)) - 1) < 1e-12


def test_bad_axis_rejected():
    with pytest.raises(ValueError):
        rotation_matrix("W01", 0.1)
    with pytest.raises(ValueError):
        rotation_matrix("X03", 0.1)
    with pytest.raises(ValueError):
        rotation_matrix("", 0.1)


def test_x_gates_pinned():
    assert np.allclose(x_matrix("X01"), [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert np.allclose(x_matrix("X12"), [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert np.allclose(x_matrix("X02"), [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert np.allclose(x_matrix("X+1"), [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert np.allclose(x_matrix("X+2"), [[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def test_x_gate_action_and_dets():
    # X+a sends |p> to |p+a mod 3>; transpositions have det -1, shifts det +1.
    for a in (1, 2):
        m = x_matrix(f"X+{a}")
        for p in range(3):
            v = np.zeros(3)
            v[p] = 1
            assert np.argmax(np.abs(m @ v)) == (p + a) % 3
    for kind, d in [("X01", -1), ("X12", -1), ("X02", -1), ("X+1", 1), ("X+2", 1)]:
        assert abs(np.linalg.det(x_matrix(kind)) - d) < 1e-12


def test_shift_transpose_relation():
    assert np.allclose(x_matrix("X+2"), x_matrix("X+1").T)
    with pytest.raises(ValueError):
        x_matrix("X+3")
    with pytest.raises(ValueError):
        x_matrix("01")


def test_phase_matrix():
    m = phase_matrix(0.6)
    assert np.allclose(m, np.exp(0.6j) * np.eye(3))
    assert is_unitary(m)


def test_frobenius_distance_pinned():
    # ||I - (-I)||_F = sqrt(12) for 3x3, and ||I - 0||_F = sqrt(3).
    eye = np.eye(3)
    assert abs(frobenius_distance(eye, -eye) - np.sqrt(12)) < 1e-12
    assert abs(frobenius_distance(eye, np.zeros((3, 3))) - np.sqrt(3)) < 1e-12


def test_is_unitary_rejects():
    assert not is_unitary(np.ones((3, 3)))
    assert not is_unitary(np.ones((2, 3)))
    assert is_unitary(np.eye(9))
