import numpy as np
import pytest

from tritwalk.analysis import (
    Distribution,
    kl_divergence,
    time_average,
    tvd,
    vertex_distribution,
)
from tritwalk.walk import WalkGraph

DIHEDRAL27 = WalkGraph("dihedral", 27)
CYCLE25 = WalkGraph("cycle", 25, 0)


def basis_state(width, index):
    psi = np.zeros(3**width, dtype=complex)
    psi[index] = 1
    return psi


def test_dihedral_basis_states_map_to_vertices():
    # coin 1, reflection 0, rotation 5 -> vertex index 5
    d = vertex_distribution(basis_state(5, int("10012", 3)), DIHEDRAL27)
    assert d.leaked == 0
    assert d.probs.size == 54
    assert d.probs[5] == 1
    # reflection 1, rotation 2 -> vertex 27 + 2
    d = vertex_distribution(basis_state(5, int("01002", 3)), DIHEDRAL27)
    assert d.probs[27 + 2] == 1


def test_reflection_two_leaks():
    d = vertex_distribution(basis_state(5, int("02000", 3)), DIHEDRAL27)
    assert d.leaked == 1
    assert d.probs.sum() == 0


def test_cycle_overflow_rotation_leaks():
    d = vertex_distribution(basis_state(4, int("0222", 3)), CYCLE25)
    assert d.leaked == 1  # rotation 26 >= 25
    d = vertex_distribution(basis_state(4, int("2220", 3)), CYCLE25)
    assert d.probs[int("220", 3)] == 1


def test_maximally_mixed_density_split():
    rho = np.eye(243) / 243
    d = vertex_distribution(rho, DIHEDRAL27)
    assert np.allclose(d.probs, 3 / 243)
    assert abs(d.leaked - 81 / 243) < 1e-14


def test_density_and_pure_agree():
    rng = np.random.default_rng(37)
    psi = rng.normal(size=243) + 1j * rng.normal(size=243)
    psi /= np.linalg.norm(psi)
    a = vertex_distribution(psi, DIHEDRAL27)
    b = vertex_distribution(np.outer(psi, psi.conj()), DIHEDRAL27)
    assert np.allclose(a.probs, b.probs)
    assert abs(a.probs.sum() + a.leaked - 1) < 1e-10
    with pytest.raises(ValueError):
        vertex_distribution(psi[:81], DIHEDRAL27)


def test_time_average_basics():
    one = Distribution(np.array([1.0, 0.0]), 0.0)
    two = Distribution(np.array([0.0, 1.0]), 0.0)
    avg = time_average([one, two])
    assert isinstance(avg, Distribution)
    assert np.allclose(avg.probs, [0.5, 0.5])
    same = time_average([one, one, one])
    assert np.allclose(same.probs, one.probs)
    with pytest.raises(ValueError):
        time_average([])
    with pytest.raises(ValueError):
        time_average([one, Distribution(np.array([1.0, 0.0, 0.0]), 0.0)])


def test_kl_pinned_values():
    assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == 1.0
    got = kl_divergence(np.array([0.75, 0.25]), np.array([0.5, 0.5]))
    assert abs(got - 0.18872187554086716) < 1e-15
    p = np.array([0.3, 0.2, 0.5])
    assert kl_divergence(p, p) == 0.0


def test_kl_floor_keeps_empty_q_finite():
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    loose = kl_divergence(p, q, floor=1e-6)
    tight = kl_divergence(p, q, floor=1e-12)
    assert np.isfinite(loose) and np.isfinite(tight)
    assert tight > loose
    with pytest.raises(ValueError):
        kl_divergence(p, q, floor=0.0)


def test_kl_ignores_p_zeros():
    assert kl_divergence(np.array([0.0, 1.0]), np.array([0.5, 0.5])) == 1.0


def test_distances_renormalize_leaked_mass():
    short = Distribution(np.array([0.45, 0.45]), 0.1)
    full = Distribution(np.array([0.5, 0.5]), 0.0)
    assert abs(kl_divergence(short, full)) < 1e-15
    assert tvd(short, full) < 1e-15


def test_tvd_pinned_values():
    assert tvd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert tvd(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == 0.5
    rng = np.random.default_rng(41)
    for _ in range(20):
        p, q, r = rng.dirichlet(np.ones(6), size=3)
        assert abs(tvd(p, q) - tvd(q, p)) < 1e-15
        assert tvd(p, r) <= tvd(p, q) + tvd(q, r) + 1e-15


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(np.array([[0.5], [0.5]]), 0.0)
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, -0.5]), 0.0)
    with pytest.raises(ValueError):
        kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ValueError):
        tvd(np.zeros(3), np.ones(3) / 3)
