import numpy as np
import pytest
from helpers import random_circuit, random_unitary

from tritwalk.circuit import (
    Circuit,
    apply_state,
    circuit_unitary,
    count_gates,
    embed_gate,
    phase,
    xgate,
)
from tritwalk.gates import frobenius_distance
from tritwalk.toffoli import (
    compile_mc_x_target_first,
    compile_mc_x_target_last,
    lower_circuit,
    mc_phase_gates,
    p_gate_circuit,
)
from tritwalk.walk import CoinSpec, build_layer_cycle, build_layer_dihedral


def mc_phase_reference(width, theta, controls):
    dim = 3**width
    d = np.ones(dim, dtype=complex)
    active = np.ones(dim, dtype=bool)
    for w, v in controls:
        active &= (np.arange(dim) // 3 ** (width - w)) % 3 == v
    d[active] = np.exp(1j * theta)
    return np.diag(d)


def test_mc_phase_single_wire():
    for v in (0, 1, 2):
        u = circuit_unitary(Circuit(1, tuple(mc_phase_gates(0.7, ((1, v),)))))
        assert frobenius_distance(u, mc_phase_reference(1, 0.7, ((1, v),))) < 1e-12


def test_mc_phase_multiwire_patterns():
    rng = np.random.default_rng(51)
    for width in (2, 3):
        for _ in range(6):
            theta = rng.uniform(-np.pi, np.pi)
            values = rng.integers(0, 3, size=width)
            controls = tuple((w + 1, int(values[w])) for w in range(width))
            u = circuit_unitary(Circuit(width, tuple(mc_phase_gates(theta, controls))))
            assert frobenius_distance(u, mc_phase_reference(width, theta, controls)) < 1e-10


def test_mc_phase_needs_controls():
    with pytest.raises(ValueError):
        mc_phase_gates(0.5, ())


def mc_x_reference(n, a, x, target):
    controls = tuple((w, a) for w in range(1, n + 1) if w != target)
    return embed_gate(n, xgate(x, target, controls))


def test_target_last_all_kinds_small():
    for n in (2, 3):
        for a in (0, 1, 2):
            for x in ("X+1", "X+2", "X01", "X12", "X02"):
                c = compile_mc_x_target_last(n, a, x)
                assert count_gates(c).multi_controlled == 0
                got = circuit_unitary(c)
                assert frobenius_distance(got, mc_x_reference(n, a, x, n)) < 1e-9, (n, a, x)


def test_target_last_pinned_stage_counts():
    # Shift by one: two ladders; shift by two: four ladders (no extras fire).
    for n in (2, 3, 4):
        slots = 3 ** (n - 1)
        per_ladder_two = 2 * (slots - 1)
        c1 = count_gates(compile_mc_x_target_last(n, 2, "X+1"))
        assert c1.one_qutrit_rotation == 2 * slots
        assert c1.two_qutrit_controlled == 2 * per_ladder_two
        c2 = count_gates(compile_mc_x_target_last(n, 2, "X+2"))
        assert c2.one_qutrit_rotation == 4 * slots
        assert c2.two_qutrit_controlled == 4 * per_ladder_two


def test_mc_x_matches_gate_on_random_states():
    # Wider registers than the dense-unitary tests, compared state by state
    # so the 3^n x 3^n unitary is never formed.
    rng = np.random.default_rng(71)

    def check(compiled, x, target, a):
        n = compiled.width
        controls = tuple((w, a) for w in range(1, n + 1) if w != target)
        ideal = Circuit(n, (xgate(x, target, controls),))
        for _ in range(2):
            psi = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
            psi /= np.linalg.norm(psi)
            residual = np.linalg.norm(apply_state(compiled, psi) - apply_state(ideal, psi))
            assert residual < 1e-9, (n, a, x, target)

    for n in (2, 3, 4, 5):
        for a in (0, 1, 2):
            for x in ("X+1", "X+2", "X01", "X12", "X02"):
                check(compile_mc_x_target_last(n, a, x), x, n, a)
    for n in (4, 5, 6):
        for a in (0, 2):
            for x in ("X+1", "X+2"):
                check(compile_mc_x_target_first(n, a, x), x, 1, a)


def test_lowered_layer_counts_pinned():
    # (two-qutrit gates, total gates) of fully lowered Grover-coin layers,
    # N = 3^n for n = 2..5.
    grover = CoinSpec("xclass", theta=np.pi)
    families = {
        ("dihedral", None): [(418, 643), (1378, 2089), (4282, 6451), (13018, 19561)],
        ("cycle", 0): [(98, 161), (410, 635), (1370, 2081), (4274, 6443)],
        ("cycle", 2): [(164, 263), (684, 1053), (2284, 3463), (7124, 10733)],
    }
    for (kind, a), pinned in families.items():
        for n, want in zip(range(2, 6), pinned):
            if kind == "dihedral":
                layer = build_layer_dihedral(3**n, grover)
            else:
                layer = build_layer_cycle(3**n, grover, a)
            lowered = lower_circuit(layer)
            got = (count_gates(lowered).two_qutrit_controlled, len(lowered))
            assert got == want, (kind, a, n)


def test_p_gate_permutation():
    c = p_gate_circuit()
    assert len(c) == 8
    u = circuit_unitary(c)
    perm = np.argmax(np.abs(u), axis=0)
    expected = np.arange(9)
    expected[[2, 7]] = [7, 2]
    expected[[5, 6]] = [6, 5]
    assert np.array_equal(perm, expected)
    assert frobenius_distance(u @ u, np.eye(9)) < 1e-12  # involution


def test_target_first_matches_reference():
    for n in (2, 3):
        for a in (0, 2):
            for x in ("X+1", "X+2"):
                c = compile_mc_x_target_first(n, a, x)
                assert count_gates(c).multi_controlled == 0
                got = circuit_unitary(c)
                assert frobenius_distance(got, mc_x_reference(n, a, x, 1)) < 1e-9, (n, a, x)


def test_target_first_rejects_middle_value():
    with pytest.raises(ValueError):
        compile_mc_x_target_first(3, 1, "X+1")
    with pytest.raises(ValueError):
        compile_mc_x_target_first(3, 2, "X01")


def test_lower_circuit_random_mixed():
    rng = np.random.default_rng(61)
    for _ in range(8):
        c = random_circuit(rng, 3, 6)
        low = lower_circuit(c)
        assert count_gates(low).multi_controlled == 0
        assert frobenius_distance(circuit_unitary(low), circuit_unitary(c)) < 1e-9


def test_lower_circuit_custom_with_phase():
    # A controlled custom unitary with non-unit determinant exercises the
    # controlled-phase route.
    rng = np.random.default_rng(67)
    from tritwalk.circuit import custom

    u = random_unitary(rng)
    g = custom(u, 3, controls=((1, 2), (2, 0)))
    c = Circuit(3, (g,))
    low = lower_circuit(c)
    assert count_gates(low).multi_controlled == 0
    assert frobenius_distance(circuit_unitary(low), circuit_unitary(c)) < 1e-9


def test_lower_circuit_mc_phase():
    c = Circuit(3, (phase(0.8, 3, controls=((1, 1), (2, 2))),))
    low = lower_circuit(c)
    assert count_gates(low).multi_controlled == 0
    assert frobenius_distance(circuit_unitary(low), circuit_unitary(c)) < 1e-9
