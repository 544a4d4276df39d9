import numpy as np
import pytest
from helpers import random_circuit

from tritwalk.circuit import (
    Circuit,
    Gate,
    GateCounts,
    apply_op,
    apply_state,
    circuit_unitary,
    compile_circuit,
    count_gates,
    embed_gate,
    gate_matrix,
    inverse,
    phase,
    register_width,
    rotation,
    split_runs,
    xgate,
)
from tritwalk.gates import frobenius_distance, is_unitary, x_matrix


def basis(width, digits):
    v = np.zeros(3**width, dtype=complex)
    v[int("".join(map(str, digits)), 3)] = 1
    return v


def test_embed_uncontrolled_single_wire():
    assert np.allclose(embed_gate(1, xgate("X+1", 1)), x_matrix("X+1"))


def test_embed_ms_gate_action():
    # X+1 on wire 2 fired only when wire 1 holds 2 (Muthukrishnan-Stroud).
    u = embed_gate(2, xgate("X+1", 2, controls=((1, 2),)))
    assert np.allclose(u @ basis(2, [2, 0]), basis(2, [2, 1]))
    assert np.allclose(u @ basis(2, [0, 0]), basis(2, [0, 0]))


def test_value0_control_equals_shift_conjugation():
    # ⓪-controlled X equals X+2 on the control, the MS form, then X+1.
    direct = embed_gate(2, xgate("X12", 2, controls=((1, 0),)))
    conj = circuit_unitary(
        Circuit(
            2,
            (
                xgate("X+2", 1),
                xgate("X12", 2, controls=((1, 2),)),
                xgate("X+1", 1),
            ),
        )
    )
    assert frobenius_distance(direct, conj) < 1e-12


def test_embed_matches_kron_for_uncontrolled():
    g = rotation("Y02", 0.83, 2)
    expected = np.kron(np.kron(np.eye(3), gate_matrix(g)), np.eye(3))
    assert frobenius_distance(embed_gate(3, g), expected) < 1e-12


def test_embed_unitary_and_control_fixed_points():
    rng = np.random.default_rng(3)
    for _ in range(20):
        width = int(rng.integers(2, 4))
        c = random_circuit(rng, width, 1)
        g = c.gates[0]
        u = embed_gate(width, g)
        assert is_unitary(u)
        # Any basis state violating a control condition is a fixed point.
        for i in range(3**width):
            digits = np.base_repr(i, 3).zfill(width)
            if any(int(digits[w - 1]) != v for w, v in g.controls):
                e = np.zeros(3**width)
                e[i] = 1
                assert np.allclose(u @ e, e)


def test_circuit_unitary_empty_and_single():
    assert np.allclose(circuit_unitary(Circuit(2)), np.eye(9))
    g = rotation("Z12", -0.4, 1, controls=((2, 1),))
    assert frobenius_distance(circuit_unitary(Circuit(2, (g,))), embed_gate(2, g)) < 1e-12


def test_swap_construction():
    # Three alternating controlled transpositions swap two wires' 0/1 levels.
    c = Circuit(
        2,
        (
            xgate("X01", 2, controls=((1, 1),)),
            xgate("X01", 1, controls=((2, 1),)),
            xgate("X01", 2, controls=((1, 1),)),
        ),
    )
    u = circuit_unitary(c)
    assert np.allclose(u @ basis(2, [0, 1]), basis(2, [1, 0]))
    assert np.allclose(u @ basis(2, [1, 0]), basis(2, [0, 1]))
    for digits in [[0, 0], [1, 1], [2, 0], [0, 2], [2, 1], [1, 2], [2, 2]]:
        assert np.allclose(u @ basis(2, digits), basis(2, digits))


def test_unitary_is_temporal_product():
    # Concatenation multiplies on the left: U(c1 then c2) = U(c2) U(c1).
    rng = np.random.default_rng(5)
    c1 = random_circuit(rng, 3, 6)
    c2 = random_circuit(rng, 3, 6)
    both = Circuit(3, c1.gates + c2.gates)
    assert (
        frobenius_distance(circuit_unitary(both), circuit_unitary(c2) @ circuit_unitary(c1))
        < 1e-10
    )


def test_apply_state_matches_dense():
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = random_circuit(rng, 3, 12)
        psi = rng.normal(size=27) + 1j * rng.normal(size=27)
        psi /= np.linalg.norm(psi)
        assert np.linalg.norm(apply_state(c, psi) - circuit_unitary(c) @ psi) < 1e-10


def test_compiled_circuit_matches_apply_state():
    # Seeded random circuits of width <= 4 mixing rotations, xgates and
    # phases with valued controls: runs alternate between xgates and the
    # rest, and each xgate run is a gather index of the whole register.
    rng = np.random.default_rng(23)
    for width in (1, 2, 3, 4):
        for _ in range(6):
            c = random_circuit(rng, width, 14)
            runs = split_runs(c)
            kinds = [run.gates[0].kind == "xgate" for _, run in runs]
            assert all(a != b for a, b in zip(kinds, kinds[1:]))
            assert sum(len(run) for _, run in runs) == len(c)
            ops = compile_circuit(c)
            for (axes, m), is_x in zip(ops, kinds):
                assert m.shape == ((3**width,) if is_x else (3 ** len(axes),) * 2)
            psi = rng.normal(size=3**width) + 1j * rng.normal(size=3**width)
            t = psi.reshape((3,) * width)
            for op in ops:
                t = apply_op(t, op)
            assert np.abs(t.ravel() - apply_state(c, psi)).max() < 1e-12


def test_apply_state_norm_and_dim_check():
    c = Circuit(2, (rotation("X02", 1.1, 1),))
    psi = np.zeros(9)
    psi[4] = 1
    assert abs(np.linalg.norm(apply_state(c, psi)) - 1) < 1e-9
    with pytest.raises(ValueError):
        apply_state(c, np.zeros(8))


def test_inverse_simple():
    assert inverse(Circuit(2)).gates == ()
    inv = inverse(Circuit(1, (rotation("Y01", 0.3, 1),)))
    assert inv.gates[0].angle == -0.3
    flip = inverse(Circuit(1, (xgate("X+1", 1), xgate("X02", 1))))
    assert [g.xkind for g in flip.gates] == ["X02", "X+2"]


def test_inverse_undoes_random_circuits():
    rng = np.random.default_rng(13)
    for _ in range(5):
        c = random_circuit(rng, 3, 50)
        undo = Circuit(3, c.gates + inverse(c).gates)
        assert frobenius_distance(circuit_unitary(undo), np.eye(27)) < 1e-10


def test_count_gates_partition():
    c = Circuit(
        3,
        (
            rotation("Y01", 0.1, 1),
            rotation("Z02", 0.2, 2, controls=((1, 2),)),
            xgate("X+1", 3),
            xgate("X+2", 3, controls=((1, 0), (2, 2))),
            phase(0.3, 1),
            rotation("Y12", 0.4, 2, controls=((3, 1),)),
        ),
    )
    counts = count_gates(c)
    assert counts == GateCounts(
        one_qutrit_rotation=1, one_qutrit_other=2, two_qutrit_controlled=2, multi_controlled=1
    )
    assert counts.total == len(c)


def test_gates_are_hashable_values():
    a = rotation("Y01", 0.5, 2, controls=((3, 1), (1, 0)))
    b = rotation("Y01", 0.5, 2, controls=((1, 0), (3, 1)))
    assert a == b and hash(a) == hash(b)
    assert a != rotation("Y01", 0.6, 2, controls=((1, 0), (3, 1)))
    assert len({a, b, xgate("X+1", 1), inverse(Circuit(1, (xgate("X+2", 1),))).gates[0]}) == 2


def test_validation_errors():
    with pytest.raises(ValueError):
        Gate("rotation", 1)  # missing axis/angle
    with pytest.raises(ValueError):
        rotation("Y01", 0.5, 1, controls=((1, 0),))  # control on target
    with pytest.raises(ValueError):
        rotation("Y01", 0.5, 1, controls=((2, 3),))  # bad control value
    with pytest.raises(ValueError):
        rotation("Y01", 0.5, 2, controls=((3, 0), (3, 1)))  # duplicate wire
    with pytest.raises(ValueError):
        Circuit(2, (rotation("Y01", 0.5, 3),))  # wire out of range


def test_register_width_exact():
    assert [register_width(d) for d in (0, 1, 2, 3, 4, 9, 10, 27)] == [0, 0, 1, 1, 2, 2, 3, 3]
    # Exact at sizes where a float log would round either way.
    for k in (12, 30, 40):
        assert register_width(3**k) == k
        assert register_width(3**k + 1) == k + 1
        assert register_width(3**k - 1) == k
