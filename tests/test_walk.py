import numpy as np
import pytest

from tritwalk.circuit import apply_state, circuit_unitary, count_gates
from tritwalk.gates import frobenius_distance, is_unitary
from tritwalk.toffoli import lower_circuit
from tritwalk.walk import (
    CoinSpec,
    WalkGraph,
    build_boundary_remap,
    build_decrement,
    build_increment,
    build_layer_cycle,
    build_layer_dihedral,
    build_rc,
    coin_matrix,
    reference_step_unitary,
    shift_cycle,
    shift_dihedral,
)

GROVER = CoinSpec("xclass", theta=np.pi)


def test_walk_graph_register_sizes():
    assert WalkGraph("cycle", 3, 1).n == 1
    assert WalkGraph("cycle", 9, 0).n == 2
    assert WalkGraph("dihedral", 25).n == 3
    assert WalkGraph("dihedral", 27).n == 3
    assert WalkGraph("cycle", 27, 2).circuit_width == 4
    assert WalkGraph("dihedral", 27).circuit_width == 5
    assert WalkGraph("dihedral", 27).num_vertices == 54


def test_walk_graph_validation():
    with pytest.raises(ValueError):
        WalkGraph("line", 5)
    with pytest.raises(ValueError):
        WalkGraph("cycle", 9)  # liveliness missing
    with pytest.raises(ValueError):
        WalkGraph("cycle", 9, 9)  # out of range
    with pytest.raises(ValueError):
        WalkGraph("dihedral", 9, 1)


def test_grover_coin_pinned():
    g = coin_matrix(GROVER)
    expected = np.full((3, 3), 2 / 3) - np.eye(3)
    assert frobenius_distance(g, expected) < 1e-12


def test_coin_families_orthogonal_and_dets():
    rng = np.random.default_rng(71)
    signs = {"xclass": 1, "yclass": -1, "zclass": -1, "wclass": 1}
    for kind, sign in signs.items():
        for theta in rng.uniform(-np.pi, np.pi, 6):
            c = coin_matrix(CoinSpec(kind, theta=float(theta)))
            assert np.allclose(c.imag, 0)
            assert is_unitary(c)
            assert abs(np.linalg.det(c) - sign) < 1e-10, (kind, theta)


def test_coin_spec_validation():
    with pytest.raises(ValueError):
        CoinSpec("vclass", theta=1.0)
    with pytest.raises(ValueError):
        CoinSpec("xclass")
    with pytest.raises(ValueError):
        CoinSpec("custom", matrix=np.ones((3, 3)))
    with pytest.raises(ValueError):
        CoinSpec("custom", theta=1.0, matrix=np.eye(3))
    custom = CoinSpec("custom", matrix=np.eye(3))
    assert np.allclose(coin_matrix(custom), np.eye(3))


def test_shift_cycle_action():
    N, a = 5, 2
    s = shift_cycle(N, a)
    assert is_unitary(s)
    for m in range(N):
        src = np.zeros(3 * N)
        src[0 * N + m] = 1
        assert np.argmax(s @ src) == (m - 1) % N
        src = np.zeros(3 * N)
        src[1 * N + m] = 1
        assert np.argmax(s @ src) == N + (m + 1) % N
        src = np.zeros(3 * N)
        src[2 * N + m] = 1
        assert np.argmax(s @ src) == 2 * N + (m + a) % N


def test_shift_dihedral_action():
    N = 4
    s = shift_dihedral(N)
    assert is_unitary(s)
    for r in range(N):
        e = np.zeros(6 * N)
        e[0 * N + r] = 1  # coin 0, flag 0
        assert np.argmax(s @ e) == (r + 1) % N
        e = np.zeros(6 * N)
        e[N + r] = 1  # coin 0, flag 1
        assert np.argmax(s @ e) == N + (r - 1) % N
        e = np.zeros(6 * N)
        e[2 * N + r] = 1  # coin 1 holds still
        assert np.argmax(s @ e) == 2 * N + r
        e = np.zeros(6 * N)
        e[4 * N + r] = 1  # coin 2 reflects
        assert np.argmax(s @ e) == 5 * N + r


def permutation_of_circuit(c):
    u = circuit_unitary(c)
    assert np.allclose(np.abs(u) * (np.abs(u) > 0.5), np.abs(u))
    return np.argmax(np.abs(u), axis=0)


def test_increment_decrement_arithmetic():
    for n in (1, 2, 3):
        full = 3**n
        inc = permutation_of_circuit(build_increment(n))
        dec = permutation_of_circuit(build_decrement(n))
        for v in range(full):
            assert inc[v] == (v + 1) % full
            assert dec[v] == (v - 1) % full


def test_increment_carry_example():
    psi = np.zeros(27)
    psi[int("002", 3)] = 1
    out = apply_state(build_increment(3), psi)
    assert np.argmax(np.abs(out)) == int("010", 3)


def test_boundary_remap_closes_cycle():
    # For every padded N on up to 4 trits, each remap is one transposition,
    # built as one chain of 2d - 1 gates for the d digits in which its two
    # states differ.  After the modulo-3^n step and its remap, valid states
    # move by one modulo N and spare states stay spare, in both directions.
    for n in (1, 2, 3, 4):
        full = 3**n
        steps = {
            "increment": (permutation_of_circuit(build_increment(n)), 1),
            "decrement": (permutation_of_circuit(build_decrement(n)), -1),
        }
        for N in range(3 ** (n - 1), full):
            for direction, (step, delta) in steps.items():
                remap = build_boundary_remap(N, n, direction)
                swap = permutation_of_circuit(remap)
                moved = np.flatnonzero(swap != np.arange(full))
                assert len(moved) == 2, (N, direction)
                x, y = moved
                assert swap[x] == y and swap[y] == x
                d = sum((x // 3**j) % 3 != (y // 3**j) % 3 for j in range(n))
                assert len(remap) == 2 * d - 1, (N, direction)
                p = swap[step]
                for v in range(full):
                    if v < N:
                        assert p[v] == (v + delta) % N, (N, direction, v)
                    else:
                        assert p[v] >= N, (N, direction, v)


def test_boundary_remap_gate_counts_25():
    # The 27-state register with 25 live states: 25 = 221 and 0 = 000 differ
    # in three digits, so a 5-gate increment fix; 26 = 222 and 24 = 220 in
    # one, so a 1-gate decrement fix.
    assert len(build_boundary_remap(25, 3, "increment")) == 5
    assert len(build_boundary_remap(25, 3, "decrement")) == 1
    assert len(build_boundary_remap(27, 3, "increment")) == 0


def test_boundary_remap_validation():
    with pytest.raises(ValueError):
        build_boundary_remap(25, 3, "sideways")
    with pytest.raises(ValueError):
        build_boundary_remap(2, 3, "increment")


def test_rc_rotates_by_a():
    N, n = 7, 2
    for a in (0, 1, 3):
        rc = build_rc(N, n, a)
        perm = permutation_of_circuit(rc) if len(rc) else np.arange(3**n)
        for v in range(N):
            assert perm[v] == (v + a) % N
    assert len(build_rc(N, n, 0)) == 0


def embed_cycle_state(psi_ref, N, n):
    out = np.zeros(3 ** (n + 1), dtype=complex)
    for coin in range(3):
        out[coin * 3**n : coin * 3**n + N] = psi_ref[coin * N : (coin + 1) * N]
    return out


def test_cycle_layer_matches_reference():
    rng = np.random.default_rng(83)
    for N, a in [(3, 1), (5, 2), (9, 0)]:
        g = WalkGraph("cycle", N, a)
        coin = CoinSpec("xclass", theta=2 * np.pi / 3)
        layer = build_layer_cycle(N, coin, a)
        assert layer.width == g.circuit_width
        ref = reference_step_unitary(g, coin)
        psi_ref = rng.normal(size=3 * N) + 1j * rng.normal(size=3 * N)
        psi_ref /= np.linalg.norm(psi_ref)
        psi_c = embed_cycle_state(psi_ref, N, g.n)
        for _ in range(4):
            psi_ref = ref @ psi_ref
            psi_c = apply_state(layer, psi_c)
            assert np.linalg.norm(psi_c - embed_cycle_state(psi_ref, N, g.n)) < 1e-10


def embed_dihedral_state(psi_ref, N, n):
    out = np.zeros(3 ** (n + 2), dtype=complex)
    for coin in range(3):
        for flag in (0, 1):
            base = coin * 3 ** (n + 1) + flag * 3**n
            out[base : base + N] = psi_ref[coin * 2 * N + flag * N : coin * 2 * N + (flag + 1) * N]
    return out


def test_dihedral_layer_matches_reference():
    rng = np.random.default_rng(89)
    for N in (3, 5, 9):
        g = WalkGraph("dihedral", N)
        coin = CoinSpec("yclass", theta=np.pi / 2)
        layer = build_layer_dihedral(N, coin)
        assert layer.width == g.circuit_width
        ref = reference_step_unitary(g, coin)
        psi_ref = rng.normal(size=6 * N) + 1j * rng.normal(size=6 * N)
        psi_ref /= np.linalg.norm(psi_ref)
        psi_c = embed_dihedral_state(psi_ref, N, g.n)
        for _ in range(3):
            psi_ref = ref @ psi_ref
            psi_c = apply_state(layer, psi_c)
            assert np.linalg.norm(psi_c - embed_dihedral_state(psi_ref, N, g.n)) < 1e-10


def test_dihedral_padding_sector_fixed():
    # Flag-2 states (physically unreachable) must be exact fixed points.
    N = 3
    layer = build_layer_dihedral(N, GROVER)
    u = circuit_unitary(layer)
    for coin in range(3):
        for r in range(3):
            idx = coin * 9 + 2 * 3 + r
            e = np.zeros(27)
            e[idx] = 1
            assert np.linalg.norm(u @ e - e) < 1e-12


def test_dihedral_first_step_amplitudes():
    # One step from coin 0 at vertex (0, 0): the three coin branches move to
    # (0, r+1), stay at (0, 0), and reflect to (1, 0).
    N = 27
    c = coin_matrix(GROVER)
    layer = build_layer_dihedral(N, GROVER)
    psi = np.zeros(3**5, dtype=complex)
    psi[0] = 1
    out = apply_state(layer, psi)
    expect = np.zeros(3**5, dtype=complex)
    expect[int("00001", 3)] = c[0, 0]
    expect[int("10000", 3)] = c[1, 0]
    expect[int("21000", 3)] = c[2, 0]
    assert np.linalg.norm(out - expect) < 1e-12


def test_layer_gate_counts_stable():
    # The layer builders emit deterministic circuits.
    layer = build_layer_dihedral(27, GROVER)
    again = build_layer_dihedral(27, GROVER)
    assert len(layer) == len(again)
    counts = count_gates(layer)
    assert counts.total == len(layer)


@pytest.mark.parametrize(
    "graph, n, a",
    [("cycle", n, a) for a in (0, 2) for n in (3, 4, 10, 27)]
    + [("dihedral", n, None) for n in (3, 5, 27)],
)
def test_walk_layers_touch_every_wire(graph, n, a):
    # Every wire is touched, lowered or not, so idle damping kept to the
    # wires a layer leaves alone would never act on a walk.
    layer = build_layer_dihedral(n, GROVER) if graph == "dihedral" else build_layer_cycle(n, GROVER, a)
    every = set(range(1, layer.width + 1))
    for c in (layer, lower_circuit(layer)):
        assert {w for g in c.gates for w in (g.target, *(u for u, _ in g.controls))} == every
