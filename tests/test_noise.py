import weakref
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tritwalk.circuit
import tritwalk.noise
from tritwalk.circuit import apply_state, circuit_unitary, embed_gate, split_runs
from tritwalk.noise import (
    IDLE_KINDS,
    KrausChannel,
    NoiseConfig,
    _GELL_MANN,
    _from_gell_mann,
    _layer_ops,
    _superop,
    _to_gell_mann,
    _twirl_diagonal,
    amplitude_damping_channel,
    apply_channel,
    clamped_p1,
    depolarizing_channel,
    phase_damping_channel,
    resolve_noise,
    simulate_noisy_walk,
)
from tritwalk.toffoli import lower_circuit
from tritwalk.walk import CoinSpec, build_layer_cycle, build_layer_dihedral

from helpers import completeness_defect, random_circuit, random_unitary, twirl_depolarizing


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_depolarizing_operator_count_and_completeness():
    for k, p1 in [(1, 0.0), (1, 0.05), (1, 1 / 9), (2, 1 / 100)]:
        ch = depolarizing_channel(k, p1)
        assert len(ch.operators) == 3 ** (2 * k) + 1
        assert ch.arity == k
        assert completeness_defect(ch) < 1e-12


def test_depolarizing_rejects_non_cp_weight():
    with pytest.raises(ValueError):
        depolarizing_channel(1, 0.2)
    with pytest.raises(ValueError):
        depolarizing_channel(2, 1 / 9)
    assert clamped_p1(0.2, 1) == 1 / 9
    assert clamped_p1(0.001, 2) == 0.001


def test_depolarizing_full_strength_mixes():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 3)
    out = apply_channel(rho, depolarizing_channel(1, 1 / 9), (1,))
    assert np.allclose(out, np.eye(3) / 3, atol=1e-12)


def test_amplitude_damping_hand_values():
    ch = amplitude_damping_channel(1.0, 1.0, np.log(2))
    assert completeness_defect(ch) < 1e-12
    rho = np.zeros((3, 3), dtype=complex)
    rho[1, 1] = 1
    out = apply_channel(rho, ch, (1,))
    assert np.allclose(np.diag(out).real, [0.5, 0.5, 0.0], atol=1e-12)
    # t=0 is the identity channel
    ident = amplitude_damping_channel(1.0, 1.0, 0.0)
    rho = random_density(np.random.default_rng(3), 3)
    assert np.allclose(apply_channel(rho, ident, (1,)), rho, atol=1e-14)


def test_phase_damping_off_diagonal_factor():
    r1, t = 0.7, 1.3
    ch = phase_damping_channel(r1, t)
    assert completeness_defect(ch) < 1e-12
    rho = random_density(np.random.default_rng(5), 3)
    out = apply_channel(rho, ch, (1,))
    e = np.exp(-r1 * t)
    factor = e + (1 - e) * np.exp(-2j * np.pi / 3)
    assert np.allclose(np.diag(out), np.diag(rho), atol=1e-12)
    assert abs(out[0, 1] - rho[0, 1] * factor) < 1e-12


def test_kraus_channel_validation():
    with pytest.raises(ValueError):
        KrausChannel("empty", ())
    with pytest.raises(ValueError):
        KrausChannel("ragged", (np.eye(3), np.eye(9)))
    with pytest.raises(ValueError):
        KrausChannel("dim", (np.eye(4),))
    # A 1x1 operator is a scalar on zero wires.
    assert KrausChannel("scalar", (np.eye(1),)).arity == 0
    with pytest.raises(ValueError):
        amplitude_damping_channel(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        phase_damping_channel(0.1, -1.0)


def test_apply_channel_matches_kron_oracle():
    rng = np.random.default_rng(17)
    rho = random_density(rng, 9)
    ch = amplitude_damping_channel(0.3, 0.9, 1.0)
    for wire, embed in [(1, lambda m: np.kron(m, np.eye(3))), (2, lambda m: np.kron(np.eye(3), m))]:
        want = sum(embed(op) @ rho @ embed(op).conj().T for op in ch.operators)
        got = apply_channel(rho, ch, (wire,))
        assert np.linalg.norm(got - want) < 1e-12


def test_apply_channel_validation():
    rho = np.eye(3) / 3
    ch = phase_damping_channel(0.1, 1.0)
    with pytest.raises(ValueError):
        apply_channel(rho, ch, (1, 2))
    with pytest.raises(ValueError):
        apply_channel(rho, ch, (2,))
    with pytest.raises(ValueError):
        apply_channel(np.eye(4) / 4, ch, (1,))


def test_twirl_matches_explicit_weyl_sum():
    rng = np.random.default_rng(23)
    for wires, k in [((2,), 1), ((1, 3), 2), ((3, 1), 2)]:
        width = 3
        rho = random_density(rng, 27)
        p1 = 0.4 * 3.0 ** (-2 * k)
        explicit = apply_channel(rho, depolarizing_channel(k, p1), wires)
        t = rho.reshape((3,) * 6)
        fast = twirl_depolarizing(t, wires, width, p1).reshape(27, 27)
        assert np.linalg.norm(fast - explicit) < 1e-12


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(idle_kind="thermal")
    with pytest.raises(ValueError):
        NoiseConfig(p1=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(epsilon_exponent=3)  # no seed
    with pytest.raises(ValueError):
        resolve_noise(NoiseConfig(gate_noise_enabled=True))
    with pytest.raises(ValueError):
        resolve_noise(NoiseConfig(idle_kind="amplitude", r1=0.1))


def test_resolve_noise_draws_proportionally():
    a = resolve_noise(NoiseConfig(epsilon_exponent=1, rng_seed=42))
    b = resolve_noise(NoiseConfig(epsilon_exponent=6, rng_seed=42))
    again = resolve_noise(NoiseConfig(epsilon_exponent=1, rng_seed=42))
    assert a == again
    for name in ("p1", "r1", "r2"):
        va, vb = getattr(a, name), getattr(b, name)
        assert 0 < vb < va
        assert abs(va / vb - 1e5) < 1e-6 * 1e5
    assert a.epsilon_exponent is None  # resolving twice does not redraw


def test_noiseless_simulation_matches_state_vector():
    coin = CoinSpec("xclass", theta=np.pi)
    layer = build_layer_dihedral(3, coin)
    width = layer.width
    psi = np.zeros(3**width, dtype=complex)
    psi[0] = 1
    rho = np.outer(psi, psi.conj())
    out = list(simulate_noisy_walk(layer, width, rho, 4, NoiseConfig()))
    assert len(out) == 4
    for step in out:
        psi = apply_state(layer, psi)
        assert np.linalg.norm(step - np.outer(psi, psi.conj())) < 1e-9


def test_zero_strength_gate_noise_is_noiseless():
    coin = CoinSpec("zclass", theta=1.1)
    layer = build_layer_cycle(3, coin, 1)
    width = layer.width
    psi = np.full(3**width, 0.0, dtype=complex)
    psi[:3] = 1 / np.sqrt(3)
    rho = np.outer(psi, psi.conj())
    noisy = list(simulate_noisy_walk(layer, width, rho, 2, NoiseConfig(gate_noise_enabled=True, p1=0.0)))
    clean = list(simulate_noisy_walk(layer, width, rho, 2, NoiseConfig()))
    for a, b in zip(noisy, clean):
        assert np.linalg.norm(a - b) < 1e-9


def test_noisy_run_stays_physical():
    coin = CoinSpec("xclass", theta=np.pi)
    layer = build_layer_dihedral(3, coin)
    width = layer.width
    psi = np.zeros(3**width, dtype=complex)
    psi[0] = 1
    rho = np.outer(psi, psi.conj())
    noise = NoiseConfig(
        gate_noise_enabled=True,
        idle_kind="amplitude",
        epsilon_exponent=2,
        rng_seed=9,
    )
    last = None
    for last in simulate_noisy_walk(layer, width, rho, 5, noise):
        pass
    assert abs(np.trace(last).real - 1) < 1e-10
    assert np.linalg.norm(last - last.conj().T) < 1e-10
    assert np.linalg.eigvalsh(last).min() > -1e-10


def test_idle_damping_acts_on_every_wire_of_a_walk_layer():
    # A walk layer touches every wire, and the idle channel still follows
    # it on each of them.
    coin = CoinSpec("xclass", theta=np.pi)
    layer = build_layer_cycle(3, coin, 0)
    width = layer.width
    psi = np.zeros(3**width, dtype=complex)
    psi[1] = 1
    rho = np.outer(psi, psi.conj())
    clean = next(simulate_noisy_walk(layer, width, rho, 1, NoiseConfig()))
    got = next(simulate_noisy_walk(layer, width, rho, 1, NoiseConfig(idle_kind="amplitude", r1=0.5, r2=0.5)))
    want = clean
    for w in range(1, width + 1):
        want = apply_channel(want, amplitude_damping_channel(0.5, 0.5, 1.0), (w,))
    assert np.linalg.norm(got - want) < 1e-12
    assert np.linalg.norm(got - clean) > 1e-3


@pytest.mark.parametrize("gate_noise", [False, True], ids=["complex", "gell-mann"])
def test_initial_density_dies_in_the_first_step(gate_noise):
    # Once the caller lets go of it, the initial density is read by the
    # first step and then held by nothing.
    layer = build_layer_dihedral(3, CoinSpec("xclass", theta=np.pi))
    rho = random_density(np.random.default_rng(3), 27)
    alive = weakref.ref(rho)
    noise = NoiseConfig(gate_noise_enabled=gate_noise, p1=0.01, idle_kind="phase", r1=0.2)
    run = simulate_noisy_walk(layer, 3, rho, 2, noise)
    del rho
    next(run)
    assert alive() is None
    assert abs(np.trace(next(run)) - 1) < 1e-12


@pytest.mark.parametrize("idle_kind", ["amplitude", "none"])
def test_mutating_a_yielded_density_leaves_the_run_unchanged(idle_kind):
    # Each yielded density is the caller's own, whether the step ends on an
    # idle channel (a moveaxis view, which reshape copies) or on a basis
    # permutation (a contiguous tensor, which reshape would share).
    layer = build_layer_dihedral(9, CoinSpec("xclass", theta=np.pi))
    rho = random_density(np.random.default_rng(11), 3**layer.width)
    noise = NoiseConfig(idle_kind=idle_kind, r1=0.2, r2=0.1)
    want = list(simulate_noisy_walk(layer, layer.width, rho, 4, noise))
    for t, got in enumerate(simulate_noisy_walk(layer, layer.width, rho, 4, noise)):
        assert got.tobytes() == want[t].tobytes(), t
        got[...] = np.nan


def test_gate_noise_idles_wires_that_lowering_leaves_untouched():
    # A doubly-controlled phase lowers onto its control wires alone; idle
    # damping acts on those and on its untouched target wire alike.
    from tritwalk.circuit import Circuit, phase

    layer = Circuit(3, (phase(0.7, 3, ((1, 2), (2, 1))),))
    assert {w for g in lower_circuit(layer).gates for w in _sorted_support(g)} == {1, 2}
    rho = random_density(np.random.default_rng(5), 27)
    noise = NoiseConfig(gate_noise_enabled=True, p1=0.01, idle_kind="amplitude", r1=0.3, r2=0.2)
    got = next(simulate_noisy_walk(layer, 3, rho, 1, noise))
    gates_only = NoiseConfig(gate_noise_enabled=True, p1=0.01)
    want = next(simulate_noisy_walk(layer, 3, rho, 1, gates_only))
    for w in (1, 2, 3):
        want = apply_channel(want, amplitude_damping_channel(0.3, 0.2, 1.0), (w,))
    assert np.linalg.norm(got - want) < 1e-12


def _spy_unitary_widths(monkeypatch):
    # (kind, k) of every run matrix the density plan builds: a unitary or
    # a basis permutation on k wires.
    built = []
    real = tritwalk.noise.run_matrix

    def spy(run, axes, width):
        built.append(("permutation" if run.gates[0].kind == "xgate" else "unitary", run.width))
        return real(run, axes, width)

    monkeypatch.setattr(tritwalk.noise, "run_matrix", spy)
    return built


def test_unitary_acts_on_the_wires_its_gates_touch(monkeypatch):
    # Gates on wires 1-2 of three: a one-wire unitary, a permutation of
    # wires 1-2 and a one-wire unitary, then damping on every wire.
    from tritwalk.circuit import Circuit, rotation, xgate

    layer = Circuit(3, (rotation("Y01", 0.9, 1), xgate("X+1", 2, ((1, 2),)), rotation("Z12", 0.4, 2)))
    widths = _spy_unitary_widths(monkeypatch)
    rho = random_density(np.random.default_rng(8), 27)
    noise = NoiseConfig(idle_kind="amplitude", r1=0.3, r2=0.2)
    got = next(simulate_noisy_walk(layer, 3, rho, 1, noise))
    assert widths == [("unitary", 1), ("permutation", 2), ("unitary", 1)]
    u = embed_gate(3, layer.gates[2]) @ embed_gate(3, layer.gates[1]) @ embed_gate(3, layer.gates[0])
    want = u @ rho @ u.conj().T
    for w in (1, 2, 3):
        want = apply_channel(want, amplitude_damping_channel(0.3, 0.2, 1.0), (w,))
    assert np.linalg.norm(got - want) < 1e-12


def test_layer_without_gates_builds_no_unitary_and_idles_every_wire(monkeypatch):
    from tritwalk.circuit import Circuit

    widths = _spy_unitary_widths(monkeypatch)
    rho = random_density(np.random.default_rng(9), 27)
    got = next(simulate_noisy_walk(Circuit(3), 3, rho, 1, NoiseConfig(idle_kind="phase", r1=0.7)))
    assert widths == []
    want = rho
    for w in (1, 2, 3):
        want = apply_channel(want, phase_damping_channel(0.7, 1.0), (w,))
    assert np.linalg.norm(got - want) < 1e-12


def test_compiled_density_step_matches_unitary_conjugation():
    # Seeded random circuits of width <= 4 mixing rotations, xgates and
    # phases with valued controls, xgate runs on strict subsets included.
    rng = np.random.default_rng(41)
    subset_x_runs = 0
    for width in (1, 2, 3, 4):
        for _ in range(5):
            c = random_circuit(rng, width, 14)
            runs = split_runs(c)
            subset_x_runs += sum(r.gates[0].kind == "xgate" and r.width < width for _, r in runs)
            rho = random_density(rng, 3**width)
            u = circuit_unitary(c)
            got = next(simulate_noisy_walk(c, width, rho, 1, NoiseConfig()))
            assert np.abs(got - u @ rho @ u.conj().T).max() < 1e-12
    assert subset_x_runs > 0


@pytest.mark.parametrize("layer", [build_layer_dihedral(27, CoinSpec("xclass", theta=np.pi)),
                                   build_layer_cycle(81, CoinSpec("zclass", theta=1.1), 2)],
                         ids=["dihedral-27", "cycle-81-a2"])
def test_walk_layer_is_one_small_unitary_and_one_permutation(layer):
    # The coin run on at most two wires (its ket and bra ops), then one
    # gather of the whole 5-wire density: no 3^5 x 3^5 unitary is built.
    (ket, u), (bra, u_conj), (axes, index) = _layer_ops(layer, None)
    assert len(ket) <= 2 and u.shape == (3 ** len(ket),) * 2
    assert bra == tuple(5 + a for a in ket) and np.array_equal(u_conj, u.conj())
    assert axes == tuple(range(10)) and index.shape == (9**5,)
    assert np.array_equal(np.sort(index), np.arange(9**5))


def test_unitary_and_its_conjugate_count_against_the_budget(monkeypatch):
    # Dihedral-3 has 3 wires, all touched: the working set of six densities,
    # the coin unitary on wires 1-2 and its conjugate, the shift's 9^3
    # gather index, and three op list entries, the gather's axes tuple six
    # long; refused before any matrix or index is built.
    layer = build_layer_dihedral(3, CoinSpec("xclass", theta=np.pi))
    rho = np.eye(27) / 27
    widths = _spy_unitary_widths(monkeypatch)
    noise = NoiseConfig(idle_kind="amplitude", r1=0.3, r2=0.2)
    size = 6 * 16 * 9**3 + 32 * 9**2 + 8 * 9**3 + 2 * 120 + (120 + 4 * 8)
    monkeypatch.setattr(tritwalk.noise, "DENSITY_BUDGET_BYTES", size - 1)
    with pytest.raises(ValueError, match=f"3 wires takes {size} bytes"):
        next(simulate_noisy_walk(layer, 3, rho, 1, noise))
    assert widths == []
    monkeypatch.setattr(tritwalk.noise, "DENSITY_BUDGET_BYTES", size)
    assert np.trace(next(simulate_noisy_walk(layer, 3, rho, 1, noise))).real == pytest.approx(1)
    assert widths == [("unitary", 2), ("permutation", 3)]


def test_width_8_walk_unitary_is_refused_before_it_is_built(monkeypatch):
    # 6 * 16 * 9^8 + 2 * 16 * 9^2 + 8 * 9^8 + 2 * 120 + (120 + 14 * 8)
    # = 4,476,862,048 bytes is over the 2^30-byte budget; width 7 counts
    # 497,431,824 and gets to the build.  No density is made here.
    def no_build(*_):
        raise AssertionError("run matrix built")

    monkeypatch.setattr(tritwalk.noise, "run_matrix", no_build)
    monkeypatch.setattr(tritwalk.circuit, "circuit_unitary", no_build)
    monkeypatch.setattr(tritwalk.circuit, "apply_state", no_build)
    coin = CoinSpec("xclass", theta=np.pi)
    with pytest.raises(ValueError, match="8 wires takes 4476862048 bytes"):
        _layer_ops(build_layer_dihedral(729, coin), None)
    with pytest.raises(AssertionError, match="run matrix built"):
        _layer_ops(build_layer_dihedral(243, coin), None)


def test_width_8_gate_noise_matrices_are_refused_before_they_are_built(monkeypatch):
    # 6 * 16 * 9^8 + 7,085,880 bytes of transfer matrices + 16,327 op list
    # entries of 120 B = 4,141,530,336 bytes is over the budget; width 7
    # counts 465,954,240 and gets to the build.
    def no_build(*_args, **_kwargs):
        raise AssertionError("transfer matrix built")

    monkeypatch.setattr(tritwalk.noise, "embed_gate", no_build)
    monkeypatch.setattr(tritwalk.noise, "_superop", no_build)
    coin = CoinSpec("xclass", theta=np.pi)
    with pytest.raises(ValueError, match="8 wires takes 4141530336 bytes"):
        _layer_ops(build_layer_dihedral(729, coin), 1e-4)
    with pytest.raises(AssertionError, match="transfer matrix built"):
        _layer_ops(build_layer_dihedral(243, coin), 1e-4)


def test_width_8_density_is_refused_before_lowering(monkeypatch):
    # The first check counts the six-density working set alone,
    # 6 * 16 * 9^8 = 4,132,485,216 bytes, before the layer is lowered or the
    # density looked at: a 1 x 1 placeholder stands in for it.
    def no_lowering(_):
        raise AssertionError("lowered before the budget check")

    monkeypatch.setattr(tritwalk.noise, "lower_circuit", no_lowering)
    layer = build_layer_dihedral(729, CoinSpec("xclass", theta=np.pi))
    noise = NoiseConfig(gate_noise_enabled=True, p1=1e-4)
    with pytest.raises(ValueError, match="8 wires takes 4132485216 bytes"):
        next(simulate_noisy_walk(layer, 8, np.eye(1), 1, noise))


def test_gate_noise_on_random_unitary_layer_matches_channel_oracle():
    # One uncontrolled random rotation: per-gate twirl equals gate
    # conjugation followed by a k=1 depolarizing channel.
    from tritwalk.circuit import Circuit, gate_matrix, rotation
    from tritwalk.gates import AXES

    rng = np.random.default_rng(31)
    g = rotation(AXES[rng.integers(len(AXES))], rng.uniform(-np.pi, np.pi), 1)
    layer = Circuit(2, (g,))
    rho = random_density(rng, 9)
    p1 = 0.02
    noise = NoiseConfig(gate_noise_enabled=True, p1=p1)
    got = next(simulate_noisy_walk(layer, 2, rho, 1, noise))
    big = np.kron(gate_matrix(g), np.eye(3))
    want = apply_channel(big @ rho @ big.conj().T, depolarizing_channel(1, p1), (1,))
    assert np.linalg.norm(got - want) < 1e-12


def test_superop_path_matches_explicit_kraus_route():
    # The simulator fuses each gate with its twirl into one superoperator;
    # replay the same schedule with embedded unitaries and explicit Kraus
    # sums and demand agreement.  The seeded random circuits add every gate
    # kind, every control value and multi-controlled gates, which both
    # routes see lowered.
    from tritwalk.circuit import Circuit, embed_gate, phase, rotation, xgate
    from tritwalk.noise import clamped_p1
    from tritwalk.toffoli import lower_circuit

    width = 3
    gates = (
        rotation("Y01", 0.7, 1),
        xgate("X+2", 2, ((3, 0),)),
        phase(0.4, 3),
        rotation("Z12", -1.1, 3, ((1, 2),)),
        xgate("X02", 1),
    )
    crng = np.random.default_rng(324)
    randoms = [random_circuit(crng, width, 5) for _ in range(4)]
    drawn = [g for c in randoms for g in c.gates]
    assert {g.kind for g in drawn} == {"rotation", "xgate", "phase"}
    assert {v for g in drawn for _, v in g.controls} == {0, 1, 2}
    assert {g.kind for g in drawn if len(g.controls) == 2} == {"rotation", "xgate", "phase"}
    cases = [(Circuit(width, gates), "amplitude")] + [
        (c, kind) for c, kind in zip(randoms, ("amplitude", "phase") * 2)
    ]

    rng = np.random.default_rng(47)
    p1, r1, r2 = 0.01, 0.3, 0.2
    twirls = {k: depolarizing_channel(k, clamped_p1(p1, k)) for k in (1, 2)}
    for layer, idle_kind in cases:
        rho = random_density(rng, 27)
        noise = NoiseConfig(gate_noise_enabled=True, p1=p1, idle_kind=idle_kind, r1=r1, r2=r2)
        got = list(simulate_noisy_walk(layer, width, rho, 2, noise))

        if idle_kind == "amplitude":
            idle = amplitude_damping_channel(r1, r2, 1.0)
        else:
            idle = phase_damping_channel(r1, 1.0)
        want = rho
        for _ in range(2):
            for g in lower_circuit(layer).gates:
                u = embed_gate(width, g)
                want = u @ want @ u.conj().T
                support = (g.target,) + tuple(w for w, _ in g.controls)
                want = apply_channel(want, twirls[len(support)], support)
            for w in (1, 2, 3):
                want = apply_channel(want, idle, (w,))
        assert np.linalg.norm(got[-1] - want) < 1e-12


def test_simulate_validation():
    coin = CoinSpec("xclass", theta=np.pi)
    layer = build_layer_cycle(3, coin, 0)
    rho = np.eye(3**layer.width) / 3**layer.width
    with pytest.raises(ValueError):
        list(simulate_noisy_walk(layer, layer.width + 1, rho, 1, NoiseConfig()))
    with pytest.raises(ValueError):
        list(simulate_noisy_walk(layer, layer.width, rho[:3, :3], 1, NoiseConfig()))
    bad = rho.copy()
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        list(simulate_noisy_walk(layer, layer.width, bad, 1, NoiseConfig()))


def test_gell_mann_basis_orthonormal_and_hermitian():
    b = _GELL_MANN
    assert b.shape == (9, 3, 3)
    assert np.allclose(b[0], np.eye(3) / np.sqrt(3), atol=1e-15)
    for m in b:
        assert np.array_equal(m, m.conj().T)
    gram = np.einsum("iab,jba->ij", b, b)
    assert np.abs(gram - np.eye(9)).max() < 1e-15


def test_gell_mann_round_trip():
    rng = np.random.default_rng(61)
    for width in (1, 2, 3):
        rho = random_density(rng, 3**width)
        c = _to_gell_mann(rho, width)
        assert c.dtype == np.float64 and c.shape == (9,) * width
        assert abs(c.reshape(-1)[0] * 3 ** (width / 2) - 1) < 1e-14  # trace
        assert np.abs(_from_gell_mann(c, width) - rho).max() < 1e-14


def test_trace_preserving_transfer_matrices_keep_e0():
    rng = np.random.default_rng(67)
    channels = [
        (amplitude_damping_channel(0.3, 0.9, 1.0).operators, 1),
        (phase_damping_channel(0.7, 1.3).operators, 1),
        (depolarizing_channel(1, 0.05).operators, 1),
        (depolarizing_channel(2, 0.004).operators, 2),
        ((random_unitary(rng, 3),), 1),
        ((random_unitary(rng, 9),), 2),
    ]
    for ops, k in channels:
        m = _superop(ops, k, real=True)
        assert m.dtype == np.float64 and m.shape == (9**k, 9**k)
        e0 = np.zeros(9**k)
        e0[0] = 1
        assert np.array_equal(m[0], e0)


def test_twirl_is_diagonal_in_gell_mann_basis():
    for k, p1 in ((1, 0.05), (2, 0.004)):
        m = _superop(depolarizing_channel(k, p1).operators, k, real=True)
        d = _twirl_diagonal(k, p1)
        assert d[0] == 1 and np.all(d[1:] == 1 - 3 ** (2 * k) * p1)
        assert np.abs(m - np.diag(d)).max() < 1e-14


def _sorted_support(g):
    return tuple(sorted((g.target,) + tuple(w for w, _ in g.controls)))


def _transfer_oracle(g, width, p1):
    # Transfer matrix of gate + twirl from its definition, Tr(P_i E(P_j)),
    # on the full register: P_j is a Gell-Mann product on the gate's sorted
    # support and the identity elsewhere, U is the full-width gate.
    support = _sorted_support(g)
    k = len(support)
    basis = []
    for idx in product(range(9), repeat=k):
        factors = [np.eye(3)] * width
        for w, i in zip(support, idx):
            factors[w - 1] = _GELL_MANN[i]
        basis.append(reduce(np.kron, factors))
    basis = np.array(basis)
    u = embed_gate(width, g)
    moved = np.moveaxis(u @ basis @ u.conj().T, 0, -1).reshape((3,) * (2 * width) + (len(basis),))
    out = twirl_depolarizing(moved, support, width, p1).reshape(3**width, 3**width, -1)
    return support, np.einsum("iab,baj->ij", basis, out, optimize=True).real / 3 ** (width - k)


def test_cached_transfers_match_per_gate_build():
    # Each op is the ordered product of its run's per-gate maps, each
    # promoted onto the run's wires; a run takes every next gate whose
    # support lies on its wires.
    layer = build_layer_dihedral(3, CoinSpec("xclass", theta=np.pi))
    lowered = lower_circuit(layer)
    assert lowered.width == 3
    p1 = 0.003
    ops = _layer_ops(layer, p1)
    assert len({id(m) for _, m in ops}) < len(ops)  # equal runs share a matrix
    gates = list(lowered.gates)
    for axes, m in ops:
        wires = tuple(a + 1 for a in axes)
        want = np.eye(9 ** len(wires))
        while gates and set(_sorted_support(gates[0])) <= set(wires):
            support, t = _transfer_oracle(gates.pop(0), 3, p1)
            if support != wires:
                t = np.kron(t, np.eye(9)) if support[0] == wires[0] else np.kron(np.eye(9), t)
            want = t @ want
        assert np.abs(m - want).max() < 1e-13
    assert not gates


def test_density_budget_checked_before_lowering(monkeypatch):
    layer = build_layer_dihedral(3, CoinSpec("xclass", theta=np.pi))
    rho = np.eye(27) / 27

    def no_lowering(_):
        raise AssertionError("lowered before the budget check")

    monkeypatch.setattr(tritwalk.noise, "lower_circuit", no_lowering)
    monkeypatch.setattr(tritwalk.noise, "DENSITY_BUDGET_BYTES", 6 * 16 * 9**3 - 1)
    noise = NoiseConfig(gate_noise_enabled=True, p1=0.01)
    with pytest.raises(ValueError, match=f"3 wires takes {6 * 16 * 9**3} bytes"):
        next(simulate_noisy_walk(layer, 3, rho, 1, noise))
    monkeypatch.setattr(tritwalk.noise, "DENSITY_BUDGET_BYTES", 6 * 16 * 9**3)
    with pytest.raises(AssertionError):
        next(simulate_noisy_walk(layer, 3, rho, 1, noise))


def test_gate_noise_ops_count_against_the_budget(monkeypatch):
    # Dihedral-27 lowers to 559 fused 81 x 81 ops on 81 distinct matrices,
    # 4.25 MB, next to a working set of six 0.9 MB densities; a 6 MB budget
    # admits the densities but not the matrices, and the refusal comes
    # before any is built.  Each op list entry adds its pair, its axes tuple
    # and its list slot, 120 B.
    layer = build_layer_dihedral(27, CoinSpec("xclass", theta=np.pi))
    rho = np.zeros((3**5, 3**5))
    rho[0, 0] = 1
    monkeypatch.setattr(tritwalk.noise, "DENSITY_BUDGET_BYTES", 6 * 10**6)

    def no_build(*_args, **_kwargs):
        raise AssertionError("built a transfer matrix before the budget check")

    monkeypatch.setattr(tritwalk.noise, "_superop", no_build)
    noise = NoiseConfig(gate_noise_enabled=True, p1=1e-4)
    size = 6 * 16 * 9**5 + 81 * 8 * 81**2 + 559 * 120  # 9,987,312 bytes
    with pytest.raises(ValueError, match=f"5 wires takes {size} bytes"):
        next(simulate_noisy_walk(layer, 5, rho, 1, noise))


@pytest.mark.parametrize(
    "graph, n, n_ops, n_matrices",
    [
        ("dihedral", 5, 1531, 116),
        ("cycle", 4, 863, 111),
        ("dihedral", 10, 25859, 200),
        ("dihedral", 27, 559, 81),
    ],
    ids=["dihedral-5", "cycle-4-a2", "dihedral-10", "dihedral-27"],
)
def test_fused_ops_share_matrices(graph, n, n_ops, n_matrices):
    # Padded layers (N not a power of 3) lower to many more gates, but their
    # runs still repeat; the cycle layer has liveliness a = 2.
    coin = CoinSpec("xclass", theta=np.pi)
    layer = build_layer_dihedral(n, coin) if graph == "dihedral" else build_layer_cycle(n, coin, 2)
    ops = _layer_ops(layer, 1e-4)
    assert len(ops) == n_ops
    assert len({id(m) for _, m in ops}) == n_matrices
    assert {m.shape for _, m in ops} == {(81, 81)}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 3),
    ngates=st.integers(1, 3),
    gate_noise_enabled=st.booleans(),
    p1=st.floats(0, 1 / 9),
    idle_kind=st.sampled_from(IDLE_KINDS),
    r1=st.floats(0, 2),
    r2=st.floats(0, 2),
)
# The derandomized draws without gate noise all have idle_kind none; these
# two add idle channels after the compiled runs, one of them on a wire that
# no gate touches.
@example(seed=6, width=3, ngates=1, gate_noise_enabled=False, p1=0.0, idle_kind="amplitude",
         r1=0.4, r2=1.3)
@example(seed=9, width=3, ngates=2, gate_noise_enabled=False, p1=0.0, idle_kind="phase",
         r1=0.8, r2=0.0)
def test_engine_matches_kraus_oracle_on_random_circuits(
    seed, width, ngates, gate_noise_enabled, p1, idle_kind, r1, r2
):
    # With gate noise each lowered gate is followed by its twirl; without it
    # the unlowered gates act as they are.
    rng = np.random.default_rng(seed)
    layer = random_circuit(rng, width, ngates)
    rho = random_density(rng, 3**width)
    noise = NoiseConfig(
        gate_noise_enabled=gate_noise_enabled,
        p1=p1,
        idle_kind=idle_kind,
        r1=r1,
        r2=r2,
    )
    got = next(simulate_noisy_walk(layer, width, rho, 1, noise))

    twirls = {k: depolarizing_channel(k, clamped_p1(p1, k)) for k in (1, 2)}
    replayed = lower_circuit(layer) if gate_noise_enabled else layer
    want = rho
    for g in replayed.gates:
        u = embed_gate(width, g)
        want = u @ want @ u.conj().T
        support = (g.target,) + tuple(w for w, _ in g.controls)
        if gate_noise_enabled:
            want = apply_channel(want, twirls[len(support)], support)
    if idle_kind != "none":
        if idle_kind == "amplitude":
            idle = amplitude_damping_channel(r1, r2, 1.0)
        else:
            idle = phase_damping_channel(r1, 1.0)
        for w in range(1, width + 1):
            want = apply_channel(want, idle, (w,))
    assert np.linalg.norm(got - want) < 1e-12


def test_gate_noise_path_holds_trace_over_many_steps():
    # Trace is the Gell-Mann coefficient of the identity, which every
    # trace-preserving transfer matrix leaves alone; rounding must not
    # accumulate into it step after step.
    layer = build_layer_dihedral(3, CoinSpec("xclass", theta=np.pi))
    rho = random_density(np.random.default_rng(71), 27)
    noise = NoiseConfig(gate_noise_enabled=True, p1=0.01, idle_kind="amplitude", r1=0.2, r2=0.1)
    for out in simulate_noisy_walk(layer, 3, rho, 60, noise):
        assert abs(np.trace(out) - 1) < 1e-14
