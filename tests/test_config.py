from dataclasses import replace

import numpy as np
import pytest

from tritwalk.analysis import vertex_distribution
from tritwalk.config import build_initial_state, parse_config
from tritwalk.walk import WalkGraph

DIHEDRAL = """
[graph]
kind = dihedral
vertices = 27

[run]
steps = 10
"""

CYCLE = """
[graph]
kind = cycle
vertices = 5
liveliness = 2

[coin]
kind = zclass
theta = 1.25

[initial]
coin = superposition
vertex = 3

[run]
steps = 7
average_includes_t0 = true

[noise]
gate = true
idle = phase
r1 = 0.01
p1 = 0.001
seed = 5
"""


def test_parse_dihedral_defaults():
    cfg = parse_config(DIHEDRAL)
    assert cfg.graph.kind == "dihedral"
    assert cfg.graph.N == 27
    assert cfg.coin.kind == "xclass" and cfg.coin.theta == np.pi
    assert cfg.initial_vertex == 0 and cfg.graph.labels[cfg.initial_vertex] == "0:0"
    assert np.allclose(cfg.initial_coin, [1, 0, 0])
    assert cfg.steps == 10
    assert not cfg.average_includes_t0
    assert not cfg.noise.gate_noise_enabled
    assert cfg.noise.idle_kind == "none"


def test_parse_cycle_full():
    cfg = parse_config(CYCLE)
    assert cfg.graph.kind == "cycle"
    assert cfg.graph.liveliness == 2
    assert cfg.coin.kind == "zclass" and cfg.coin.theta == 1.25
    assert np.allclose(cfg.initial_coin, np.full(3, 1 / np.sqrt(3)))
    assert cfg.initial_vertex == 3
    assert cfg.average_includes_t0
    assert cfg.noise.gate_noise_enabled
    assert cfg.noise.idle_kind == "phase"
    assert cfg.noise.r1 == 0.01
    assert cfg.noise.rng_seed == 5


def test_custom_coin_matrix():
    text = DIHEDRAL + "\n[coin]\nkind = custom\nmatrix = 1,0,0,0,0,1,0,1,0\n"
    cfg = parse_config(text)
    assert cfg.coin.kind == "custom"
    assert cfg.coin.matrix[1, 2] == 1
    spaced = parse_config(DIHEDRAL + "\n[coin]\nkind = custom\nmatrix = 1 0 0  0 0 1  0 1 0\n")
    assert np.array_equal(spaced.coin.matrix, cfg.coin.matrix)


@pytest.mark.parametrize(
    "mutation",
    [
        "[grid]\nfoo = 1\n",  # unknown section
        "[coin]\nkind = vclass\ntheta = 1\n",
        "[coin]\nkind = xclass\n",  # theta missing
        "[coin]\nkind = xclass\ntheta = 1\nmatrix = 1,0,0,0,1,0,0,0,1\n",
        "[coin]\nkind = custom\nmatrix = 1,0,0\n",
        "[coin]\nkind = custom\nmatrix = 1,0,0,0,1,0,0,0,1\ntheta = 1\n",
        "[initial]\ncoin = 3\n",
        "[initial]\nvertex = 27\n",  # vertex needs s:r on dihedral
        "[initial]\nvertex = 2:0\n",
        "[initial]\nvertex = 0:27\n",
        "[initial]\nvertex = 00:1\n",  # labels are written exactly as walk.csv writes them
        "[noise]\nidle = cosmic\n",
        "[noise]\nidle_scope = nearby\n",
        "[noise]\nidle_scope = untouched\n",  # idle damping acts on every wire
        "[noise]\nepsilon = 3\n",  # draw without seed
        "[noise]\nepsilon = -309\nseed = 1\n",  # 10^309 is not a finite float
        "[noise]\np1 = nan\n",
        "[noise]\nr1 = nan\n",
        "[noise]\nt_idle = nan\n",
    ],
)
def test_fail_closed(mutation):
    with pytest.raises(ValueError):
        parse_config(DIHEDRAL + "\n" + mutation)


def test_idle_scope_accepts_only_every_wire():
    assert parse_config(DIHEDRAL + "\n[noise]\nidle_scope = all\n").noise == parse_config(DIHEDRAL).noise
    with pytest.raises(ValueError, match="idle damping acts on every wire"):
        parse_config(DIHEDRAL + "\n[noise]\nidle_scope = untouched\n")


def test_run_section_fail_closed():
    base = "[graph]\nkind = dihedral\nvertices = 27\n\n[run]\n"
    with pytest.raises(ValueError):
        parse_config(base + "steps = 3\nstep_count = 3\n")  # unknown key
    with pytest.raises(ValueError):
        parse_config(base + "steps = 3\naverage_includes_t0 = yes\n")  # strict bools
    with pytest.raises(ValueError):
        parse_config(DIHEDRAL + "\n" + DIHEDRAL)  # duplicate sections


def test_required_sections():
    with pytest.raises(ValueError):
        parse_config("[run]\nsteps = 3\n")
    with pytest.raises(ValueError):
        parse_config("[graph]\nkind = dihedral\nvertices = 9\n")
    with pytest.raises(ValueError):
        parse_config("[graph]\nkind = cycle\nvertices = 9\n[run]\nsteps = 1\n")


def test_initial_state_dihedral():
    text = DIHEDRAL + "\n[initial]\ncoin = 0\nvertex = 1:0\n"
    psi = build_initial_state(parse_config(text))
    assert psi.shape == (3**5,)
    assert psi[27] == 1 and np.count_nonzero(psi) == 1


def test_initial_state_cycle_superposition():
    cfg = parse_config(CYCLE)
    psi = build_initial_state(cfg)
    assert psi.shape == (27,)
    hits = np.flatnonzero(psi)
    assert list(hits) == [3, 12, 21]
    assert np.allclose(psi[hits], 1 / np.sqrt(3))


@pytest.mark.parametrize("kind", ["cycle", "dihedral"])
@pytest.mark.parametrize("N", [3, 5, 9, 10, 27])
def test_vertex_layout(kind, N):
    # One vertex index addresses the label, the initial state and the marginal.
    g = WalkGraph(kind, N, 1 if kind == "cycle" else None)
    graph = f"[graph]\nkind = {kind}\nvertices = {N}\n" + ("liveliness = 1\n" if kind == "cycle" else "")
    amps = np.array([0.6, 0.48j, -0.64])
    hits = {}
    for v, label in enumerate(g.labels):
        cfg = parse_config(graph + f"[initial]\nvertex = {label}\n[run]\nsteps = 1\n")
        assert cfg.initial_vertex == v
        for spelling in ("0" + label, label.replace(":", ":0"), "+" + label):
            if spelling != label:
                with pytest.raises(ValueError, match=r"\[initial\] vertex"):
                    parse_config(graph + f"[initial]\nvertex = {spelling}\n[run]\nsteps = 1\n")
        psi = build_initial_state(replace(cfg, initial_coin=amps))
        want = np.zeros_like(psi)
        for c in range(3):
            hits[g.basis_index(v, c)] = v, c
            want[g.basis_index(v, c)] = amps[c]
        assert np.array_equal(psi, want)
    assert len(hits) == 3 * g.num_vertices
    rot = 3**g.n
    for i in range(3**g.circuit_width):
        d = vertex_distribution(np.eye(1, 3**g.circuit_width, i)[0], g)
        padding = i % rot >= N or (kind == "dihedral" and i // rot % 3 == 2)
        assert padding == (i not in hits)
        if padding:
            assert d.leaked == 1 and not d.probs.any()
        else:
            v, c = hits[i]
            assert i // 3 ** (g.circuit_width - 1) == c  # the coin is wire 1
            assert d.leaked == 0 and np.array_equal(d.probs, np.eye(1, g.num_vertices, v)[0])
    for bad in ((0, 0), -1, g.num_vertices, 1.0):
        with pytest.raises(ValueError, match="initial vertex"):
            replace(cfg, initial_vertex=bad)
    with pytest.raises(ValueError):
        g.basis_index(g.num_vertices, 0)
