import os
import stat

import numpy as np
import pytest

import tritwalk.cli
from tritwalk.cli import main
from tritwalk.walk import CoinSpec, coin_matrix

TINY_CYCLE = """
[graph]
kind = cycle
vertices = 3
liveliness = 1

[run]
steps = 3
"""

TINY_DIHEDRAL = """
[graph]
kind = dihedral
vertices = 3

[run]
steps = 3

[noise]
idle = amplitude
epsilon = 2
seed = 11
"""


def write_matrix(path, m):
    lines = [" ".join(repr(complex(x)) for x in row) for row in np.asarray(m, complex)]
    path.write_text("\n".join(lines) + "\n")


def read_rows(path):
    meta, rows = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line != "t,vertex,probability,leaked":
            t, vertex, prob, leak = line.split(",")
            rows.append((t, vertex, float(prob), float(leak)))
    return meta, rows


def test_synth_su3_grover(tmp_path, capsys):
    write_matrix(tmp_path / "g.txt", coin_matrix(CoinSpec("xclass", theta=np.pi)))
    assert main(["synth-su3", str(tmp_path / "g.txt")]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(out["residual"]) < 1e-10


def test_synth_su3_identity_is_all_zero(tmp_path, capsys):
    write_matrix(tmp_path / "i.txt", np.eye(3))
    assert main(["synth-su3", str(tmp_path / "i.txt")]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert all(float(v) == 0 for v in out.values())


def test_synth_su3_accepts_comma_separated_rows(tmp_path, capsys):
    (tmp_path / "c.txt").write_text(
        "-0.5+0.5j, -0.5+0.5j, 0j\n0.5+0.5j, -0.5-0.5j, 0j\n0j, 0j, 1+0j\n"
    )
    assert main(["synth-su3", str(tmp_path / "c.txt")]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(out["residual"]) < 1e-10


def test_synth_su3_rejects_non_unitary(tmp_path, capsys):
    write_matrix(tmp_path / "bad.txt", np.ones((3, 3)))
    assert main(["synth-su3", str(tmp_path / "bad.txt")]) == 1
    assert "defect" in capsys.readouterr().err


def test_synth_blockdiag(tmp_path, capsys):
    rng = np.random.default_rng(13)
    from helpers import random_su3

    u = np.zeros((9, 9), dtype=complex)
    for b in range(3):
        u[3 * b : 3 * b + 3, 3 * b : 3 * b + 3] = random_su3(rng)
    write_matrix(tmp_path / "bd.txt", u)
    assert main(["synth-blockdiag", str(tmp_path / "bd.txt")]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert out["width"] == "2"
    assert float(out["residual"]) < 1e-8
    assert int(out["two_qutrit"]) > 0


def test_synth_blockdiag_prints_the_dense_residual(tmp_path, capsys):
    # The residual comes from the circuit's blocks and matches the one its
    # dense unitary gives.  Only to rounding: BLAS may round a column of the
    # two products differently, by where it sits in each.
    from helpers import block_diagonal, random_su3

    from tritwalk.blockdiag import blockdiag_synthesize
    from tritwalk.circuit import circuit_unitary
    from tritwalk.gates import frobenius_distance

    rng = np.random.default_rng(19)
    write_matrix(tmp_path / "bd.txt", block_diagonal([random_su3(rng) for _ in range(9)]))
    u = tritwalk.cli._read_matrix(str(tmp_path / "bd.txt"))
    dense = frobenius_distance(circuit_unitary(blockdiag_synthesize(u)), u)
    assert main(["synth-blockdiag", str(tmp_path / "bd.txt")]) == 0
    *counts, residual = capsys.readouterr().out.splitlines()
    assert counts == ["width 3", "rotations 81", "other_single 0", "two_qutrit 144"]
    assert residual.startswith("residual ")
    assert abs(float(residual.split()[1]) - dense) < 1e-13


def test_synth_blockdiag_width_6(tmp_path, capsys):
    from helpers import block_diagonal, random_su3

    rng = np.random.default_rng(23)
    write_matrix(tmp_path / "bd.txt", block_diagonal([random_su3(rng) for _ in range(243)]))
    assert main(["synth-blockdiag", str(tmp_path / "bd.txt")]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert (out["width"], out["rotations"], out["two_qutrit"]) == ("6", "2187", "4356")
    assert float(out["residual"]) < 1e-8


def test_walk_csv_shape_and_conservation(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(TINY_CYCLE)
    assert main(["walk", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    path = capsys.readouterr().out.strip()
    meta, rows = read_rows(tmp_path / "walk.csv")
    assert path.endswith("walk.csv")
    assert meta["graph"] == "cycle" and meta["vertices"] == "3"
    labels = [r[1] for r in rows if r[0] == "0"]
    assert labels == ["0", "1", "2"]
    for t in ("0", "1", "2", "3", "avg"):
        block = [r for r in rows if r[0] == t]
        assert len(block) == 3
        total = sum(r[2] for r in block) + block[0][3]
        assert abs(total - 1) < 1e-9


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_outputs_get_the_mode_open_would_give(tmp_path, capsys, umask):
    cfg = tmp_path / "c.ini"
    cfg.write_text(TINY_CYCLE)
    old = os.umask(umask)
    try:
        assert main(["walk", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        walk = str(tmp_path / "walk.csv")
        assert main(["compare", walk, walk, "--out", str(tmp_path)]) == 0
        assert main(["count", "--graph", "cycle", "--n-max", "1", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    for name in ("walk.csv", "compare.csv", "count.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask


def test_walk_deterministic_modulo_timestamp(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(TINY_DIHEDRAL)
    lines = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["walk", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        lines.append(
            [l for l in (out / "walk.csv").read_text().splitlines() if not l.startswith("# timestamp=")]
        )
    assert lines[0] == lines[1]


def test_walk_noise_metadata_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(TINY_DIHEDRAL)
    assert (
        main(
            ["walk", "--config", str(cfg), "--out", str(tmp_path), "--noise", "both", "--epsilon", "3", "--seed", "4"]
        )
        == 0
    )
    capsys.readouterr()
    meta, rows = read_rows(tmp_path / "walk.csv")
    assert meta["gate_noise"] == "true"
    assert meta["idle_kind"] == "amplitude"
    assert meta["epsilon"] == "3" and meta["seed"] == "4"
    assert 0 < float(meta["p1"]) < 1e-3
    assert float(meta["p1_eff_k2"]) <= 3.0**-4 + 1e-15
    assert float(meta["r1"]) > 0 and float(meta["r2"]) > 0
    # dihedral labels are s:r pairs
    assert [r[1] for r in rows if r[0] == "0"] == ["0:0", "0:1", "0:2", "1:0", "1:1", "1:2"]
    noisy_total = [sum(r[2] for r in rows if r[0] == t) + next(r[3] for r in rows if r[0] == t) for t in ("1", "3")]
    assert all(abs(x - 1) < 1e-6 for x in noisy_total)
    # Without --epsilon the config's own exponent is recorded.
    assert main(["walk", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    meta, _ = read_rows(tmp_path / "walk.csv")
    assert meta["epsilon"] == "2" and meta["seed"] == "11"


def test_walk_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(TINY_CYCLE + "\n[noise]\nidle = cosmic\n")
    assert main(["walk", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_walk_idle_noise_needs_no_idle_scope(tmp_path, capsys):
    # Idle damping acts on every wire, so a config without idle_scope writes
    # the CSV of one that names the only scope there is.
    def walk(text, out, *extra):
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        assert main(["walk", "--config", str(cfg), "--out", str(out), *extra]) == 0
        return [l for l in (out / "walk.csv").read_text().splitlines() if not l.startswith("# timestamp=")]

    ideal = walk(TINY_CYCLE, tmp_path / "ideal", "--noise", "none")
    for mode in ("idle", "both"):
        extra = ("--noise", mode, "--epsilon", "2", "--seed", "1")
        bare = walk(TINY_CYCLE, tmp_path / f"{mode}-bare", *extra)
        scoped = walk(TINY_CYCLE + "\n[noise]\nidle_scope = all\n", tmp_path / f"{mode}-all", *extra)
        assert bare == scoped and "# idle_scope=all" in bare
        rows = [l for l in bare if not l.startswith("#")]
        assert rows != [l for l in ideal if not l.startswith("#")]


@pytest.mark.parametrize("rates", ["idle = phase\nr1 = 0", "idle = amplitude\nr1 = 0\nr2 = 0"],
                         ids=["phase", "amplitude"])
def test_zero_rate_idle_damping_does_not_decay_in_unbounded_time(tmp_path, capsys, rates):
    # exp(-0 * inf) is NaN; a zero rate is no decay at any duration, so the
    # walk is the one it is at t_idle = 1, apart from its # t_idle= line.
    def rows(t_idle):
        cfg = tmp_path / f"{t_idle}.ini"
        cfg.write_text(TINY_CYCLE + f"\n[noise]\n{rates}\nt_idle = {t_idle}\n")
        assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / t_idle)]) == 0
        return read_rows(tmp_path / t_idle / "walk.csv")[1]

    unbounded = rows("inf")
    assert not any(np.isnan(p) or np.isnan(leak) for _, _, p, leak in unbounded)
    assert unbounded == rows("1")


def test_refused_walk_removes_only_an_out_directory_it_made(tmp_path, capsys, monkeypatch):
    import tritwalk.noise

    cfg = tmp_path / "c.ini"
    cfg.write_text(TINY_DIHEDRAL)
    monkeypatch.setattr(tritwalk.noise, "DENSITY_BUDGET_BYTES", 16 * 9**2)
    made = tmp_path / "big"
    assert main(["walk", "--config", str(cfg), "--out", str(made)]) == 1
    assert not made.exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(["walk", "--config", str(cfg), "--out", str(kept)]) == 1
    assert kept.is_dir() and not any(kept.iterdir())
    assert capsys.readouterr().err.count("error:") == 2


def test_compare_self_and_noisy(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(TINY_DIHEDRAL)
    ideal_dir, noisy_dir = tmp_path / "ideal", tmp_path / "noisy"
    assert main(["walk", "--config", str(cfg), "--out", str(ideal_dir), "--noise", "none"]) == 0
    assert main(["walk", "--config", str(cfg), "--out", str(noisy_dir), "--noise", "idle"]) == 0
    capsys.readouterr()
    ideal, noisy = str(ideal_dir / "walk.csv"), str(noisy_dir / "walk.csv")

    assert main(["compare", ideal, ideal]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "epsilon,idle_kind,kl_bits,tvd"
    assert [float(x) for x in row.split(",")[2:]] == [0.0, 0.0]

    assert main(["compare", ideal, noisy]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    eps, idle, kl, dist = row.split(",")
    assert (eps, idle) == ("2", "amplitude")
    assert float(kl) > 0 and float(dist) > 0


@pytest.mark.parametrize(
    "bad_row, message",
    [("garbage", "expected 4 fields, got 1"), ("avg,0,abc,0.0", "non-numeric probability or leak")],
)
def test_compare_names_malformed_row(tmp_path, capsys, bad_row, message):
    cfg = tmp_path / "c.ini"
    cfg.write_text(TINY_CYCLE)
    assert main(["walk", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "walk.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [bad_row]) + "\n")
    assert main(["compare", str(path), str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:{len(lines) + 1}: {message}\n"


def test_compare_rejects_graph_mismatch(tmp_path, capsys):
    a, b = tmp_path / "a.ini", tmp_path / "b.ini"
    a.write_text(TINY_DIHEDRAL)
    b.write_text(TINY_CYCLE)
    assert main(["walk", "--config", str(a), "--out", str(tmp_path / "a")]) == 0
    assert main(["walk", "--config", str(b), "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    code = main(["compare", str(tmp_path / "a" / "walk.csv"), str(tmp_path / "b" / "walk.csv")])
    assert code == 1
    assert "does not match" in capsys.readouterr().err
    # Same graph, different step count.
    c = tmp_path / "c.ini"
    c.write_text(TINY_CYCLE.replace("steps = 3", "steps = 4"))
    assert main(["walk", "--config", str(c), "--out", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    code = main(["compare", str(tmp_path / "b" / "walk.csv"), str(tmp_path / "c" / "walk.csv")])
    assert code == 1
    assert "steps='4' does not match" in capsys.readouterr().err


def test_count_table(capsys):
    assert main(["count", "--graph", "cycle", "--liveliness", "0", "--n-min", "1", "--n-max", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# fitted_exponent_base3=")
    assert out[1] == "graph,n,vertices,rotations,other_single,two_qutrit,total"
    first = out[2].split(",")
    assert first[:3] == ["cycle", "1", "3"]
    assert int(first[5]) > 0
    assert main(["count", "--graph", "cycle", "--n-min", "0", "--n-max", "9"]) == 1


def test_walk_average_respects_t0_flag(tmp_path, capsys):
    with_t0 = TINY_CYCLE + "average_includes_t0 = true\n"
    cfg = tmp_path / "c.ini"
    for text, expect_steps in ((TINY_CYCLE, 3), (with_t0, 4)):
        cfg.write_text(text)
        out = tmp_path / f"run{expect_steps}"
        assert main(["walk", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        _, rows = read_rows(out / "walk.csv")
        per_t = {}
        for t, vertex, prob, _ in rows:
            per_t.setdefault(t, {})[vertex] = prob
        want = np.mean(
            [[per_t[str(t)][v] for v in ("0", "1", "2")] for t in range(4 - expect_steps, 4)],
            axis=0,
        )
        got = np.array([per_t["avg"][v] for v in ("0", "1", "2")])
        assert np.allclose(got, want, atol=1e-12)


def test_compare_rejects_initial_coin_mismatch(tmp_path, capsys):
    # Two runs that differ only in the starting coin state are different
    # experiments, not an ideal and a noisy copy of one.
    for name, level in (("a", 0), ("b", 2)):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(TINY_CYCLE + f"\n[initial]\ncoin = {level}\n")
        assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    meta, _ = read_rows(tmp_path / "a" / "walk.csv")
    assert meta["initial_coin"] == "(1+0j),0j,0j"
    assert meta["coin_matrix"] == ""
    code = main(["compare", str(tmp_path / "a" / "walk.csv"), str(tmp_path / "b" / "walk.csv")])
    assert code == 1
    assert "initial_coin=" in capsys.readouterr().err


def test_walk_records_custom_coin_matrix(tmp_path, capsys):
    m = coin_matrix(CoinSpec("xclass", theta=np.pi))
    entries = ", ".join(repr(complex(x)) for x in m.reshape(9))
    cfg = tmp_path / "c.ini"
    cfg.write_text(TINY_CYCLE + f"\n[coin]\nkind = custom\nmatrix = {entries}\n")
    assert main(["walk", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    meta, _ = read_rows(tmp_path / "walk.csv")
    got = np.array([complex(x) for x in meta["coin_matrix"].split(",")]).reshape(3, 3)
    assert np.array_equal(got, m)


def test_walk_rejects_density_over_budget(tmp_path, capsys, monkeypatch):
    import tritwalk.noise

    cfg = tmp_path / "c.ini"
    cfg.write_text(TINY_DIHEDRAL)
    monkeypatch.setattr(tritwalk.noise, "DENSITY_BUDGET_BYTES", 16 * 9**2)
    assert main(["walk", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "3 wires" in err and str(6 * 16 * 9**3) in err
    assert not (tmp_path / "walk.csv").exists()
    # A noiseless run evolves a state vector, so the density budget does not apply.
    assert main(["walk", "--config", str(cfg), "--out", str(tmp_path), "--noise", "none"]) == 0


def test_walk_rejects_gate_noise_ops_over_budget(tmp_path, capsys, monkeypatch):
    import tritwalk.noise

    cfg = tmp_path / "c.ini"
    cfg.write_text("[graph]\nkind = dihedral\nvertices = 27\n\n[run]\nsteps = 3\n")
    # The 5-wire working set of six densities fits; the 81 distinct matrices
    # of its 559 fused ops do not.
    monkeypatch.setattr(tritwalk.noise, "DENSITY_BUDGET_BYTES", 6 * 10**6)
    argv = ["walk", "--config", str(cfg), "--out", str(tmp_path), "--noise", "gate"]
    assert main(argv + ["--epsilon", "4", "--seed", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    size = 6 * 16 * 9**5 + 81 * 8 * 81**2 + 559 * 120
    assert len(err) == 1 and err[0].startswith("error:") and f"5 wires takes {size} bytes" in err[0]
    assert not (tmp_path / "walk.csv").exists()


@pytest.mark.parametrize("engine", ["gate", "idle"])
def test_width_8_walk_is_refused_before_its_layer_or_state(tmp_path, capsys, monkeypatch, engine):
    # Six 8-wire densities, 6 * 16 * 9^8 bytes, are over the 2^30-byte
    # budget on either engine; nothing of the run is built.
    def no_build(*_):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(tritwalk.cli, "build_layer_dihedral", no_build)
    monkeypatch.setattr(tritwalk.cli, "build_initial_state", no_build)
    cfg = tmp_path / "c.ini"
    cfg.write_text(
        "[graph]\nkind = dihedral\nvertices = 729\n\n[run]\nsteps = 2\n"
    )
    argv = ["walk", "--config", str(cfg), "--out", str(tmp_path), "--noise", engine]
    assert main(argv + ["--epsilon", "3", "--seed", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "8 wires takes 4132485216 bytes" in err[0]
    assert not (tmp_path / "walk.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["synth-su3", "{tmp}/missing.txt"],
        ["synth-blockdiag", "{tmp}/missing.txt"],
        ["walk", "--config", "{tmp}/c.ini", "--out", "{tmp}/taken"],
        ["walk", "--config", "{tmp}/nan.ini", "--out", "{tmp}/out"],
        ["walk", "--config", "{tmp}/c.ini", "--out", "{tmp}/out", "--epsilon", "-400", "--seed", "1"],
        ["count", "--graph", "cycle", "--n-max", "1", "--out", "{tmp}/taken"],
        ["count", "--graph", "cycle", "--n-min", "0"],
        ["count", "--graph", "dihedral", "--liveliness", "2"],
    ],
    ids=[
        "su3-missing",
        "blockdiag-missing",
        "walk-out-is-file",
        "walk-r1-nan",
        "walk-epsilon-overflow",
        "count-out-is-file",
        "count-n-min-0",
        "count-dihedral-liveliness",
    ],
)
def test_input_and_output_errors_are_one_line(tmp_path, capsys, monkeypatch, argv):
    # Unreadable inputs, noise parameters that cannot be used and an --out
    # that names a file, not a directory, are refused before any walk step
    # is built, and leave no --out directory behind.
    def no_step(*args):
        raise AssertionError("a walk step was built before the error")

    monkeypatch.setattr(tritwalk.cli, "_layer_step", no_step)
    (tmp_path / "c.ini").write_text(TINY_CYCLE)
    (tmp_path / "nan.ini").write_text(TINY_CYCLE + "\n[noise]\nidle = phase\nr1 = nan\n")
    (tmp_path / "taken").write_text("a file\n")
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()
