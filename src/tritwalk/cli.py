"""Command line front end: synthesis reports, walk runs, comparisons, counts."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from .analysis import Distribution, kl_divergence, time_average, tvd, vertex_distribution
from .blockdiag import blockdiag_blocks, blockdiag_synthesize
# apply_state and circuit_unitary are unused here but stay importable,
# because perfbench/tracing.py patches them as tritwalk.cli attributes.
from .circuit import _layer_step, apply_state, circuit_unitary, compile_circuit, count_gates  # noqa: F401
from .config import ExperimentConfig, build_initial_state, complex_entries, load_config
from .gates import frobenius_distance
from .noise import (
    NoiseConfig,
    check_density_budget,
    clamped_p1,
    resolve_noise,
    simulate_noisy_walk,
)
from .su3 import decompose_u3, reconstruct_u3
from .toffoli import lower_circuit
from .walk import CoinSpec, WalkGraph, build_layer_cycle, build_layer_dihedral

_FORMAT = "tritwalk-walk-1"
# Metadata that must agree before two walk runs can be compared.
_MATCH_KEYS = (
    "graph",
    "vertices",
    "liveliness",
    "coin_kind",
    "coin_theta",
    "coin_matrix",
    "initial_coin",
    "initial_vertex",
    "steps",
    "average_includes_t0",
)


def _read_matrix(path: str) -> np.ndarray:
    """Parse a text matrix: one row per line of ``config.complex_entries``."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                rows.append(complex_entries(line))
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix file must hold a square matrix")
    return np.array(rows)


def _emit(text: str, out_dir: str | None, name: str) -> None:
    """Write ``text`` atomically to out_dir/name and print that path, or to stdout."""
    if out_dir is None:
        sys.stdout.write(text)
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    tmp = os.path.join(out_dir, f".tritwalk-{os.getpid()}-{name}")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    print(path)


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_complex(values: np.ndarray) -> str:
    return ",".join(repr(complex(v)) for v in np.ravel(values))


def _apply_overrides(noise: NoiseConfig, args: argparse.Namespace) -> NoiseConfig:
    if args.seed is not None:
        noise = replace(noise, rng_seed=args.seed)
    if args.epsilon is not None:
        noise = replace(noise, epsilon_exponent=args.epsilon)
    if args.noise is not None:
        gate = args.noise in ("gate", "both")
        if args.noise in ("idle", "both"):
            idle = noise.idle_kind if noise.idle_kind != "none" else "amplitude"
        else:
            idle = "none"
        noise = replace(noise, gate_noise_enabled=gate, idle_kind=idle)
    return noise


def _run_walk(cfg: ExperimentConfig, noise: NoiseConfig) -> tuple[list[Distribution], NoiseConfig]:
    g = cfg.graph
    resolved = resolve_noise(noise)
    noisy = resolved.gate_noise_enabled or resolved.idle_kind != "none"
    if noisy:
        check_density_budget(g.circuit_width)
    if g.kind == "dihedral":
        layer = build_layer_dihedral(g.N, cfg.coin)
    else:
        layer = build_layer_cycle(g.N, cfg.coin, g.liveliness)
    psi = build_initial_state(cfg)
    dists = [vertex_distribution(psi, g)]
    if not noisy:
        t = psi.reshape((3,) * layer.width).copy()
        step = _layer_step(compile_circuit(layer), (t, np.empty_like(t)))
        for _ in range(cfg.steps):
            dists.append(vertex_distribution(step().reshape(-1), g))
    else:
        # No name holds a density here, so each output dies once it is read.
        run = simulate_noisy_walk(layer, g.circuit_width, np.outer(psi, psi.conj()), cfg.steps, resolved)
        dists += map(lambda rho: vertex_distribution(rho, g), run)
    return dists, resolved


def _walk_csv(cfg: ExperimentConfig, noise: NoiseConfig) -> str:
    dists, resolved = _run_walk(cfg, noise)
    avg = time_average(dists if cfg.average_includes_t0 else dists[1:])
    g = cfg.graph
    labels = g.labels
    gate_on = resolved.gate_noise_enabled
    idle_on = resolved.idle_kind != "none"
    lines = [
        f"# format={_FORMAT}",
        f"# timestamp={datetime.now(timezone.utc).isoformat()}",
        f"# graph={g.kind}",
        f"# vertices={g.N}",
        f"# liveliness={'' if g.liveliness is None else g.liveliness}",
        f"# coin_kind={cfg.coin.kind}",
        f"# coin_theta={'' if cfg.coin.theta is None else _fmt(cfg.coin.theta)}",
        f"# coin_matrix={'' if cfg.coin.matrix is None else _fmt_complex(cfg.coin.matrix)}",
        f"# initial_coin={_fmt_complex(cfg.initial_coin)}",
        f"# initial_vertex={labels[cfg.initial_vertex]}",
        f"# steps={cfg.steps}",
        f"# average_includes_t0={str(cfg.average_includes_t0).lower()}",
        f"# gate_noise={str(gate_on).lower()}",
        f"# idle_kind={resolved.idle_kind}",
        "# idle_scope=all",
        f"# t_idle={_fmt(resolved.t_idle)}",
        f"# epsilon={'' if noise.epsilon_exponent is None else noise.epsilon_exponent}",
        f"# seed={'' if noise.rng_seed is None else noise.rng_seed}",
        f"# p1={_fmt(resolved.p1) if gate_on else ''}",
        f"# p1_eff_k1={_fmt(clamped_p1(resolved.p1, 1)) if gate_on else ''}",
        f"# p1_eff_k2={_fmt(clamped_p1(resolved.p1, 2)) if gate_on else ''}",
        f"# r1={_fmt(resolved.r1) if idle_on else ''}",
        f"# r2={_fmt(resolved.r2) if resolved.idle_kind == 'amplitude' else ''}",
        "t,vertex,probability,leaked",
    ]
    for t, dist in enumerate(dists):
        leak = _fmt(dist.leaked)
        for label, p in zip(labels, dist.probs):
            lines.append(f"{t},{label},{_fmt(p)},{leak}")
    leak = _fmt(avg.leaked)
    for label, p in zip(labels, avg.probs):
        lines.append(f"avg,{label},{_fmt(p)},{leak}")
    return "\n".join(lines) + "\n"


def _parse_walk_csv(path: str) -> tuple[dict, Distribution]:
    meta: dict[str, str] = {}
    probs: list[float] = []
    leaked = 0.0
    saw_header = False
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
                continue
            if not saw_header:
                if line != "t,vertex,probability,leaked":
                    raise ValueError(f"{path}: unexpected header {line!r}")
                saw_header = True
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
            if fields[0] != "avg":
                continue
            try:
                probs.append(float(fields[2]))
                leaked = float(fields[3])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric probability or leak") from None
    if meta.get("format") != _FORMAT:
        raise ValueError(f"{path}: not a walk CSV")
    if not probs:
        raise ValueError(f"{path}: no time-averaged rows")
    return meta, Distribution(np.array(probs), leaked)


def _cmd_synth_su3(args: argparse.Namespace) -> int:
    u = _read_matrix(args.matrix)
    d = decompose_u3(u)
    print(f"alpha {_fmt(d.alpha)}")
    for name in ("theta1", "phi1", "psi1", "theta2", "psi2", "theta3", "phi3", "psi3"):
        print(f"{name} {_fmt(getattr(d.su3, name))}")
    print(f"residual {_fmt(frobenius_distance(reconstruct_u3(d), u))}")
    return 0


def _cmd_synth_blockdiag(args: argparse.Namespace) -> int:
    u = _read_matrix(args.matrix)
    circuit = blockdiag_synthesize(u)
    counts = count_gates(circuit)
    print(f"width {circuit.width}")
    print(f"rotations {counts.one_qutrit_rotation}")
    print(f"other_single {counts.one_qutrit_other}")
    print(f"two_qutrit {counts.two_qutrit_controlled}")
    # The circuit is block diagonal, so its blocks on a zero matrix are its
    # unitary; any off-block mass in the input still counts.
    blocks = blockdiag_blocks(circuit)
    nblocks = len(blocks)
    applied = np.zeros_like(u)
    j = np.arange(nblocks)
    applied.reshape(nblocks, 3, nblocks, 3)[j, :, j, :] = blocks
    print(f"residual {_fmt(frobenius_distance(applied, u))}")
    return 0


def _cmd_walk(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    noise = _apply_overrides(cfg.noise, args)
    # Refuse an unwritable --out before the run, not after it, and remove
    # it again if this call made it and the run fails.
    made = not os.path.isdir(args.out)
    os.makedirs(args.out, exist_ok=True)
    try:
        _emit(_walk_csv(cfg, noise), args.out, "walk.csv")
    except BaseException:
        if made:
            with contextlib.suppress(OSError):
                os.rmdir(args.out)
        raise
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    ideal_meta, ideal = _parse_walk_csv(args.ideal)
    lines = ["epsilon,idle_kind,kl_bits,tvd"]
    for path in args.noisy:
        meta, dist = _parse_walk_csv(path)
        for key in _MATCH_KEYS:
            if meta.get(key) != ideal_meta.get(key):
                raise ValueError(
                    f"{path}: {key}={meta.get(key)!r} does not match ideal {ideal_meta.get(key)!r}"
                )
        eps, idle = meta.get("epsilon", ""), meta.get("idle_kind", "")
        kl = kl_divergence(ideal, dist, floor=args.floor)
        lines.append(f"{eps},{idle},{_fmt(kl)},{_fmt(tvd(ideal, dist))}")
    _emit("\n".join(lines) + "\n", args.out, "compare.csv")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    if args.n_min < 1 or args.n_max > 6 or args.n_min > args.n_max:
        raise ValueError("n range must satisfy 1 <= n-min <= n-max <= 6")
    liveliness = args.liveliness
    if args.graph == "cycle" and liveliness is None:
        liveliness = 0
    coin = CoinSpec("xclass", theta=np.pi)
    lines = ["graph,n,vertices,rotations,other_single,two_qutrit,total"]
    two_qutrit: list[int] = []
    for n in range(args.n_min, args.n_max + 1):
        vertices = 3**n
        g = WalkGraph(args.graph, vertices, liveliness)
        if g.kind == "dihedral":
            layer = build_layer_dihedral(vertices, coin)
        else:
            layer = build_layer_cycle(vertices, coin, g.liveliness)
        counts = count_gates(lower_circuit(layer))
        two_qutrit.append(counts.two_qutrit_controlled)
        lines.append(
            f"{args.graph},{n},{vertices},{counts.one_qutrit_rotation},"
            f"{counts.one_qutrit_other},{counts.two_qutrit_controlled},{counts.total}"
        )
    if len(two_qutrit) > 1:
        ratios = [b / a for a, b in zip(two_qutrit, two_qutrit[1:])]
        exponent = float(np.mean([np.log(r) / np.log(3) for r in ratios]))
        lines.insert(0, f"# fitted_exponent_base3={_fmt(exponent)}")
    _emit("\n".join(lines) + "\n", args.out, "count.csv")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tritwalk", description="Qutrit circuit synthesis and quantum walk runner."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-su3", help="decompose a 3x3 unitary into nine rotations")
    p.add_argument("matrix", help="text file with three rows of complex entries")
    p.set_defaults(func=_cmd_synth_su3)

    p = sub.add_parser("synth-blockdiag", help="compile a block-diagonal special unitary")
    p.add_argument("matrix", help="text file with a 3^n x 3^n matrix")
    p.set_defaults(func=_cmd_synth_blockdiag)

    p = sub.add_parser("walk", help="run a walk experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")
    p.add_argument("--noise", choices=("none", "gate", "idle", "both"), default=None)
    p.add_argument("--epsilon", type=int, default=None)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("compare", help="KL and TVD between an ideal run and noisy runs")
    p.add_argument("ideal")
    p.add_argument("noisy", nargs="+")
    p.add_argument("--floor", type=float, default=1e-12)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("count", help="gate counts of fully lowered walk layers")
    p.add_argument("--graph", choices=("cycle", "dihedral"), required=True)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--liveliness", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_count)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
