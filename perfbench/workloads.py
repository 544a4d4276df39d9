"""The three benchmark workloads: inputs, CLI invocations and output checks.

Each workload writes its inputs from the seed, names the ``tritwalk`` CLI
invocations of one pass, and checks a pass's outputs against references
computed once per run (``reference``).  The references also yield the
density-step samples (walk workloads) or per-layer lowering times
(compile-sweep) behind ``step_ms``.  Why each workload exists is in
README.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from tritwalk.blockdiag import blockdiag_synthesize
from tritwalk.circuit import Circuit, apply_state, count_gates
from tritwalk.config import build_initial_state, load_config
from tritwalk.noise import amplitude_damping_channel, phase_damping_channel, simulate_noisy_walk
from tritwalk.toffoli import lower_circuit
from tritwalk.walk import CoinSpec, WalkGraph, build_layer_cycle, build_layer_dihedral

GROVER = CoinSpec("xclass", theta=np.pi)


@dataclass(frozen=True)
class Rounds:
    """How an end-to-end run interleaves its measurements, per round."""

    min_passes: int  # whole CLI passes, at least; more until --seconds are measured
    setup_probes: int  # fresh set-up processes before each pass
    burst_steps: int  # timed density steps after each pass, per probed walk


@dataclass(frozen=True)
class Size:
    noisy_steps: int  # density steps of the noisy-dihedral27 CLI walk
    idle_steps: int  # steps of every idle-sweep walk (criterion 09 uses 300)
    dihedral_n: tuple[int, int]  # compile-sweep n ranges
    cycle_n: tuple[int, int]
    blockdiag_width: int
    kraus_window: int  # lowered gates replayed through explicit Kraus sums
    idle_kraus_steps: int  # leading idle-walk steps compared with Kraus sums
    rounds: dict[str, Rounds]


SIZES = {
    "full": Size(6, 300, (2, 5), (2, 4), 5, 6, 8, {
        "noisy-dihedral27": Rounds(3, 1, 4),
        "compile-sweep": Rounds(1, 20, 0),
        "idle-sweep": Rounds(1, 20, 50),
    }),
    "smoke": Size(1, 3, (2, 2), (2, 2), 2, 3, 2, {
        "noisy-dihedral27": Rounds(1, 1, 1),
        "compile-sweep": Rounds(1, 1, 0),
        "idle-sweep": Rounds(1, 1, 1),
    }),
}


def _write_config(path: Path, graph: WalkGraph, steps: int, noise: dict) -> None:
    lines = ["[graph]", f"kind = {graph.kind}", f"vertices = {graph.N}"]
    if graph.kind == "cycle":
        lines.append(f"liveliness = {graph.liveliness}")
    lines += ["[coin]", "kind = xclass", f"theta = {np.pi!r}"]
    lines += ["[initial]", "coin = 0", "vertex = " + ("0:0" if graph.kind == "dihedral" else "0")]
    lines += ["[run]", f"steps = {steps}"]
    if noise:
        lines += ["[noise]"] + [f"{k} = {v}" for k, v in noise.items()]
    path.write_text("\n".join(lines) + "\n")


def _layer(graph: WalkGraph) -> Circuit:
    if graph.kind == "dihedral":
        return build_layer_dihedral(graph.N, GROVER)
    return build_layer_cycle(graph.N, GROVER, graph.liveliness)


def _idle_channel(kind: str, r1: float, r2: float):
    if kind == "amplitude":
        return amplitude_damping_channel(r1, r2, 1.0)
    return phase_damping_channel(r1, 1.0)


class StepTimer:
    """One long simulate_noisy_walk run, advanced in timed bursts between passes.

    The first advance also runs the set-up (lowering, fusion or the dense
    unitary), so it is taken untimed.  Every density is checked for
    physicality outside the timer; failures count against invocation ``inv``.
    """

    def __init__(self, config: Path, inv: str) -> None:
        cfg = load_config(str(config))
        self.graph = cfg.graph
        self.inv = inv
        psi = build_initial_state(cfg)
        width = self.graph.circuit_width
        self._gen = simulate_noisy_walk(_layer(self.graph), width, np.outer(psi, psi.conj()),
                                        10**9, cfg.noise)
        self.samples: list[float] = []
        self.failures: list[str] = []
        self.probs: list[np.ndarray] = []  # vertex probabilities, t = 1, 2, ...
        self.first = self._advance(timed=False)

    def _advance(self, timed: bool) -> np.ndarray:
        start = time.perf_counter()
        rho = next(self._gen)
        elapsed = time.perf_counter() - start
        if timed:
            self.samples.append(elapsed)
        t = len(self.probs) + 1
        self.failures += oracle.physical_failures(rho, f"{self.inv} density t={t}")
        self.probs.append(oracle.vertex_probs(np.diag(rho).real, self.graph))
        return rho

    def burst(self, steps: int) -> None:
        for _ in range(steps):
            self._advance(timed=True)


@dataclass
class Reference:
    failures: dict[str, list[str]]  # invocation id -> failed checks
    timers: list[StepTimer]  # walk workloads: where step_ms samples come from
    data: dict
    step_s: list[float] = field(default_factory=list)  # compile-sweep: mean lowering per layer

    def all_failures(self) -> dict[str, list[str]]:
        out = {inv: list(msgs) for inv, msgs in self.failures.items()}
        for timer in self.timers:
            out.setdefault(timer.inv, []).extend(timer.failures)
        return out

    def step_samples(self) -> list[float]:
        return self.step_s + [x for timer in self.timers for x in timer.samples]


class Workload:
    name = ""

    def __init__(self, seed: int, size: Size, work: Path) -> None:
        self.seed = seed
        self.size = size
        self.work = work

    def invocations(self, out: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def setup_spec(self) -> dict:
        raise NotImplementedError

    def density_configs(self) -> list[Path]:
        return []

    def reference(self) -> Reference:
        raise NotImplementedError

    def check_pass(self, out: Path, ref: Reference) -> dict[str, list[str]]:
        raise NotImplementedError


class NoisyDihedral27(Workload):
    """`tritwalk walk` on the dihedral graph N=27 with gate and idle noise."""

    name = "noisy-dihedral27"
    graph = WalkGraph("dihedral", 27)
    epsilon = 3

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        self.config = work / "noisy.ini"
        noise = dict(gate="true", idle="amplitude", idle_scope="all", epsilon=self.epsilon, seed=seed)
        _write_config(self.config, self.graph, size.noisy_steps, noise)

    def invocations(self, out):
        return [("walk", ["walk", "--config", str(self.config), "--seed", str(self.seed),
                          "--out", str(out / "walk")])]

    def setup_spec(self):
        return {"kind": "density", "config": str(self.config)}

    def density_configs(self):
        return [self.config]

    def reference(self):
        size, width = self.size, self.graph.circuit_width
        p1, r1, r2 = oracle.draw_noise(self.seed, self.epsilon)
        idle = amplitude_damping_channel(r1, r2, 1.0)
        rng = np.random.default_rng(self.seed)
        layer = _layer(self.graph)
        lowered = lower_circuit(layer)
        failures = oracle.lowering_failures(layer, lowered, oracle.random_states(rng, 3**width, 2), "layer")

        # Explicit Kraus route on a seeded window of the real lowered layer.
        start = int(rng.integers(0, len(lowered.gates) - size.kraus_window + 1))
        window = Circuit(width, lowered.gates[start : start + size.kraus_window])
        rho0 = oracle.random_density(rng, 3**width)
        cfg = load_config(str(self.config)).noise
        got = list(simulate_noisy_walk(window, width, rho0, 2, cfg))
        want = list(oracle.kraus_route(window.gates, width, rho0, p1, idle, 2))
        for t, (a, b) in enumerate(zip(got, want), start=1):
            if np.linalg.norm(a - b) > oracle.MATCH:
                failures.append(f"gates {start}..{start + size.kraus_window - 1} step {t}: "
                                f"engine differs from explicit Kraus route by {np.linalg.norm(a - b):.3e}")

        timer = StepTimer(self.config, "walk")
        timer.burst(size.noisy_steps - 1)  # densities behind the CSV rows checked per pass
        psi = build_initial_state(load_config(str(self.config)))
        first = oracle.twirl_step(lowered.gates, width, np.outer(psi, psi.conj()), p1, idle)
        if np.linalg.norm(timer.first - first) > oracle.MATCH:
            failures.append(f"step 1 differs from the partial-trace twirl route by "
                            f"{np.linalg.norm(timer.first - first):.3e}")
        return Reference({"walk": failures}, [timer], {"noise": (p1, r1, r2)})

    def check_pass(self, out, ref):
        bad: list[str] = []
        csv = oracle.parse_walk_csv(out / "walk" / "walk.csv")
        bad += oracle.csv_failures(csv, self.size.noisy_steps)
        p1, r1, r2 = ref.data["noise"]
        if (float(csv.meta["p1"]), float(csv.meta["r1"]), float(csv.meta["r2"])) != (p1, r1, r2):
            bad.append("noise parameters differ from the seeded draw")
        for t, want in enumerate(ref.timers[0].probs[: self.size.noisy_steps], start=1):
            if t < len(csv.probs) and np.abs(csv.probs[t] - want).max() > oracle.MATCH:
                bad.append(f"t={t}: distribution differs from the checked density")
        return {"walk": bad}


class CompileSweep(Workload):
    """`tritwalk count` over three layer families, then `synth-blockdiag`."""

    name = "compile-sweep"

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        lo, hi = size.dihedral_n
        clo, chi = size.cycle_n
        # (invocation id, graph kind, liveliness, n range)
        self.families = [
            ("count-dihedral", "dihedral", None, range(lo, hi + 1)),
            ("count-cycle-a0", "cycle", 0, range(clo, chi + 1)),
            ("count-cycle-a2", "cycle", 2, range(clo, chi + 1)),
        ]
        self.matrix = self._random_blockdiag(np.random.default_rng(seed), size.blockdiag_width)
        self.matrix_path = work / "blockdiag.txt"
        self.matrix_path.write_text(
            "\n".join(" ".join(repr(complex(v)) for v in row) for row in self.matrix) + "\n"
        )

    @staticmethod
    def _random_blockdiag(rng, width):
        dim = 3**width
        u = np.zeros((dim, dim), dtype=complex)
        for j in range(dim // 3):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            u[3 * j : 3 * j + 3, 3 * j : 3 * j + 3] = q / np.linalg.det(q) ** (1 / 3)
        return u

    def _layers(self):
        for inv, kind, a, ns in self.families:
            for n in ns:
                yield inv, n, WalkGraph(kind, 3**n, a)

    def invocations(self, out):
        invs = []
        for inv, kind, a, ns in self.families:
            argv = ["count", "--graph", kind, "--n-min", str(ns.start), "--n-max", str(ns.stop - 1),
                    "--out", str(out / inv)]
            if a is not None:
                argv += ["--liveliness", str(a)]
            invs.append((inv, argv))
        invs.append(("synth-blockdiag", ["synth-blockdiag", str(self.matrix_path)]))
        return invs

    def setup_spec(self):
        return {"kind": "build",
                "layers": [[g.kind, n, g.liveliness] for _, n, g in self._layers()]}

    def reference(self):
        rng = np.random.default_rng(self.seed)
        failures: dict[str, list[str]] = {inv: [] for inv, *_ in self.families}
        counts: dict[tuple[str, int], tuple] = {}
        lower_s = []
        for inv, n, g in self._layers():
            layer = _layer(g)
            start = time.perf_counter()
            lowered = lower_circuit(layer)
            lower_s.append(time.perf_counter() - start)
            c = count_gates(lowered)
            counts[inv, n] = (c.one_qutrit_rotation, c.one_qutrit_other, c.two_qutrit_controlled, c.total)
            states = oracle.random_states(rng, 3**layer.width, 2)
            failures[inv] += oracle.lowering_failures(layer, lowered, states, f"n={n}")

        synth = blockdiag_synthesize(self.matrix)
        bad = []
        if any(len(g.controls) >= 2 for g in synth.gates):
            bad.append("synthesized circuit keeps a gate with two or more controls")
        for i, psi in enumerate(oracle.random_states(rng, len(self.matrix), 2)):
            if np.linalg.norm(apply_state(synth, psi) - self.matrix @ psi) > oracle.MATCH:
                bad.append(f"synthesized circuit differs from the input matrix on random state {i}")
        failures["synth-blockdiag"] = bad
        c = count_gates(synth)
        data = {"counts": counts, "synth": (synth.width, c.one_qutrit_rotation, c.one_qutrit_other,
                                             c.two_qutrit_controlled)}
        # No density steps here: step_ms is the mean time to lower one walk-step layer.
        return Reference(failures, [], data, [sum(lower_s) / len(lower_s)])

    def check_pass(self, out, ref):
        bad: dict[str, list[str]] = {}
        for inv, kind, a, ns in self.families:
            rows = [line.split(",") for line in (out / inv / "count.csv").read_text().splitlines()
                    if line and not line.startswith("#") and not line.startswith("graph,")]
            got = {int(r[1]): tuple(int(x) for x in r[3:7]) for r in rows}
            want = {n: ref.data["counts"][inv, n] for n in ns}
            bad[inv] = [] if got == want else [f"reported counts {got} differ from lowered circuits {want}"]
        report = dict(line.split() for line in (out / "synth-blockdiag.stdout").read_text().splitlines())
        msgs = []
        got = tuple(int(report.get(k, -1)) for k in ("width", "rotations", "other_single", "two_qutrit"))
        if got != ref.data["synth"]:
            msgs.append(f"reported width and counts {got} differ from {ref.data['synth']}")
        if not float(report.get("residual", "inf")) < oracle.TOL:
            msgs.append(f"residual {report.get('residual')}")
        bad["synth-blockdiag"] = msgs
        return bad


class IdleSweep(Workload):
    """Criterion-09 noise-strength experiment on dihedral N=27 and cycle N=81, a=2."""

    name = "idle-sweep"
    graphs = {"dihedral27": WalkGraph("dihedral", 27), "cycle81": WalkGraph("cycle", 81, 2)}
    runs = (("amplitude", 1), ("amplitude", 6), ("phase", 1), ("phase", 6))

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        self.configs: dict[tuple[str, str], Path] = {}
        for label, g in self.graphs.items():
            path = work / f"{label}-ideal.ini"
            _write_config(path, g, size.idle_steps, {})
            self.configs[label, "ideal"] = path
            for kind, eps in self.runs:
                path = work / f"{label}-{kind}-e{eps}.ini"
                noise = dict(idle=kind, idle_scope="all", epsilon=eps, seed=seed)
                _write_config(path, g, size.idle_steps, noise)
                self.configs[label, f"{kind}-e{eps}"] = path

    def _walk_ids(self, label):
        return [f"{label}-ideal"] + [f"{label}-{kind}-e{eps}" for kind, eps in self.runs]

    def invocations(self, out):
        invs = []
        for label in self.graphs:
            for run_id in self._walk_ids(label):
                config = self.configs[label, run_id[len(label) + 1 :]]
                invs.append((run_id, ["walk", "--config", str(config), "--seed", str(self.seed),
                                      "--out", str(out / run_id)]))
            csvs = [str(out / r / "walk.csv") for r in self._walk_ids(label)]
            invs.append((f"{label}-compare", ["compare", *csvs, "--out", str(out / f"{label}-compare")]))
        return invs

    def setup_spec(self):
        return {"kind": "density", "config": str(self.configs["dihedral27", "amplitude-e1"])}

    def density_configs(self):
        return [p for (label, run), p in self.configs.items() if run != "ideal"]

    def reference(self):
        failures: dict[str, list[str]] = {}
        timers: list[StepTimer] = []
        ideal, kraus = {}, {}
        for label, g in self.graphs.items():
            width = g.circuit_width
            psi0 = build_initial_state(load_config(str(self.configs[label, "ideal"])))
            ideal[label] = oracle.noiseless_probs(g, GROVER, psi0, self.size.idle_steps)
            u = oracle.embedded_reference(g, GROVER)
            for kind, eps in self.runs:
                _, r1, r2 = oracle.draw_noise(self.seed, eps)
                route = oracle.idle_route(u, width, np.outer(psi0, psi0.conj()),
                                          _idle_channel(kind, r1, r2), self.size.idle_kraus_steps)
                kraus[f"{label}-{kind}-e{eps}"] = [oracle.vertex_probs(np.diag(r).real, g) for r in route]
            run_id = f"{label}-amplitude-e1"
            timer = StepTimer(self.configs[label, "amplitude-e1"], run_id)
            timer.burst(self.size.idle_kraus_steps - 1)
            for t, want in enumerate(kraus[run_id], start=1):
                if np.abs(timer.probs[t - 1] - want).max() > oracle.MATCH:
                    failures.setdefault(run_id, []).append(
                        f"t={t}: density differs from the explicit Kraus route")
            timers.append(timer)
        return Reference(failures, timers, {"ideal": ideal, "kraus": kraus})

    def check_pass(self, out, ref):
        bad: dict[str, list[str]] = {}
        steps = self.size.idle_steps
        for label in self.graphs:
            avgs = {}
            for run_id in self._walk_ids(label):
                csv = oracle.parse_walk_csv(out / run_id / "walk.csv")
                msgs = oracle.csv_failures(csv, steps)
                if run_id.endswith("ideal"):
                    want = ref.data["ideal"][label]
                    worst = max(np.abs(a - b).max() for a, b in zip(csv.probs, want))
                    if len(csv.probs) != len(want) or worst > oracle.MATCH:
                        msgs.append(f"noiseless walk differs from the reference operator by {worst:.3e}")
                else:
                    eps = int(run_id.rsplit("-e", 1)[1])
                    _, r1, r2 = oracle.draw_noise(self.seed, eps)
                    if float(csv.meta["r1"]) != r1:
                        msgs.append("idle rate differs from the seeded draw")
                    for t, want in enumerate(ref.data["kraus"][run_id], start=1):
                        if t < len(csv.probs) and np.abs(csv.probs[t] - want).max() > oracle.MATCH:
                            msgs.append(f"t={t}: distribution differs from the explicit Kraus route")
                bad[run_id] = msgs
                avgs[run_id] = csv.avg
            bad[f"{label}-compare"] = self._check_compare(out / f"{label}-compare" / "compare.csv", label, avgs)
        return bad

    def _check_compare(self, path, label, avgs):
        lines = path.read_text().splitlines()
        if lines[:1] != ["epsilon,idle_kind,kl_bits,tvd"] or len(lines) != 1 + len(self.runs):
            return ["compare output has the wrong shape"]
        msgs = []
        ideal = avgs[f"{label}-ideal"]
        got = {}
        for line, (kind, eps) in zip(lines[1:], self.runs):
            e, k, kl, dist = line.split(",")
            noisy = avgs[f"{label}-{kind}-e{eps}"]
            want = (oracle.kl_bits(ideal, noisy), oracle.tvd(ideal, noisy))
            if (e, k) != (str(eps), kind) or abs(float(kl) - want[0]) > oracle.MATCH \
                    or abs(float(dist) - want[1]) > oracle.MATCH:
                msgs.append(f"{kind} eps={eps}: KL/TVD {kl},{dist} differ from {want}")
            got[kind, eps] = (float(kl), float(dist))
        for kind in ("amplitude", "phase"):
            if not (got[kind, 1][0] > got[kind, 6][0] and got[kind, 1][1] > got[kind, 6][1]):
                msgs.append(f"{kind}: KL and TVD at epsilon 1 are not above those at epsilon 6")
        return msgs


WORKLOADS = {w.name: w for w in (NoisyDihedral27, CompileSweep, IdleSweep)}
