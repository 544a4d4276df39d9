"""tritwalk benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  With ``--trace 0`` the run measures set-up in fresh
processes, then repeats whole CLI passes of the workload for at least
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it
runs one untraced and one traced pass and reports per-layer metrics.
Every pass's outputs are checked against independent references; the
last stdout line is the JSON result.  Inputs, outputs and the span file
live under ``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_BUDGET_S = 170  # a run must end within 180 s; children are killed past this


def _summary(samples: list[float], unit: str, scale: float = 1.0) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    s = sorted(x * scale for x in samples)
    n = len(s)
    out = {"median": statistics.median(s), "unit": unit, "n": n, "pct": None, "pct_value": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100 - p) / 100 >= 10:
            out["pct"] = p
            out["pct_value"] = s[max(0, math.ceil(p / 100 * n) - 1)]
            break
    return out


def _blas_threads() -> int | None:
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def blas_floor(reps: int = 200) -> dict:
    """Time the noisy kernel's contraction shape with BLAS alone.

    One fused two-wire superoperator (81x81) applied to a width-5 density
    held as (9,)*5 contracts with an 81 x 729 slice, complex today and real
    in a Hermitian-basis engine.  Flops and bytes are computed, not measured.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    out = {}
    for label, dtype, flops_per_mac in (("complex", complex, 8), ("real", float, 2)):
        a = rng.normal(size=(81, 81)).astype(dtype)
        b = rng.normal(size=(81, 729)).astype(dtype)
        c = np.empty((81, 729), dtype=dtype)
        for _ in range(5):
            np.matmul(a, b, out=c)
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            np.matmul(a, b, out=c)
            times.append(time.perf_counter() - start)
        out[label] = {
            "ms": statistics.median(times) * 1e3,
            "flops": flops_per_mac * 81 * 81 * 729,
            "bytes": (a.size + b.size + c.size) * a.itemsize,
        }
    return out


class Run:
    def __init__(self, args: argparse.Namespace, workload) -> None:
        self.args = args
        self.workload = workload
        self.work = workload.work
        self.attempted = 0
        self.failed_ops: list[str] = []
        self.notes: list[str] = []
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def child(self, mode: str, spec: dict, tag: str) -> tuple[dict | None, float, float, int]:
        """Run child.py; returns (result, spawn time, exit time, return code)."""
        spec_path = self.work / f"{tag}.spec.json"
        result_path = self.work / f"{tag}.result.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        with open(self.work / f"{tag}.stderr", "w") as err:
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), mode, str(spec_path), str(result_path)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                rc = proc.wait()
            end = time.clock_gettime(time.CLOCK_MONOTONIC)
        result = json.loads(result_path.read_text()) if rc == 0 and result_path.exists() else None
        return result, start, end, rc

    def run_pass(self, index: int, trace: bool) -> dict:
        """One CLI pass of the workload in a fresh process; outputs are checked later."""
        out = self.work / f"pass{index}"
        out.mkdir()
        invs = self.workload.invocations(out)
        spec = {
            "run_id": f"{self.workload.name}-seed{self.args.seed}-pass{index}",
            "trace": trace,
            "invocations": [{"argv": argv, "stdout": str(out / f"{inv}.stdout")} for inv, argv in invs],
            "density_probes": [str(p) for p in self.workload.density_configs()],
        }
        result, start, end, rc = self.child("pass", spec, f"pass{index}")
        return {"out": out, "invs": invs, "rcs": result["rcs"] if result else [rc or 1] * len(invs),
                "wall": end - start, "start": start, "result": result,
                "csv_bytes": sum(p.stat().st_size for p in out.rglob("*.csv"))}

    def check(self, passes: list[dict], ref) -> None:
        """Count every invocation of every pass; it fails on a bad exit or any failed check."""
        if self.args.corrupt:
            _corrupt_first_output(passes[0]["out"])
        standing = ref.all_failures()
        for p in passes:
            try:
                bad = self.workload.check_pass(p["out"], ref)
            except Exception as exc:  # a malformed output is a failed check, not a harness crash
                bad = {inv: [f"output check raised {type(exc).__name__}: {exc}"] for inv, _ in p["invs"]}
            for (inv, _), code in zip(p["invs"], p["rcs"]):
                msgs = ([f"exit code {code}"] if code != 0 else []) + bad.get(inv, []) + standing.get(inv, [])
                self.attempted += 1
                if msgs:
                    self.failed_ops.append(f"{p['out'].name} {inv}: " + "; ".join(msgs))

    def setup_sample(self, index: int) -> float | None:
        result, _, _, rc = self.child("setup", self.workload.setup_spec(), f"setup{index}")
        if result is None:
            self.notes.append(f"set-up probe {index} exited with code {rc}")
            return None
        return result["setup_s"]


def _corrupt_first_output(out: Path) -> None:
    """Bump the last field of the first numeric row of the first CSV the pass wrote."""
    path = sorted(out.rglob("*.csv"), key=lambda p: p.stat().st_mtime)[0]
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if line.startswith("#") or len(fields) < 2:
            continue
        try:
            value = float(fields[-1])
        except ValueError:
            continue
        fields[-1] = repr(value + 0.25) if "." in fields[-1] else str(int(value) + 1)
        lines[i] = ",".join(fields)
        break
    path.write_text("\n".join(lines) + "\n")


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Rounds of set-up probes, one CLI pass and a burst of density steps.

    Rounds repeat until the workload's minimum pass count is reached and the
    passes add up to --seconds.  Interleaving spreads every metric's samples
    over the whole run, so a slow spell of the host does not land on one
    metric alone.
    """
    ref = run.workload.reference()
    rounds = run.workload.size.rounds[run.workload.name]
    setup, passes = [], []
    while len(passes) < rounds.min_passes or sum(p["wall"] for p in passes) < run.args.seconds:
        for _ in range(rounds.setup_probes):
            sample = run.setup_sample(len(setup))
            setup += [] if sample is None else [sample]
        passes.append(run.run_pass(len(passes), False))
        for timer in ref.timers:
            timer.burst(rounds.burst_steps)
    run.check(passes, ref)
    walls = [p["wall"] for p in passes]
    rss = [p["result"]["peak_rss_kb"] / 1024 for p in passes if p["result"]]
    steps = ref.step_samples()
    detail = {
        "wall_s": _summary(walls, "s"),
        "setup_s": _summary(setup, "s"),
        "step_ms": _summary(steps, "ms", 1e3),
        "peak_rss_mb": _summary(rss, "MB"),
    }
    metrics = {name: {"value": d["median"], "unit": d["unit"]} for name, d in detail.items()}
    detail["samples"] = {"wall_s": walls, "setup_s": setup, "step_s": steps, "peak_rss_mb": rss}
    return metrics, detail


# Per-layer metrics and their units; per_layer() derives each from the traced pass.
PER_LAYER_UNITS = {
    "config.load_s": "s",
    "walk.build_s": "s",
    "walk.layer_gates": "count",
    "su3.decompose_us": "us",
    "blockdiag.synth_s": "s",
    "blockdiag.gates": "count",
    "toffoli.lower_s": "s",
    "toffoli.lowered_gates": "count",
    "toffoli.two_qutrit_gates": "count",
    "toffoli.gates_per_s": "1/s",
    "noise.compile_s": "s",
    "noise.step_ms": "ms",
    "noise.blas_floor_ms": "ms",
    "noise.blas_floor_real_ms": "ms",
    "noise.blas_floor_flops": "count",
    "noise.blas_floor_bytes": "B",
    "noise.blas_floor_real_flops": "count",
    "noise.blas_floor_real_bytes": "B",
    "circuit.unitary_s": "s",
    "circuit.apply_state_ms": "ms",
    "analysis.vertex_dist_us": "us",
    "analysis.compare_s": "s",
    "cli.csv_bytes": "B",
    "cli.overhead_s": "s",
    "harness.traced_wall_s": "s",
    "harness.overhead_s": "s",
    "harness.trace_overhead_s": "s",
}


def _pipeline_spans(spans: list[dict]) -> list[dict]:
    """Spans of the CLI pipeline: everything except the set-up probes and their children."""
    by_id = {s["id"]: s for s in spans}

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s["name"]

    return [s for s in spans if root(s) != "noise.setup"]


def per_layer(run: Run) -> tuple[dict, dict]:
    from tracing import self_times

    ref = run.workload.reference()
    untraced = run.run_pass(0, False)
    traced = run.run_pass(1, True)
    run.check([untraced, traced], ref)
    floor = blas_floor()
    if traced["result"] is None:
        raise RuntimeError("traced pass did not finish; see .perfbench_run/ stderr files")
    spans = traced["result"]["spans"]
    own = self_times(spans)
    pipe = _pipeline_spans(spans)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in pipe if s["name"] == name)

    def median(name, scale):
        d = [dur(s) for s in pipe if s["name"] == name]
        return statistics.median(d) * scale if d else 0.0

    def count(name, key):
        return sum(s.get(key, 0) for s in pipe if s["name"] == name)

    # The traced wall covers the CLI pipeline: spawn until the last invocation returned.
    traced_wall = traced["result"]["pipeline_end"] - traced["start"]
    untraced_wall = untraced["result"]["pipeline_end"] - untraced["start"] if untraced["result"] else math.nan
    covered = sum(own[s["id"]] for s in pipe)
    lower_s = total("toffoli.lower")
    values = {
        "config.load_s": total("config.load"),
        "walk.build_s": total("walk.build"),
        "walk.layer_gates": count("walk.build", "gates"),
        "su3.decompose_us": median("su3.decompose", 1e6),
        "blockdiag.synth_s": total("blockdiag.synth"),
        "blockdiag.gates": count("blockdiag.synth", "gates"),
        "toffoli.lower_s": lower_s,
        "toffoli.lowered_gates": count("toffoli.lower", "gates"),
        "toffoli.two_qutrit_gates": count("toffoli.lower", "two_qutrit"),
        "toffoli.gates_per_s": count("toffoli.lower", "gates") / lower_s if lower_s else 0.0,
        "noise.compile_s": sum(own[s["id"]] for s in spans if s["name"] == "noise.setup"),
        "noise.step_ms": median("noise.step", 1e3),
        "noise.blas_floor_ms": floor["complex"]["ms"],
        "noise.blas_floor_real_ms": floor["real"]["ms"],
        "noise.blas_floor_flops": floor["complex"]["flops"],
        "noise.blas_floor_bytes": floor["complex"]["bytes"],
        "noise.blas_floor_real_flops": floor["real"]["flops"],
        "noise.blas_floor_real_bytes": floor["real"]["bytes"],
        "circuit.unitary_s": total("circuit.unitary"),
        "circuit.apply_state_ms": median("circuit.apply_state", 1e3),
        "analysis.vertex_dist_us": median("analysis.vertex_dist", 1e6),
        "analysis.compare_s": total("analysis.compare"),
        "cli.csv_bytes": traced["csv_bytes"],
        "cli.overhead_s": sum(own[s["id"]] for s in pipe if s["name"] == "cli.main"),
        "harness.traced_wall_s": traced_wall,
        "harness.overhead_s": traced_wall - covered,
        "harness.trace_overhead_s": traced_wall - untraced_wall,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}

    table: dict[str, dict] = {}
    for s in pipe:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur(s)
        row["self_s"] += own[s["id"]]
    table["(harness: outside every span)"] = {"calls": 1, "total_s": traced_wall - covered,
                                             "self_s": traced_wall - covered}
    detail = {"layers": table, "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
              "blas_floor": floor, "spans": spans}
    return metrics, detail


def _print_report(name: str, args, facts: dict, detail: dict, fail_ratio: float) -> None:
    print(f"perfbench {name} seed={args.seed} trace={args.trace} size={args.size}")
    if args.trace:
        wall = detail["traced_wall_s"]
        print(f"layer self times in the traced pass (wall {wall:.4f} s, untraced "
              f"{detail['untraced_wall_s']:.4f} s):")
        rows = sorted(detail["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for layer, row in rows:
            print(f"  {layer:32s} calls {row['calls']:7d}  total {row['total_s']:10.4f} s  "
                  f"self {row['self_s']:10.4f} s  {100 * row['self_s'] / wall:6.2f}%")
        accounted = sum(r["self_s"] for r in detail["layers"].values())
        print(f"  sum of self times plus harness {accounted:.4f} s of {wall:.4f} s traced wall")
    else:
        for metric, d in detail.items():
            if metric == "samples":
                continue
            pct = "no percentile (fewer than 20 samples)" if d["pct"] is None else \
                f"p{d['pct']:g} {d['pct_value']:.6g}"
            print(f"  {metric:12s} median {d['median']:.6g} {d['unit']}  {pct}  n={d['n']}")
    print(f"  fail_ratio {fail_ratio:.6g}")
    print("facts " + json.dumps(facts))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest inputs, for the harness's own test")
    parser.add_argument("--corrupt", action="store_true",
                        help="alter the first output of the first pass before it is checked")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tritwalk" / "__init__.py").is_file():
        print(f"error: no tritwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tritwalk
    import workloads

    if not Path(tritwalk.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported tritwalk from {tritwalk.__file__}, not the checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_run"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = base / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        facts = {**machine_facts(), "seed": args.seed, "load_start": os.getloadavg()}
        workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size], work)
        run = Run(args, workload)
        metrics, detail = (per_layer if args.trace else end_to_end)(run)
        facts["load_end"] = os.getloadavg()
        if args.trace:
            facts["trace_overhead_s"] = metrics["harness.trace_overhead_s"]["value"]
        fail_ratio = len(run.failed_ops) / run.attempted
        results = base / "results"
        results.mkdir(exist_ok=True)
        (results / f"{tag}.json").write_text(json.dumps(
            {"facts": facts, "metrics": metrics, "detail": detail, "failures": run.failed_ops,
             "notes": run.notes}, indent=1))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _print_report(args.workload, args, facts, {k: v for k, v in detail.items() if k != "spans"}, fail_ratio)
    for msg in run.failed_ops + run.notes:
        print("  " + msg)
    correct = not run.failed_ops and not run.notes
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": len(run.failed_ops),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
