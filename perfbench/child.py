"""One child process of the benchmark: a workload pass or a set-up probe.

    python3 perfbench/child.py pass  SPEC.json RESULT.json
    python3 perfbench/child.py setup SPEC.json RESULT.json

``pass`` runs the workload's CLI invocations in order through
``tritwalk.cli.main``, each with its stdout sent to a file.  With tracing on
it records spans around the package's public calls, then probes set-up
costs the CLI does not separate.  ``setup`` imports the package, loads the
config and builds the layers, and for a density walk drains
``simulate_noisy_walk(..., steps=0)``: the time before a first step can run.
The parent puts the checkout's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time

T0 = time.clock_gettime(time.CLOCK_MONOTONIC)  # taken before the package import

import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402

import tracing  # noqa: E402


def _density_inputs(config_path: str) -> tuple:
    """Arguments of the walk's simulate_noisy_walk call, with steps=0."""
    import numpy as np

    from tritwalk.config import build_initial_state, load_config
    from tritwalk.walk import build_layer_cycle, build_layer_dihedral

    cfg = load_config(config_path)
    g = cfg.graph
    if g.kind == "dihedral":
        layer = build_layer_dihedral(g.N, cfg.coin)
    else:
        layer = build_layer_cycle(g.N, cfg.coin, g.liveliness)
    psi = build_initial_state(cfg)
    return layer, g.circuit_width, np.outer(psi, psi.conj()), 0, cfg.noise


def _build_layers(layers: list[list]) -> None:
    import numpy as np

    from tritwalk.walk import CoinSpec, build_layer_cycle, build_layer_dihedral

    coin = CoinSpec("xclass", theta=np.pi)
    for kind, n, a in layers:
        if kind == "dihedral":
            build_layer_dihedral(3**n, coin)
        else:
            build_layer_cycle(3**n, coin, a)


def run_setup(spec: dict) -> dict:
    if spec["kind"] == "density":
        from tritwalk.noise import simulate_noisy_walk

        for _ in simulate_noisy_walk(*_density_inputs(spec["config"])):
            pass
    else:
        import tritwalk  # noqa: F401

        _build_layers(spec["layers"])
    return {"setup_s": tracing.now() - T0}


def _peak_rss_kb() -> int:
    """High-water resident set of this process's own address space.

    Not ``ru_maxrss``: on Linux that carries over the parent's resident size
    across the spawn, so it would report the harness instead of the workload.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _call_main(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # one invocation failing must not stop the pass
        traceback.print_exc()
        return 1


def run_pass(spec: dict) -> dict:
    tracer = tracing.Tracer(spec["run_id"]) if spec["trace"] else None
    with tracer.span("import") if tracer else nullcontext():
        import tritwalk.cli
    rcs = []
    with tracing.install(tracer) if tracer else nullcontext():
        for inv in spec["invocations"]:
            with open(inv["stdout"], "w") as out, redirect_stdout(out):
                with tracer.span("cli.main") if tracer else nullcontext():
                    rcs.append(_call_main(tritwalk.cli.main, inv["argv"]))
        pipeline_end = tracing.now()
        if tracer:
            import tritwalk.noise

            # Probes outside the CLI pipeline: the steps=0 call isolates
            # channel compilation, with lowering and the dense unitary as
            # traced children of it.
            for path in spec["density_probes"]:
                inputs = _density_inputs(path)
                with tracer.span("noise.setup"):
                    for _ in tritwalk.noise.simulate_noisy_walk(*inputs):
                        pass
    return {
        "rcs": rcs,
        "t0": T0,
        "pipeline_end": pipeline_end,
        "peak_rss_kb": _peak_rss_kb(),
        "spans": tracer.spans if tracer else [],
    }


def main() -> int:
    mode, spec_path, result_path = sys.argv[1:4]
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run_pass(spec) if mode == "pass" else run_setup(spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
