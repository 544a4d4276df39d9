"""Spans around public tritwalk calls, recorded from outside the package.

The benchmark does not edit the package to time it.  ``install`` replaces
the module attributes through which one tritwalk module calls another
(``tritwalk.cli.lower_circuit``, ``tritwalk.noise.circuit_unitary``, ...)
with wrappers that open a span and call the original.  Spans nest through
a stack, so the lowering pass that ``simulate_noisy_walk`` starts inside
its first step becomes a child of that step.  Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager


def now() -> float:
    """Clock shared by every process on the host, so a parent can time a child."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span recorder: name, start, end, parent span and run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "run": self.run_id,
            "start": now(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = now()


def _gate_count(circuit) -> dict:
    return {"gates": len(circuit.gates)}


def _lowered_counts(circuit) -> dict:
    two = sum(1 for g in circuit.gates if len(g.controls) == 1)
    return {"gates": len(circuit.gates), "two_qutrit": two}


# (module, attribute looked up at call time, span name, counts taken from the result)
TARGETS = (
    ("cli", "load_config", "config.load", None),
    ("cli", "build_initial_state", "config.initial_state", None),
    ("cli", "build_layer_dihedral", "walk.build", _gate_count),
    ("cli", "build_layer_cycle", "walk.build", _gate_count),
    ("walk", "decompose_u3", "su3.decompose", None),
    ("blockdiag", "decompose_su3", "su3.decompose", None),
    ("cli", "blockdiag_synthesize", "blockdiag.synth", _gate_count),
    ("toffoli", "expand_mc_rotation", "blockdiag.expand", None),
    ("cli", "lower_circuit", "toffoli.lower", _lowered_counts),
    ("noise", "lower_circuit", "toffoli.lower", _lowered_counts),
    ("toffoli", "circuit_unitary", "circuit.unitary", None),
    ("toffoli", "embed_gate", "circuit.embed", None),
    ("cli", "circuit_unitary", "circuit.unitary", None),
    ("noise", "circuit_unitary", "circuit.unitary", None),
    ("cli", "apply_state", "circuit.apply_state", None),
    ("cli", "count_gates", "circuit.count", None),
    ("cli", "resolve_noise", "noise.resolve", None),
    ("cli", "vertex_distribution", "analysis.vertex_dist", None),
    ("cli", "time_average", "analysis.time_average", None),
    ("cli", "kl_divergence", "analysis.compare", None),
    ("cli", "tvd", "analysis.compare", None),
)


def _wrap(tracer: Tracer, fn, name: str, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
        if counts is not None:
            rec.update(counts(out))
        return out

    return wrapper


def _wrap_steps(tracer: Tracer, fn):
    """Span every advance of the density generator.

    The first advance also runs the generator's set-up (lowering, superop
    fusion or the dense unitary), so it is named apart from the steps.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        name = "noise.first_step"
        while True:
            with tracer.span(name) as rec:
                try:
                    item = next(gen)
                except StopIteration:
                    rec["name"] = "noise.end"
                    return
            name = "noise.step"
            yield item

    return wrapper


@contextmanager
def install(tracer: Tracer):
    """Patch every target for the duration of the block, then restore it."""
    saved = []
    try:
        for mod_name, attr, span_name, counts in TARGETS:
            mod = importlib.import_module(f"tritwalk.{mod_name}")
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, _wrap(tracer, original, span_name, counts))
        cli = importlib.import_module("tritwalk.cli")
        saved.append((cli, "simulate_noisy_walk", cli.simulate_noisy_walk))
        cli.simulate_noisy_walk = _wrap_steps(tracer, cli.simulate_noisy_walk)
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part covered by its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
