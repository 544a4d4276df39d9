"""The benchmark tracer patches tritwalk module attributes by name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_exist():
    # perfbench/run.py --trace 1 fails on the first attribute a module drops.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"tritwalk.{mod}.{attr}"
        for mod, attr, *_ in tracing.TARGETS
        if not hasattr(importlib.import_module(f"tritwalk.{mod}"), attr)
    ]
    assert missing == []
