"""The benchmark tracer wraps functions by name; each name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, name, _, _ in tracer.TRACED
        if not callable(
            getattr(importlib.import_module(f"kgbounds.{module}"), name, None)
        )
    ]
    assert not missing, f"bench/tracer.py traces missing functions: {missing}"
