"""Outside-in tracer: wraps the package's public functions without editing it.

Each traced function is replaced by a wrapper in every ``kgbounds``
module namespace that holds it, because ``cli``, ``harness`` and
``bounds`` import with ``from .x import f`` and patching only the
defining module would miss their calls.  ``core.spectral_norm`` is the
exception: it is rebound only in ``cli`` and ``bounds``, so the span
covers the gate-scale and perturbation-norm SVDs those modules take,
while the hundreds of small norms inside ``core`` (the shift search,
assembly) stay in their caller's self time.

Spans stay in memory as lists ``[name, start, end, parent, command,
error, solver_path]`` and are written as JSON lines at the end.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

#: (module, function, span name, namespaces to rebind in or None for all)
TRACED = (
    ("cli", "main", "cli.main", None),
    ("models", "harmonic_model", "models.build", None),
    ("models", "square_well_model", "models.build", None),
    ("models", "load_model", "models.build", None),
    ("core", "assemble_system", "core.assemble_system", None),
    ("core", "optimize_shift", "core.optimize_shift", None),
    ("core", "spectral_norm", "core.spectral_norm", ("cli", "bounds")),
    ("spectral", "eigen_spectrum", "spectral.eigen_spectrum", None),
    ("spectral", "sign_operator", "spectral.sign_operator", None),
    ("spectral", "pencil_residual", "spectral.pencil_residual", None),
    ("bounds", "perturbation_constants", "bounds.perturbation_constants", None),
    ("bounds", "delta_gram", "bounds.delta_gram", None),
    ("bounds", "verify_bounds", "bounds.verify_bounds", None),
    ("harness", "sweep_potential", "harness.sweep_potential", None),
    ("harness", "example1_table", "harness.example1_table", None),
    ("harness", "example2_tables", "harness.example2_tables", None),
)

LAYERS = ("models", "core", "spectral", "bounds", "harness", "cli")

NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TRACED))


class Tracer:
    """Installs span-recording wrappers; ``command`` tags new spans."""

    def __init__(self):
        self.spans = []
        self.command = None
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else None,
                    self.command, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            path = getattr(result, "solver_path", None)
            if path is not None:
                span[6] = path
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = {
            key.rpartition(".")[2]: mod
            for key, mod in sys.modules.items()
            if key == "kgbounds" or key.startswith("kgbounds.")
        }
        for home, attr, name, where in TRACED:
            original = getattr(modules[home], attr)
            wrapper = self._wrap(original, name)
            for short, mod in modules.items():
                if where is not None and short not in where:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def restore(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, command, error, solver in self.spans:
                record = {
                    "name": name,
                    "start": start - t0,
                    "end": end - t0,
                    "parent": parent,
                    "command": command,
                    "error": error,
                }
                if solver is not None:
                    record["solver_path"] = solver
                fh.write(json.dumps(record) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def summarize(spans, commands):
    """Per-name totals restricted to spans of the given command ids.

    Returns {name: {"self_s", "calls", "errors", "direct"}}, zero for names
    with no span, and the summed duration of the top-level spans.
    """
    own = self_times(spans)
    out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "errors": 0, "direct": 0})
    top = 0.0
    for k, (name, start, end, parent, command, error, solver) in enumerate(spans):
        if command not in commands:
            continue
        rec = out[name]
        rec["self_s"] += own[k]
        rec["calls"] += 1
        rec["errors"] += int(error)
        rec["direct"] += int(solver == "direct")
        if parent is None:
            top += end - start
    return out, top
