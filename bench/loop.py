"""Set-up, the closed loop, output checks and the metrics of one run.

One client calls ``kgbounds.cli.main(argv)`` in-process, sends the next
command only when the previous one has returned (a closed loop) and
repeats the workload's fixed command list in passes until the run's
time is up.  Outputs go to a fresh directory per pass; they are checked
after each pass, outside the timed region.  One untimed pass right
after set-up measures each command's memory peak with tracemalloc,
before any gauge or oracle work runs.  A command fails when its
exit code or output disagrees with the independent expectation, or
when it writes different bytes than the same command did in the first
pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import resource
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gauge as gauges
import oracle
import tracer as tracing
import workloads

#: set-up repetitions per run; setup_s is their median
SETUPS = 11

#: gauge runs before each pass and each set-up; the best of them is the
#: machine's speed
GAUGE_REPEATS = 3

#: the gauge that times set-ups, and its best time on the baseline host
#: (bench/baseline.json).  Set-up is a fresh import and a warm-up on the
#: 2 x 2 well, interpreter-bound work like the well-many gauge's, so
#: setup_s is each set-up's time in units of the gauge run just before
#: it, times this: seconds at the baseline host's speed, steady across
#: the drift of a shared machine.
SETUP_GAUGE = "well-many"
SETUP_GAUGE_S = 0.0025

#: warm-up commands, run once per set-up on the 2 x 2 well so that lazy
#: imports and first-call costs of every command kind land in set-up
WARMUP = (
    ("spectrum", "--tau", "1"),
    ("bounds", "--tau", "1", "--eta", "0.1", "--optimize-shift"),
    ("verify", "--tau", "1", "--eta", "0.1", "--paper-shift"),
    ("sweep", "--tau", "1", "--sweep-range", "0:2.2", "--steps", "5"),
    ("reproduce", "example2"),
)


@dataclass
class Pass:
    wall: float
    latencies: list
    commands: range          # global command ids of this pass
    gauge: float             # best gauge time just before the pass
    emitted: int = 0         # eigenvalue rows written by the pass
    peak: int = 0            # bytes; see Loop.one_pass(memory=True)


@dataclass
class Run:
    setup_times: list
    setup_gauges: list
    kinds: list
    passes: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    memory: Pass | None = None
    attempted: int = 0
    failures: list = field(default_factory=list)
    tracer: tracing.Tracer | None = None


def _fresh_import():
    for key in [k for k in sys.modules if k == "kgbounds" or k.startswith("kgbounds.")]:
        del sys.modules[key]
    return importlib.import_module("kgbounds.cli"), importlib.import_module("kgbounds.models")


def _call(cli, argv, sink):
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code


def setup(name, seed, work, tiny):
    """Import the package, generate and save the inputs, warm up; timed.

    Generation only draws the inputs; the expected results are derived
    later, when the outputs are checked.
    """
    t0 = perf_counter()
    cli, models = _fresh_import()
    input_dir = Path(tempfile.mkdtemp(prefix="inputs-", dir=work))
    commands, model_files = workloads.generate(name, seed, input_dir, tiny)
    for path, u2, v in model_files:
        models.save_model(models.ModelSpec(u2, v, label=path.stem), path)
    sink = io.StringIO()
    for k, argv in enumerate(WARMUP):
        code = _call(cli, (*argv, "--out", str(input_dir / f"warmup{k}")), sink)
        if code != 0:
            raise RuntimeError(f"warm-up command {argv} exited {code}")
    return perf_counter() - t0, cli, commands


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")) if path.is_dir() else [path]:
        if f.is_file():
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


class Loop:
    """Runs passes of one command list and checks every output."""

    def __init__(self, cli, commands, work, run, gauge, corrupt=None):
        self.cli = cli
        self.commands = commands
        self.work = work
        self.run = run
        self.corrupt = corrupt       # self-test hook: damages outputs
        self.next_id = 0
        self.first_digest = {}
        self.gauge = gauge

    def one_pass(self, tracer=None, memory=False):
        """Run the command list once and check it; returns a Pass.

        With ``memory`` no gauge runs and the pass records, in ``peak``,
        the largest allocation peak of any one command above what was
        allocated when it started (Python objects and numpy arrays,
        through tracemalloc); its latencies are not steady and are not
        used.
        """
        pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=self.work))
        outs = [pass_dir / f"{k}-{c.kind}{'' if c.kind == 'reproduce' else '.csv'}"
                for k, c in enumerate(self.commands)]
        codes, latencies = [], []
        sink = io.StringIO()
        first = self.next_id
        gauge = 0.0 if memory else min(self.gauge() for _ in range(GAUGE_REPEATS))
        peak = 0
        if memory:
            tracemalloc.start()
        if tracer is not None:
            tracer.install()
        try:
            start = perf_counter()
            for k, cmd in enumerate(self.commands):
                if tracer is not None:
                    tracer.command = first + k
                if memory:
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                t = perf_counter()
                codes.append(_call(self.cli, (*cmd.argv, "--out", str(outs[k])), sink))
                latencies.append(perf_counter() - t)
                if memory:
                    peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
            wall = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
            if memory:
                tracemalloc.stop()
        self.next_id += len(self.commands)
        done = Pass(wall, latencies, range(first, self.next_id), gauge, peak=peak)
        self._check(done, codes, outs)
        shutil.rmtree(pass_dir)
        return done

    def _check(self, done, codes, outs):
        for cmd, code, out in zip(self.commands, codes, outs):
            if self.corrupt is not None:
                self.corrupt(cmd, out)
            self.run.attempted += 1
            digest = _digest(out) if out.exists() else None
            key = cmd.argv
            if key in self.first_digest:
                # identical bytes share the first check's verdict
                want_code, want_digest, problem, emitted = self.first_digest[key]
                if code != want_code or digest != want_digest:
                    problem = "output differs from the first pass's identical command"
            else:
                problem, emitted = oracle.check(cmd, code, out)
                self.first_digest[key] = (code, digest, problem, emitted)
            done.emitted += emitted
            if problem:
                self.run.failures.append(f"{' '.join(cmd.argv)}: {problem}")


def execute(name, seed, seconds, trace, work, tiny=False, corrupt=None):
    """Set up SETUPS times, measure memory in one pass, then run passes
    for ``seconds``; returns a Run.

    A traced run alternates untraced and traced passes, so both halves
    see the same drift of the machine's speed.
    """
    setup_gauge = gauges.Gauge(SETUP_GAUGE)
    setup_times, setup_gauges = [], []
    for _ in range(SETUPS):
        setup_gauges.append(min(setup_gauge() for _ in range(GAUGE_REPEATS)))
        elapsed, cli, commands = setup(name, seed, work, tiny)
        setup_times.append(elapsed)
    run = Run(setup_times, setup_gauges, [c.kind for c in commands])
    loop = Loop(cli, commands, work, run, gauges.Gauge(name), corrupt)
    run.memory = loop.one_pass(memory=True)

    tr = tracing.Tracer() if trace else None
    until = perf_counter() + seconds
    while True:
        run.passes.append(loop.one_pass())
        if trace:
            run.traced.append(loop.one_pass(tr))
        if perf_counter() >= until:
            break
    run.tracer = tr
    return run


# ---------------------------------------------------------------------------
# metrics


def _ms(seconds):
    return 1000.0 * seconds


def best_latencies(passes):
    """Each command's minimum latency over the passes.

    Contention from other tenants of a shared host only adds time, and
    comes in bursts shorter than a pass, so the best of a command's
    repeats is the steady estimate of what the program itself costs.
    """
    return [min(xs) for xs in zip(*(p.latencies for p in passes))]


def end_to_end(run):
    """Every end-to-end figure of an untraced run, as {name: (value, unit)}.

    ``*_ref`` figures are times in units of the run's best gauge time
    (see gauge.py); the raw seconds are reported beside them.
    """
    best = best_latencies(run.passes)
    gauge = min(p.gauge for p in run.passes)
    lat = [x for p in run.passes for x in p.latencies]
    out = {
        "setup_s": (statistics.median(
            t / g for t, g in zip(run.setup_times, run.setup_gauges)) * SETUP_GAUGE_S, "s"),
        "setup_raw_s": (statistics.median(run.setup_times), "s"),
        "wall_ref": (sum(best) / gauge, "ref"),
        "cmd_p50_ref": (statistics.median(best) / gauge, "ref"),
        "peak_alloc_mb": (run.memory.peak / 2**20, "MiB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "failed_frac": (len(run.failures) / run.attempted, "1"),
        "gauge_ms": (_ms(gauge), "ms"),
        "wall_s": (sum(best), "s"),
        "cmd_p50_ms": (_ms(statistics.median(best)), "ms"),
        "pass_wall_median_s": (statistics.median(p.wall for p in run.passes), "s"),
    }
    # the tail over every sample, only where at least ten lie beyond p99
    if len(lat) >= 1000:
        out["cmd_p99_ms"] = (_ms(statistics.quantiles(lat, n=100)[98]), "ms")
    out["commands_per_run"] = (len(lat), "count")
    by_kind = {}
    for kind, x in zip(run.kinds, best):
        by_kind.setdefault(kind, []).append(x)
    for kind, xs in sorted(by_kind.items()):
        out[f"{kind}_s"] = (statistics.median(xs), "s")
    return out


def overhead(untraced, traced):
    """Traced minus untraced best-of wall, each half in its own gauge units.

    Returns seconds at the run's best gauge time, so a drift of the
    machine's speed between the halves does not show as tracer cost.
    """
    def ref(passes):
        return sum(best_latencies(passes)) / min(p.gauge for p in passes)

    gauge = min(p.gauge for p in untraced + traced)
    return (ref(traced) - ref(untraced)) * gauge


def per_layer(run):
    """Per-layer figures of the traced passes, per pass (median over passes)."""
    per_pass = [
        (p, *tracing.summarize(run.tracer.spans, set(p.commands))) for p in run.traced
    ]

    def med(fn):
        return statistics.median(fn(p, s, top) for p, s, top in per_pass)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in tracing.NAMES:
        out[f"{name}.self_s"] = (med(lambda p, s, t: s[name]["self_s"]), "s")
        out[f"{name}.calls"] = (med(lambda p, s, t: s[name]["calls"]), "count")
    for layer in tracing.LAYERS:
        names = [n for n in tracing.NAMES if n.startswith(layer + ".")]
        out[f"{layer}.self_s"] = (med(lambda p, s, t: sum(s[n]["self_s"] for n in names)), "s")
        out[f"{layer}.errors"] = (med(lambda p, s, t: sum(s[n]["errors"] for n in names)), "count")
    res, eig = "spectral.pencil_residual", "spectral.eigen_spectrum"
    out["spectral.residuals_per_emitted_eig"] = (
        med(lambda p, s, t: ratio(s[res]["calls"], p.emitted)), "ratio")
    out["spectral.direct_path_frac"] = (
        med(lambda p, s, t: ratio(s[eig]["direct"], s[eig]["calls"])), "ratio")
    out["trace.overhead_s"] = (overhead(run.passes, run.traced), "s")
    out["trace.uncovered_s"] = (med(lambda p, s, t: p.wall - t), "s")
    out["trace.passes"] = (len(run.traced), "count")
    return out
