"""Benchmark for kgbounds: one workload per run, end to end or traced.

    python3 bench/run.py --workload ladder-gate --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see workloads.py): ``ladder-gate`` (spectrum and
verify on the oscillator, dominated by the pencil-residual gate),
``ladder-dense`` (bounds and example 1 at larger N, dense O(n^3) work,
no gate) and ``well-many`` (a thousand tiny commands, per-call
overhead).

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it spends half its time untraced and
half with the outside-in tracer installed and reports the per-layer
metrics, writing the spans to ``.bench_work/trace-<workload>-<seed>.jsonl``.
Every metric, including ones that only some workloads have (per-kind
latencies, ``cmd_p99_ms``, ``failed_frac``), is printed one per line
before the final JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: BLAS threads, at most the machine's cores.  One thread keeps runs
#: steady on a shared machine and makes layer times add up to wall time.
BLAS_THREADS = 1


def pin_threads():
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def import_package():
    """Pin BLAS threads and import kgbounds from the checkout's ``src/``.

    Returns an error message when the package cannot be imported.
    """
    pin_threads()
    if not (ROOT / "src" / "kgbounds").is_dir():
        return f"no package source at {ROOT / 'src' / 'kgbounds'}"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import kgbounds  # noqa: F401
    except ImportError as exc:
        return f"cannot import kgbounds from {ROOT / 'src'}: {exc}"
    import numpy  # noqa: F401  imported before set-up is timed
    import scipy.linalg  # noqa: F401
    return None


def declared_metrics():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(workload, seed, seconds, trace, tiny=False, corrupt=None):
    """Run one workload; returns the Run and {metric: (value, unit)}.

    Scratch files live under ``.bench_work`` in the checkout and are
    removed, except the span file of a traced run.
    """
    import loop

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        run = loop.execute(workload, seed, seconds, trace, work, tiny, corrupt)
        figures = loop.end_to_end(run)
        if trace:
            figures.update(loop.per_layer(run))
            run.tracer.write(scratch / f"trace-{workload}-{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run, figures


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = import_package()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wanted = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    run, figures = collect(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for key, value in environment().items():
        print(f"# {key} = {value}")
    for name, (value, unit) in figures.items():
        print(f"{name} = {_fmt(value)} {unit}")
    print("# set-up times (s): " + " ".join(f"{t:.4f}" for t in run.setup_times))
    print("# pass walls (s): " + " ".join(f"{p.wall:.4f}" for p in run.passes))
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")

    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
