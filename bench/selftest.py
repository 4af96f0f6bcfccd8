"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that every workload, traced, emits every metric BENCHMARK.json
names, with a unit, and reports no failure on the current program; and
that a wrong output injected after a command (a flipped ``passed`` cell
in a verify table, an eigenvalue moved by 1e-3 in a spectrum table) is
counted as a failed command.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import sys

import run as bench


def _flip_passed(cmd, out):
    if cmd.kind == "verify" and out.exists():
        text = out.read_text()
        out.write_text(text.replace(",True,True\n", ",True,False\n", 1))


def _move_eigenvalue(cmd, out):
    if cmd.kind == "spectrum" and out.exists():
        lines = out.read_text().splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) + 1e-3)
        lines[1] = ",".join(cells)
        out.write_text("".join(lines))


def main() -> int:
    problem = bench.import_package()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    import workloads

    declared = bench.declared_metrics()
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    for workload in workloads.WORKLOADS:
        run, figures = bench.collect(workload, 1, 0.01, trace=True, tiny=True)
        if run.failures:
            print(f"{workload}: unexpected failures {run.failures}")
            return 1
        absent = [n for n in names if n not in figures or not figures[n][1]]
        if absent:
            print(f"{workload}: metrics missing or without unit: {absent}")
            return 1
        print(f"ok   {workload}: {run.attempted} commands, {len(names)} metrics with units")

    for workload, corrupt in (("ladder-gate", _flip_passed), ("well-many", _move_eigenvalue)):
        run, figures = bench.collect(workload, 1, 0.01, trace=False, tiny=True, corrupt=corrupt)
        if not run.failures or figures["failed_frac"][0] <= 0.0:
            print(f"{workload}: injected {corrupt.__name__} was not counted")
            return 1
        print(f"ok   {workload}: injected {corrupt.__name__} counted, "
              f"failed_frac = {figures['failed_frac'][0]:.4f} ({run.failures[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
