"""A fixed reference job per workload that measures the machine, not the program.

On a shared 2-core VM the speed drifts by tens of percent over minutes
(frequency scaling, other tenants), far more than any bound worth
keeping, and the drift does not slow every kind of work alike: in one
slow spell a gauge that mixed SVDs with an interpreter-bound loop
slowed by half while the SVD-bound ladder-gate commands slowed by a
third.  So each
workload's gauge repeats the kinds of work that dominate that workload,
with plain numpy and the standard library:

* ladder-gate: the pencil residual's complex 80 x 80 product and SVD,
  and real 80 x 80 spectral norms;
* ladder-dense: a 320 x 320 symmetric eigensolve, a 160 x 160 general
  eigensolve and spectral norms;
* well-many: building an argparse parser with five subcommands and
  parsing one command line, tiny eigensolves and norms, and a CSV row.

End-to-end times divided by the gauge's best time are steady across the
drift, and no change to the package can move the gauge itself.
"""

from __future__ import annotations

import argparse
import csv
import io
from time import perf_counter

import numpy as np

from workloads import oscillator

#: kernels and repetitions per workload, each mix about 5-10 ms
MIXES = {
    "ladder-gate": (("residual", 6), ("norm80", 4)),
    "ladder-dense": (("eigh320", 1), ("eig160", 1), ("norm160", 2)),
    "well-many": (("parser", 2),),
}


def _parse_once(argv):
    parser = argparse.ArgumentParser(prog="gauge")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("one", "two", "three", "four", "five"):
        p = sub.add_parser(name)
        for k in range(12):
            p.add_argument(f"--option-{k}", type=float, default=None, help="an option")
        p.add_argument("--flag", action="store_true")
    return parser.parse_args(argv)


class Gauge:
    """Callable returning the elapsed time of one run of a workload's mix."""

    def __init__(self, workload: str):
        rng = np.random.Generator(np.random.PCG64(20181017))
        self.u2, self.v = oscillator(0.3, 80)
        sym = rng.normal(size=(320, 320))
        self.sym = sym + sym.T
        self.general = rng.normal(size=(160, 160))
        tiny = rng.normal(size=(4, 4))
        self.tiny = tiny + tiny.T
        self.kernels = [(getattr(self, f"_{name}"), reps) for name, reps in MIXES[workload]]

    def _residual(self):
        shifted = complex(1.7, 0.0) * np.eye(80) - self.v
        q = shifted @ shifted - self.u2
        return np.linalg.svd(q, compute_uv=False)[-1]

    def _norm80(self):
        return np.linalg.norm(self.u2, 2)

    def _eigh320(self):
        return np.linalg.eigh(self.sym)

    def _eig160(self):
        return np.linalg.eig(self.general)

    def _norm160(self):
        return np.linalg.norm(self.general, 2)

    def _parser(self):
        args = _parse_once(["three", "--option-3", "1.5", "--flag"])
        w, p = np.linalg.eigh(self.tiny)
        norm = np.linalg.norm(self.tiny[:2, :2] * args.option_3, 2)
        block = np.block([[self.tiny, p], [p.T, self.tiny]])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(
            [format(float(x), ".17g") for x in (*w, norm, block[0, 0])]
        )
        return buf.getvalue()

    def __call__(self) -> float:
        start = perf_counter()
        for kernel, reps in self.kernels:
            for _ in range(reps):
                kernel()
        return perf_counter() - start
