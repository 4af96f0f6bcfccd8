"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload well-many --seeds 1-10

For every metric an untraced run prints (one ``name = value unit`` line each, the
judged ones repeated in the final JSON line) it prints the median
and the inter-quartile distance as a share of the median, the figure
BENCHMARK.json's bounds are set against; with ``--json`` the summary is
also written as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--json", help="write the summary here")
    args = parser.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    values = {}
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        for line in lines[:-1]:
            name, eq, rest = line.partition(" = ")
            if eq and not line.startswith(("#", "FAILED")):
                values.setdefault(name, []).append(float(rest.split()[0]))
        print(f"seed {seed} ({time.perf_counter() - start:.1f} s): "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else None
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(xs)}
        shown = "n/a" if spread is None else f"{spread:.2%}"
        print(f"{name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {shown}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                               "metrics": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
