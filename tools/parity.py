"""Digests of a fixed list of ``kg`` commands, for byte-identity checks.

    python tools/parity.py [--src DIR] > digests.txt

Each command runs as ``python -m kgbounds.cli`` in a fresh process, with
DIR (default: the ``src/`` of this checkout) first on PYTHONPATH and one
BLAS thread.  One line per command: the exit code, the sha256 of its
output, the sha256 of its stderr and the command itself.  The output is
stdout followed by every file the command wrote, by name in sorted
order.  The temporary directory's path is replaced by ``{tmp}`` in
stdout and stderr, and DIR by ``{src}`` in stderr (a warning names its
source file), so the digests depend on the bytes the program writes
alone.  Diffing the output for two checkouts is the byte-identity
check of a change that must keep every output:

    python tools/parity.py --src ../parent/src > parent.txt
    python tools/parity.py > change.txt
    diff parent.txt change.txt

The command list covers the 2 x 2 well under the three shift policies,
three random model files (orders 2 to 8, from a fixed PCG64 seed), the
oscillator at N = 24, 80 and 160 with alpha 0.3 and 0.985, the text
report of ``kg bounds``, both ``reproduce`` commands at N = 150, and
failures of each exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: the potential scales of the random model files, relative to the
#: smallest eigenvalue of U: below, near and beyond contraction one
RANDOM_SCALES = (0.3, 0.9, 2.0)
RANDOM_SEED = 20261019

SHIFTS = (["--shift", "0"], ["--paper-shift"], ["--optimize-shift"])


def random_models(directory: Path) -> list[str]:
    """Write the random model files; their paths, relative to ``directory``."""
    rng = np.random.Generator(np.random.PCG64(RANDOM_SEED))
    names = []
    for k, scale in enumerate(RANDOM_SCALES):
        n = int(rng.integers(2, 9))
        root = rng.standard_normal((n, n)) + n * np.eye(n)
        u_squared = root @ root.T
        v = rng.uniform(-1.0, 1.0, size=(n, n))
        v = (v + v.T) * (0.5 * scale * np.sqrt(np.linalg.eigvalsh(u_squared)[0]))
        name = f"random{k}.json"
        doc = {"label": f"random{k}", "u_squared": u_squared.tolist(), "v": v.tolist()}
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")
        names.append(name)
    return names


def commands(models: list[str]) -> list[list[str]]:
    """The command list; ``{tmp}`` stands for the temporary directory."""
    cmds = []
    well = ["--tau", "1"]
    for shift in SHIFTS:
        cmds += [
            ["spectrum", *well, *shift],
            ["bounds", *well, *shift, "--eta", "0.1"],
            ["verify", *well, *shift, "--eta", "0.1"],
        ]
    cmds += [
        ["bounds", *well, "--paper-shift", "--eta", "0.1", "--format", "report"],
        ["sweep", *well, "--sweep-range", "0:2.2", "--steps", "23"],
        ["verify", "--tau", "1.7", "--paper-shift", "--eta", "0.35"],
        ["bounds", "--tau", "2.5", "--shift", "-1.25", "--eta", "0.1"],
    ]
    for name in models:
        model = ["--model", "{tmp}/" + name]
        for shift in (["--shift", "0"], ["--optimize-shift"]):
            cmds += [
                ["spectrum", *model, *shift],
                ["bounds", *model, *shift, "--eta", "1e-3", "--seed", "1"],
                ["verify", *model, *shift, "--eta", "1e-3", "--seed", "1"],
            ]
        cmds.append(["sweep", *model, "--sweep-range", "0:1.5", "--steps", "7"])
    for alpha, sizes in (("0.3", (24, 80, 160)), ("0.985", (24, 80))):
        for n in sizes:
            model = ["--alpha", alpha, "--grid-points", str(n)]
            cmds += [
                ["spectrum", *model],
                ["bounds", *model, "--eta", "1e-3"],
                ["verify", *model, "--eta", "1e-3"],
            ]
    oscillator = ["--alpha", "0.985", "--grid-points", "24"]
    cmds += [
        ["bounds", *oscillator, "--optimize-shift", "--eta", "1e-3"],
        ["bounds", *oscillator, "--eta", "1e-3", "--format", "report"],
        ["reproduce", "example1", "--grid-points", "150", "--out", "{tmp}/out"],
        ["reproduce", "example2", "--grid-points", "150", "--out", "{tmp}/out"],
        ["spectrum", "--model", "{tmp}/missing.json"],
        ["bounds", "--tau", "1", "--eta", "0.1", "--out", "{tmp}/missing/o.csv"],
        ["spectrum", "--alpha", "0.3", "--grid-points", "10", "--paper-shift"],
    ]
    return cmds


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def run(argv: list[str], src: Path, work: Path) -> str:
    """One line: exit code, output digest, stderr digest, the command."""
    out = work / "out"
    out.mkdir()
    tmp = str(work)
    full = [a.replace("{tmp}", tmp) for a in argv]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "kgbounds.cli", *full],
        cwd=work,
        env=env,
        capture_output=True,
        timeout=600,
    )
    stdout = proc.stdout.replace(tmp.encode(), b"{tmp}")
    stderr = proc.stderr.replace(tmp.encode(), b"{tmp}").replace(bytes(src), b"{src}")
    files = sorted(p for p in out.rglob("*") if p.is_file())
    parts = [stdout] + [p.name.encode() + b"\0" + p.read_bytes() for p in files]
    shutil.rmtree(out)
    return f"{proc.returncode} {digest(parts)} {digest([stderr])} {' '.join(argv)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=ROOT / "src",
        help="directory holding the kgbounds package (default: this checkout's src/)",
    )
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "kgbounds").is_dir():
        parser.error(f"no kgbounds package in {src}")
    with tempfile.TemporaryDirectory(prefix="kg-parity-") as tmp:
        work = Path(tmp)
        for cmd in commands(random_models(work)):
            print(run(cmd, src, work), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
