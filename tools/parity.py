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

With ``--keep DIR`` every command's outputs are also written under DIR
(one directory per command: ``argv``, ``exit``, ``stdout``, ``stderr``
and ``files/``).  With ``--against DIR``, a directory an earlier run
kept, each command whose outputs differ from the kept ones is followed,
on stderr, by every numeric cell that moved (row key, column, old and
new value, relative move), and the run ends with the largest move per
cell name; the digest lines on stdout keep their format:

    python tools/parity.py --src ../parent/src --keep parent-out > parent.txt
    python tools/parity.py --against parent-out > change.txt

The command list covers the 2 x 2 well under the three shift policies,
the well at tau = 0 (V = 0: the mixed product vanishes and
kappa_disjoint is printed), ``spectrum`` on the well at tau = 2.1 (a
non-real spectrum, gated at its complex eigenvalues), ``sweep`` on the
well over tau = 2.1 .. 2.3 (non-real, simple spectra, not defective),
``sweep`` on the well over 1.2 .. 1.25, whose rows straddle b = 1 at
t = 1.2247 and the dense certificate with it, ``spectrum`` on the well
at tau = 2 - 1e-13 at the paper shift (b = 1 - 5e-14: the pencil row a
proven -Q(mu) > 0 admits),
three random model files (orders 2 to 8,
from a fixed PCG64 seed), one random model file of order 40 with
contraction 0.5 (the dense pencil route from core._SUBSET_MIN_ORDER
up, where the tridiagonal form is not), one model file of order 1
(whose U^2 is decomposed by a dense eigh: LAPACK's dstevd takes no
empty off-diagonal), ``spectrum`` on U^2 = I_2, V = 1.5 I_2 (b = 1.5:
the direct path, whose double eigenvalues 0.5 and 2.5 enter its
multiplicity test, spectral._cluster_defects), the oscillator at N = 24, 80
and 160 with alpha 0.3 and 0.985, ``spectrum`` and ``bounds`` on the
oscillator at N = 12 (the tridiagonal T from spectral's
_TRIDIAGONAL_MIN_ORDER = 8 up), ``bounds`` on it at N = 5 (below that
order: the dense T, with U^2's banded eigenbasis), ``verify`` on the alpha 0.9 oscillator
at N = 20 with eta 0.3 (a dense random dV whose perturbed spectrum is
non-real: exit 4, the gate failing at the real parts it emits), two
oscillator sweeps at N = 24 (alpha
0.3 over couplings 0..1, and alpha 0.985 over 0..1.2, whose last two
rows, past b = 1, take the direct path), a sweep of two couplings at
N = 24 and alpha 1 where b = 1 - 1e-13 and ``spectrum`` on its second
row (the tridiagonal pencil rows nearest b = 1 that a proven -Q(mu) > 0
admits), the text report of ``kg bounds``,
example 1 at N = 150 and at N = 2000 (where the model exists as bands
alone), example 2, and failures of each exit code (``--tau inf`` among
them, whose stderr is the one line of its validation error).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
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

#: the order and contraction b = ||V U^(-1)|| of the larger random model
DENSE_ORDER, DENSE_CONTRACTION = 40, 0.5

SHIFTS = (["--shift", "0"], ["--paper-shift"], ["--optimize-shift"])


def random_models(directory: Path) -> list[str]:
    """Write the random model files; their paths, relative to ``directory``.

    The small models come first, then the one of order DENSE_ORDER,
    whose potential is scaled to the contraction DENSE_CONTRACTION,
    then one of order 1 and one of order 2 with U^2 = I, V = 1.5 I,
    which draw nothing.
    """
    rng = np.random.Generator(np.random.PCG64(RANDOM_SEED))
    names = []

    def write(label, u_squared, v):
        doc = {"label": label, "u_squared": u_squared.tolist(), "v": v.tolist()}
        (directory / f"{label}.json").write_text(json.dumps(doc), encoding="utf-8")
        names.append(f"{label}.json")

    for k, scale in enumerate(RANDOM_SCALES):
        n = int(rng.integers(2, 9))
        root = rng.standard_normal((n, n)) + n * np.eye(n)
        u_squared = root @ root.T
        v = rng.uniform(-1.0, 1.0, size=(n, n))
        v = (v + v.T) * (0.5 * scale * np.sqrt(np.linalg.eigvalsh(u_squared)[0]))
        write(f"random{k}", u_squared, v)
    n = DENSE_ORDER
    root = rng.standard_normal((n, n)) + n * np.eye(n)
    u_squared = root @ root.T
    w, p = np.linalg.eigh(u_squared)
    v = rng.uniform(-1.0, 1.0, size=(n, n))
    v = v + v.T
    b = np.linalg.norm(v @ (p / np.sqrt(w)) @ p.T, 2)   # ||V U^(-1)||
    write(f"random{len(RANDOM_SCALES)}", u_squared, v * (DENSE_CONTRACTION / b))
    write("order1", np.array([[2.5]]), np.array([[0.7]]))   # b = 0.44
    write("double", np.eye(2), 1.5 * np.eye(2))   # b = 1.5
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
        ["spectrum", "--tau", "2.1"],
        ["sweep", *well, "--sweep-range", "0:2.2", "--steps", "23"],
        ["sweep", *well, "--sweep-range", "2.1:2.3", "--steps", "3"],
        ["sweep", *well, "--sweep-range", "1.2:1.25", "--steps", "9"],
        ["spectrum", "--tau", "1.9999999999999", "--paper-shift"],
        ["verify", "--tau", "1.7", "--paper-shift", "--eta", "0.35"],
        ["bounds", "--tau", "2.5", "--shift", "-1.25", "--eta", "0.1"],
        ["bounds", "--tau", "0", "--eta", "0.1"],
    ]
    for name in models[: len(RANDOM_SCALES)]:
        model = ["--model", "{tmp}/" + name]
        for shift in (["--shift", "0"], ["--optimize-shift"]):
            cmds += [
                ["spectrum", *model, *shift],
                ["bounds", *model, *shift, "--eta", "1e-3", "--seed", "1"],
                ["verify", *model, *shift, "--eta", "1e-3", "--seed", "1"],
            ]
        cmds.append(["sweep", *model, "--sweep-range", "0:1.5", "--steps", "7"])
    model = ["--model", "{tmp}/" + models[len(RANDOM_SCALES)]]
    perturbation = ["--eta", "1e-3", "--seed", "1"]
    cmds += [
        ["spectrum", *model, "--shift", "0"],
        ["bounds", *model, "--shift", "0", *perturbation],
        ["bounds", *model, "--optimize-shift", *perturbation],
        ["verify", *model, "--shift", "0", *perturbation],
    ]
    model = ["--model", "{tmp}/" + models[-2]]
    cmds += [
        ["spectrum", *model, "--shift", "0"],
        ["bounds", *model, "--shift", "0", *perturbation],
        ["verify", *model, "--shift", "0", *perturbation],
        ["spectrum", "--model", "{tmp}/" + models[-1], "--shift", "0"],
    ]
    for alpha, sizes in (("0.3", (24, 80, 160)), ("0.985", (24, 80))):
        for n in sizes:
            model = ["--alpha", alpha, "--grid-points", str(n)]
            cmds += [
                ["spectrum", *model],
                ["bounds", *model, "--eta", "1e-3"],
                ["verify", *model, "--eta", "1e-3"],
            ]
    small = ["--alpha", "0.3", "--grid-points", "12"]
    cmds += [["spectrum", *small], ["bounds", *small, "--eta", "1e-3"]]
    cmds.append(["bounds", "--alpha", "0.3", "--grid-points", "5", "--eta", "1e-3"])
    cmds.append(["verify", "--alpha", "0.9", "--grid-points", "20", "--eta", "0.3"])
    cmds += [
        ["sweep", "--alpha", "0.3", "--grid-points", "24", "--sweep-range", "0:1",
         "--steps", "21"],
        ["sweep", "--alpha", "0.985", "--grid-points", "24", "--sweep-range", "0:1.2",
         "--steps", "13"],
        ["sweep", "--alpha", "1.0", "--grid-points", "24", "--sweep-range",
         "1.000386940043096:1.000386940043097", "--steps", "2"],
        ["spectrum", "--alpha", "1.000386940043097", "--grid-points", "24"],
    ]
    oscillator = ["--alpha", "0.985", "--grid-points", "24"]
    cmds += [
        ["bounds", *oscillator, "--optimize-shift", "--eta", "1e-3"],
        ["bounds", *oscillator, "--eta", "1e-3", "--format", "report"],
        ["reproduce", "example1", "--grid-points", "150", "--out", "{tmp}/out"],
        ["reproduce", "example1", "--grid-points", "2000", "--out", "{tmp}/out"],
        ["reproduce", "example2", "--out", "{tmp}/out"],
        ["spectrum", "--model", "{tmp}/missing.json"],
        ["spectrum", "--tau", "inf"],
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


def run(argv: list[str], src: Path, work: Path):
    """(line, outputs): the line holds the exit code, output digest, stderr
    digest and the command; outputs maps ``exit``, ``stdout``, ``stderr``
    and ``files/<name>`` to the bytes they hold."""
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
    files = {p.name: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    parts = [stdout] + [name.encode() + b"\0" + data for name, data in files.items()]
    shutil.rmtree(out)
    line = f"{proc.returncode} {digest(parts)} {digest([stderr])} {' '.join(argv)}"
    outputs = {"exit": str(proc.returncode).encode(), "stdout": stdout, "stderr": stderr}
    outputs.update({f"files/{name}": data for name, data in files.items()})
    return line, outputs


def keep(directory: Path, index: int, argv: list[str], outputs: dict):
    """Write one command's outputs to ``directory/<index>/``."""
    target = directory / f"{index:03d}"
    for name, data in {"argv": " ".join(argv).encode(), **outputs}.items():
        (target / name).parent.mkdir(parents=True, exist_ok=True)
        (target / name).write_bytes(data)


def kept_runs(directory: Path) -> dict:
    """The outputs kept under ``directory``, by command line."""
    runs = {}
    for target in sorted(p for p in directory.iterdir() if p.is_dir()):
        files = (p for p in target.rglob("*") if p.is_file())
        outputs = {p.relative_to(target).as_posix(): p.read_bytes() for p in files}
        runs[outputs.pop("argv").decode()] = outputs
    return runs


#: CSV columns that name a row rather than hold a value
KEY_COLUMNS = ("row_type", "key", "index")


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _rows(text: str):
    """(row key, {column: cell}) per line: CSV (two lines or more, each
    with the header's number of commas) with its header's columns (key
    columns joined into the row key), else whitespace-separated tokens
    keyed by the first token."""
    lines = text.splitlines()
    commas = {line.count(",") for line in lines}
    if len(lines) > 1 and len(commas) == 1 and commas != {0}:
        header = lines[0].split(",")
        for number, line in enumerate(lines[1:], start=2):
            cells = dict(zip(header, line.split(",")))
            key = ",".join(cells.pop(c) for c in KEY_COLUMNS if c in cells)
            yield key or f"line {number}", cells
    else:
        for number, line in enumerate(lines, start=1):
            tokens = line.split()
            key = tokens[0] if tokens and _number(tokens[0]) is None else ""
            cells = {str(k): t for k, t in enumerate(tokens[1:] if key else tokens)}
            yield key or f"line {number}", cells


def moved_cells(old: bytes, new: bytes):
    """(row key, column, old, new, relative move) of each cell that differs.

    A cell holding ``a;b`` is two cells; a numeric cell moves by
    |new - old| / max(|old|, |new|), and any other change, or a change
    in the row layout, is reported with a move of inf.
    """
    old_rows = list(_rows(old.decode("utf-8", "replace")))
    new_rows = list(_rows(new.decode("utf-8", "replace")))
    if [k for k, _ in old_rows] != [k for k, _ in new_rows]:
        yield ("(rows)", "", len(old_rows), len(new_rows), math.inf)
        return
    for (key, before), (_, after) in zip(old_rows, new_rows):
        for column in sorted(set(before) | set(after)):
            a, b = before.get(column, ""), after.get(column, "")
            if a == b:
                continue
            pairs = itertools.zip_longest(a.split(";"), b.split(";"), fillvalue="")
            for part, (x, y) in enumerate(pairs):
                if x == y:
                    continue
                name = column if ";" not in a else f"{column}[{part}]"
                u, v = _number(x), _number(y)
                if u is None or v is None or not (math.isfinite(u) and math.isfinite(v)):
                    yield (key, name, x, y, math.inf)
                else:
                    yield (key, name, u, v, abs(v - u) / max(abs(u), abs(v)))


def cell_name(key: str, column: str) -> str:
    """A moved cell's name for the summary: its row key without row numbers."""
    words = [w for w in key.split(",") if _number(w) is None]
    return ",".join(words + [column])


def report_moves(argv: list[str], kept: dict, outputs: dict, largest: dict):
    """Print every cell of ``outputs`` that moved from ``kept``; update ``largest``."""
    for part in sorted(set(kept) | set(outputs)):
        before, after = kept.get(part, b""), outputs.get(part, b"")
        if before == after:
            continue
        print(f"# {' '.join(argv)}: {part} differs", file=sys.stderr)
        for key, column, old, new, move in moved_cells(before, after):
            print(f"#   {key} {column}: {old!r} -> {new!r} ({move:.3e})", file=sys.stderr)
            name = f"{part}:{cell_name(key, column)}"
            largest[name] = max(largest.get(name, 0.0), move)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=ROOT / "src",
        help="directory holding the kgbounds package (default: this checkout's src/)",
    )
    parser.add_argument(
        "--keep", type=Path, help="write every command's outputs under this directory"
    )
    parser.add_argument(
        "--against",
        type=Path,
        help="report the cells that moved from the outputs a --keep run wrote here",
    )
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "kgbounds").is_dir():
        parser.error(f"no kgbounds package in {src}")
    kept = kept_runs(args.against) if args.against else None
    largest = {}
    with tempfile.TemporaryDirectory(prefix="kg-parity-") as tmp:
        work = Path(tmp)
        for index, cmd in enumerate(commands(random_models(work))):
            line, outputs = run(cmd, src, work)
            print(line, flush=True)
            if args.keep:
                keep(args.keep, index, cmd, outputs)
            if kept is not None:
                report_moves(cmd, kept.get(" ".join(cmd), {}), outputs, largest)
    if kept is not None:
        print("# largest move per cell:", file=sys.stderr)
        for name, move in sorted(largest.items()):
            print(f"#   {name}: {move:.3e}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
