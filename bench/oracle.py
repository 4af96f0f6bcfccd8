"""Output checks: every command's exit code and files against independent math.

Each check recomputes what the command reports from the input matrices
with plain numpy (companion linearization, closed forms, reference
tables) and compares with a tolerance, never with bytes from another
commit, so refactors that move the last bits still pass.  A check
returns ``(problem, emitted)``: a one-line description of the first
disagreement or None, and the number of eigenvalue rows the command
emitted.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from workloads import (
    contraction,
    expected_exit,
    min_contraction,
    quadratic_eigs,
    u_inverse,
)

#: eigenvalues agree when within RTOL * (1 + |lam|); loose enough for the
#: sqrt(eps) splitting of a defective pair, far tighter than a 1e-3 error
RTOL = 1e-6

#: worked example 2 (rows tau = 0, 1, 1.7; columns eta = 0.001, 0.1, 0.3)
EXAMPLE2_TRUE = np.array(
    [
        [5.0037e-04, 5.3732e-02, 1.8241e-01],
        [1.3269e-03, 1.3409e-01, 4.1064e-01],
        [3.3731e-03, 3.4990e-01, 1.4355e00],
    ]
)
EXAMPLE2_BOUNDS = np.array(
    [
        [1e-03, 1e-01, 3e-01],
        [2e-03, 2e-01, 6e-01],
        [6.6667e-03, 6.6667e-01, 2e00],
    ]
)

#: example-1 discretization error bound |mu_disc - mu_exact| <= C * h^2 for
#: modes 0..2; the second-order stencil error of the lowest oscillator
#: levels is about (h^2 / 12) <p^4> / (2 mu) < 0.2 h^2
EXAMPLE1_H2_FACTOR = 0.5


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a, b, rtol=RTOL) -> bool:
    return abs(a - b) <= rtol * (1.0 + abs(b))


def _match(got, want, rtol=RTOL):
    """Greedy nearest pairing of two eigenvalue lists; None when they agree."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return f"{got.size} eigenvalues, expected {want.size}"
    dist = np.abs(got[:, None] - want[None, :])
    for i in range(got.size):
        j = int(np.argmin(dist[i]))
        if dist[i, j] > rtol * (1.0 + abs(want[j])):
            return f"eigenvalue {got[i]:.12g} has no partner (nearest {want[j]:.12g})"
        dist[:, j] = np.inf
    return None


def check_spectrum(cmd, out):
    rows = _rows(out)
    lam = [complex(float(r["eigenvalue_re"]), float(r["eigenvalue_im"])) for r in rows]
    return _match(lam, quadratic_eigs(cmd.u2, cmd.v)), len(rows)


def check_verify(cmd, out):
    rows = _rows(out)
    pairs = [r for r in rows if r["row_type"] == "eigenpair"]
    bounds = [r for r in rows if r["row_type"] == "bound"]
    ref = np.sort(quadratic_eigs(cmd.u2, cmd.v).real)
    ref_p = np.sort(quadratic_eigs(cmd.u2, cmd.v + cmd.dv).real)
    problem = _match([float(r["eigenvalue"]) for r in pairs], ref) or _match(
        [float(r["eigenvalue_perturbed"]) for r in pairs], ref_p
    )
    if problem:
        return problem, len(pairs)
    if len(bounds) < 3:
        return f"only {len(bounds)} bound rows", len(pairs)
    for r in bounds:
        if r["applicable"] == "True" and r["passed"] != "True":
            return f"applicable bound {r['key']} has passed={r['passed']}", len(pairs)
    return None, len(pairs)


def check_bounds(cmd, out):
    table = {r["key"]: (r["value"], r["extra"]) for r in _rows(out)}
    b = float(table["contraction_b"][0])
    c = float(table["c_norm"][0])
    if cmd.shift == "optimize":
        b_ref = min_contraction(cmd.u2, cmd.v)
    else:
        mu = -cmd.tau / 2.0 if cmd.shift == "paper" else 0.0
        b_ref = contraction(cmd.u2, cmd.v, mu)
    if not _close(b, b_ref, 1e-8):
        return f"contraction_b {b!r}, expected {b_ref!r}", 0
    c_ref = float(np.linalg.norm(cmd.dv @ u_inverse(cmd.u2), 2))
    if not _close(c, c_ref, 1e-8):
        return f"c_norm {c!r}, expected {c_ref!r}", 0
    if not _close(float(table["kappa_general"][0]), c / (1.0 - b), 1e-12):
        return "kappa_general differs from c / (1 - b)", 0

    n = len(cmd.v)
    lam = np.sort(quadratic_eigs(cmd.u2, cmd.v).real)
    gap = tuple(float(x) for x in table["central_gap"])
    if not (_close(gap[0], lam[n - 1]) and _close(gap[1], lam[n])):
        return f"central_gap {gap}, expected ({lam[n - 1]!r}, {lam[n]!r})", 0

    # gap intervals are certified free of the perturbed spectrum
    lam_p = quadratic_eigs(cmd.u2, cmd.v + cmd.dv)
    real_p = lam_p.real[np.abs(lam_p.imag) <= RTOL * (1.0 + np.abs(lam_p))]
    for key in ("interval_plain", "interval_improved", "interval_uniform"):
        lo, hi = table[key]
        if not lo:
            continue
        lo, hi = float(lo), float(hi)
        slack = 1e-9 * (1.0 + np.abs(real_p))
        inside = (real_p > lo + slack) & (real_p < hi - slack)
        if inside.any():
            return f"{key} ({lo!r}, {hi!r}) holds perturbed eigenvalue {real_p[inside][0]!r}", 0
    return None, 0


def check_sweep(cmd, out):
    rows = _rows(out)
    points = [r for r in rows if r["row_type"] == "point"]
    lo, hi, steps = cmd.sweep
    if len(points) != steps:
        return f"{len(points)} sweep rows, expected {steps}", len(points)
    two_n = 2 * len(cmd.v)
    emitted = steps * two_n
    for t_ref, r in zip(np.linspace(lo, hi, steps), points):
        t = float(r["parameter"])
        if not _close(t, t_ref, 1e-12):
            return f"sweep parameter {t!r}, expected {t_ref!r}", emitted
        lam = [
            complex(float(r[f"eig{k}_re"]), float(r[f"eig{k}_im"])) for k in range(two_n)
        ]
        problem = _match(lam, quadratic_eigs(cmd.u2, t * cmd.v))
        if problem:
            return f"at t = {t!r}: {problem}", emitted
    critical = [r["parameter"] for r in rows if r["row_type"] == "critical"][0]
    if cmd.tau is None:
        expected = None  # the oscillator keeps b <= alpha < 1 on the whole range
    else:
        expected = 2.0 / cmd.tau   # the well's coupling t * tau reaches 2
    if expected is None or not lo <= expected <= hi:
        if critical:
            return f"critical value {critical}, expected none", emitted
    elif not critical or abs(float(critical) - expected) > 1e-5:
        return f"critical value {critical!r}, expected {expected!r}", emitted
    return None, emitted


def _exact_oscillator(alpha, beta, mode):
    one = 1.0 - alpha * alpha
    return float(np.sqrt(one * beta + one**1.5 * (1.0 + 2.0 * mode)))


def check_example1(cmd, out_dir):
    rows = _rows(Path(out_dir) / "example1_table.csv")
    h = 24.0 / (cmd.grid_points + 1)
    tol = EXAMPLE1_H2_FACTOR * h * h
    seen = set()
    for r in rows:
        alpha, beta, mode = float(r["alpha"]), float(r["beta"]), int(r["mode"])
        seen.add((alpha, beta, mode))
        exact = _exact_oscillator(alpha, beta, mode)
        for side, sign in (("plus", 1.0), ("minus", -1.0)):
            disc = float(r[f"mu_{side}_discrete"])
            if not _close(float(r[f"mu_{side}_exact"]), sign * exact, 1e-12):
                return f"mu_{side}_exact wrong at {(alpha, beta, mode)}", 0
            if abs(disc - sign * exact) > tol:
                return f"mu_{side} error {abs(disc - sign * exact):.3e} > {tol:.3e}", 0
            if abs(float(r[f"error_{side}"]) - abs(disc - sign * exact)) > 1e-12:
                return f"error_{side} inconsistent at {(alpha, beta, mode)}", 0
    expected = {(a, b, m) for a in (0.0, 0.3, 0.6) for b in (0.0, 1.0) for m in (0, 1, 2)}
    if seen != expected:
        return f"example1 rows {sorted(seen)}", 0
    return None, 0


def _table(path):
    return np.array([float(r[list(r)[-1]]) for r in _rows(path)]).reshape(3, 3)


def check_example2(cmd, out_dir):
    true = _table(Path(out_dir) / "example2_true_distances.csv")
    bounds = _table(Path(out_dir) / "example2_bounds.csv")
    worst_true = float(np.max(np.abs(true - EXAMPLE2_TRUE) / EXAMPLE2_TRUE))
    worst_bound = float(np.max(np.abs(bounds - EXAMPLE2_BOUNDS) / EXAMPLE2_BOUNDS))
    if worst_true > 1e-3 or worst_bound > 1e-4:
        return f"example2 cells off the reference by {max(worst_true, worst_bound):.2e}", 0
    return None, 0


_CHECKS = {
    "spectrum": check_spectrum,
    "verify": check_verify,
    "bounds": check_bounds,
    "sweep": check_sweep,
}


def check(cmd, code, out):
    """(problem or None, eigenvalue rows emitted) for one finished command."""
    expect = expected_exit(cmd)
    if code != expect:
        return f"exit code {code}, expected {expect}", 0
    if code != 0:
        return None, 0
    try:
        if cmd.kind == "reproduce":
            fn = check_example1 if cmd.argv[1] == "example1" else check_example2
            return fn(cmd, out)
        return _CHECKS[cmd.kind](cmd, out)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc!r}", 0
