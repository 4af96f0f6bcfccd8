"""Command line front end: kg spectrum | bounds | verify | sweep | reproduce.

Exit codes: 0 success, 2 parse failure (bad arguments, an unreadable
model file or an unwritable output), 3 validation failure (structurally
bad matrix data), 4 solver failure (a valid model whose shifted pencil
is not certified definite among them, and running out of memory).
Each command resolves its arguments into a model, a shift and, for
bounds and verify, a perturbation, calls the library once and renders
what it returns: ``kg bounds`` writes the rows of bounds.BoundsReport,
as CSV or, with ``--format report``, as one aligned text line per row
under a model/shift header.
The residual columns (``pencil_residual`` of spectrum, ``residual_max``
of sweep) hold, for each eigenvalue lam, the residual its spectrum
carries, an upper bound on sigma_min(Q(lam)), Q(lam) = (lam - V)^2 - U^2
(spectral.SpectrumStack says which), gated by RESIDUAL_GATE.
``kg verify`` gates the eigenvalues of both of its spectra the same way.
CSV output is UTF-8 with LF line endings and full-precision reals, so a
fixed configuration and seed reproduce byte-identical files; each row
is one %-format of plain values, the bytes csv.writer writes for cells
that need no quoting, which none does.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import harness
from .bounds import PerturbationSpec, bounds_report, verify_bounds
from .core import ModelSpec, _symmetric_norm, assemble_system, optimize_shift
from .exceptions import KGError, ParseError, ValidationError
from .models import (
    HarmonicParams,
    harmonic_model,
    load_model,
    random_perturbation,
    square_well_model,
    square_well_perturbation,
)
from .spectral import _overflow_exponent, eigen_spectrum

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4

#: an emitted eigenvalue fails the run when its residual, at least
#: sigma_min(Q(lam)) for Q(lam) = (lam - V)^2 - U^2 (see
#: spectral.SpectrumStack), exceeds
#: RESIDUAL_GATE * (||U^2|| + ||V||^2 + |lam|^2)
RESIDUAL_GATE = 1e-6


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--model", help="model file (JSON)")
    p.add_argument("--tau", type=float, help="square well coupling")
    p.add_argument("--alpha", type=float, help="oscillator field strength")
    p.add_argument("--beta", type=float, default=0.0, help="oscillator mass offset")
    p.add_argument("--grid-points", type=int, default=1000)
    p.add_argument("--half-width", type=float, default=12.0)
    p.add_argument("--shift", type=float, default=None, help="explicit shift mu")
    p.add_argument(
        "--optimize-shift",
        action="store_true",
        help="pick the shift minimizing the contraction",
    )
    p.add_argument(
        "--paper-shift",
        action="store_true",
        help="use mu = -tau/2 (square well models only)",
    )
    p.add_argument("--out", help="output path; stdout when omitted")


def _add_perturbation(p: argparse.ArgumentParser):
    p.add_argument(
        "--eta",
        type=float,
        required=True,
        help="perturbation strength: diag(-eta, 0) for the square well, a "
        "seeded random symmetric perturbation of that scale otherwise",
    )
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kg",
        description="Spectra and relative eigenvalue perturbation bounds "
        "for block Hamiltonians built from (U^2, V).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="classified eigenvalues of one model")
    _add_common(p)

    p = sub.add_parser("bounds", help="perturbation constants and gap intervals")
    _add_common(p)
    _add_perturbation(p)
    p.add_argument("--format", dest="fmt", choices=["csv", "report"], default="csv")

    p = sub.add_parser("verify", help="true deviations against every bound")
    _add_common(p)
    _add_perturbation(p)

    p = sub.add_parser("sweep", help="eigenvalue trajectories under t * V")
    _add_common(p)
    p.add_argument("--sweep-range", required=True, help="range as a:b")
    p.add_argument("--steps", type=int, default=101)

    p = sub.add_parser("reproduce", help="regenerate the worked-example reports")
    p.add_argument("which", choices=["example1", "example2"])
    p.add_argument("--grid-points", type=int)
    p.add_argument("--half-width", type=float)
    p.add_argument("--out", default=".", help="output directory")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built by the first command of the process and reused."""
    return build_parser()


def _resolve(args) -> tuple:
    """(spec, tau, shift): the one model source and the shift policy.

    ``tau`` is the square-well coupling, None for other models.
    """
    sources = [args.model is not None, args.tau is not None, args.alpha is not None]
    if sum(sources) != 1:
        raise ParseError(
            "exactly one model source is required: --model, --tau or --alpha"
        )
    for flag in ("shift", "eta"):
        value = getattr(args, flag, None)
        if value is not None and not np.isfinite(value):
            raise ParseError(f"--{flag} must be a finite number, got {value}")
    if getattr(args, "seed", 0) < 0:
        raise ParseError(f"--seed must be a non-negative integer, got {args.seed}")
    tau = args.tau
    if args.model is not None:
        spec = load_model(args.model)
    elif tau is not None:
        spec = square_well_model(tau)
    else:
        params = HarmonicParams(
            alpha=args.alpha,
            beta=args.beta,
            grid_points=args.grid_points,
            half_width=args.half_width,
        )
        spec = harmonic_model(params)

    chosen = [
        args.shift is not None,
        bool(args.optimize_shift),
        bool(args.paper_shift),
    ]
    if sum(chosen) > 1:
        raise ParseError("choose at most one of --shift, --optimize-shift, --paper-shift")
    if args.shift is not None:
        shift = args.shift
    elif args.optimize_shift:
        shift = optimize_shift(spec)
    elif args.paper_shift:
        if tau is None:
            raise ValidationError("--paper-shift requires a square well model (--tau)")
        shift = -tau / 2.0
    else:
        shift = 0.0
    return spec, tau, shift


def _perturbation(args, spec: ModelSpec, tau) -> PerturbationSpec:
    if tau is not None:
        # deepened-well convention: the perturbed coupling is tau + eta
        return square_well_perturbation(-args.eta)
    return random_perturbation(spec.order, args.eta, args.seed)


def _check_writable(out):
    """Raise the OSError that writing the file ``out`` would, creating nothing.

    An existing target must be a writable file that is not a directory;
    a new one needs a writable directory to hold it.  Run before any
    model is built, so a bad ``--out`` fails at once; the open itself
    stays the final check.
    """
    if out is None or out == "-":
        return
    try:
        try:
            if stat.S_ISDIR(os.stat(out).st_mode):   # ENOTDIR: a file on the way
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
            target = out
        except FileNotFoundError:
            target = os.path.dirname(out) or "."
            if not stat.S_ISDIR(os.stat(target).st_mode):
                raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR)) from None
        if not os.access(target, os.W_OK):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from None


def _write_text(out, text: str):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _write_csv(out, header, lines):
    """Stream the header and the rows ``lines`` as CSV to ``out``, or to stdout.

    ``lines`` yields each row as its text, LF-terminated (UTF-8); the
    table is never assembled in memory.
    """
    if out is None or out == "-":
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(out, "w", encoding="utf-8", newline="")
    with target as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _gate_exit(
    spec: ModelSpec, row_name: str, rows, lams, resids, couplings=1.0, cause=None
) -> int:
    """EXIT_SOLVER, naming the first failing eigenvalue, when a residual fails its gate.

    ``lams`` holds the emitted eigenvalues and ``resids`` their
    residuals (see spectral.SpectrumStack); ``rows``
    (the row label of each) and ``couplings`` t broadcast against them.
    The gate of each is RESIDUAL_GATE * (||U^2|| + ||t V||^2 + |lam|^2),
    and the first failing entry in row-major order is named, with
    ``cause(index)`` of its index appended when that is non-empty; only
    the failing entry's cause is formed.  A NaN residual fails.  ||V|| is
    core._symmetric_norm's, with no Gram matrix.  When the largest of
    ||U||, ||t V|| and |lam| is 2^k beyond 2^500, where a square could
    overflow, residuals and gates are compared divided by 2^(2k), as
    eigenpair_residuals forms them: exactly the same comparisons.
    """
    u_max, lam_abs = spec.u_max, np.abs(lams)
    tv_norm = np.abs(couplings) * _symmetric_norm(spec.v_stored)
    k = _overflow_exponent(max(u_max, tv_norm.max(), lam_abs.max()))
    scaled = resids
    if k:
        u_max, tv_norm, lam_abs = (np.ldexp(a, -k) for a in (u_max, tv_norm, lam_abs))
        scaled = np.ldexp(resids, -2 * k)
    limits = RESIDUAL_GATE * (u_max**2 + tv_norm**2 + lam_abs**2)
    failing = ~(scaled <= limits)
    if not failing.any():
        return EXIT_OK
    first = np.unravel_index(np.argmax(failing), failing.shape)
    row, lam, resid, limit = (
        np.broadcast_to(a, failing.shape)[first] for a in (rows, lams, resids, limits)
    )
    with np.errstate(over="ignore"):
        limit = np.ldexp(limit, 2 * k)
    note = cause(first) if cause else ""
    print(
        f"solver failure: at {row_name} {row}, eigenvalue {lam:.17g}: "
        f"pencil residual {resid:.6e} exceeds the gate {limit:.6e}"
        + (f" ({note})" if note else ""),
        file=sys.stderr,
    )
    return EXIT_SOLVER


def cmd_spectrum(args) -> int:
    spec, _, shift = _resolve(args)
    report = eigen_spectrum(assemble_system(spec, shift))
    lams, resids = report.eigenvalues, report.residuals
    rows = zip(
        range(lams.size),
        np.real(lams).tolist(),
        np.imag(lams).tolist(),
        report.sign_types,
        resids.tolist(),
    )
    _write_csv(
        args.out,
        ["index", "eigenvalue_re", "eigenvalue_im", "sign_type", "pencil_residual"],
        ("%d,%.17g,%.17g,%s,%.17g\n" % row for row in rows),
    )
    return _gate_exit(spec, "index", np.arange(lams.size), lams, resids)


def _csv_cell(x) -> str:
    """A bounds row cell: empty when absent, True/False for a flag."""
    if x is None:
        return ""
    return str(x) if isinstance(x, (bool, np.bool_)) else _fmt(x)


def _report_cell(x) -> str:
    """A bounds row cell of the text report: 7 significant digits, '-' when absent."""
    if x is None:
        return "-"
    return str(x) if isinstance(x, (bool, np.bool_)) else f"{x: .6e}"


def cmd_bounds(args) -> int:
    spec, tau, shift = _resolve(args)
    rows = bounds_report(spec, _perturbation(args, spec, tau), shift).rows()
    if args.fmt == "csv":
        _write_csv(
            args.out,
            ["key", "value", "extra"],
            (
                f"{key},{_csv_cell(value)},{_csv_cell(extra)}\n"
                for key, value, extra in rows
            ),
        )
    else:
        lines = [
            f"model: {spec.label or '(explicit matrices)'}",
            f"shift mu = {shift:.17g}",
        ]
        lines += [
            f"  {key:<18} {_report_cell(value):>13}  {_report_cell(extra)}"
            for key, value, extra in rows
        ]
        _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec, tau, shift = _resolve(args)
    report = verify_bounds(spec, _perturbation(args, spec, tau), shift)
    resids, resids_p = report.residuals, report.residuals_perturbed

    def rows():
        pairs = zip(
            range(report.eigenvalues.size),
            report.eigenvalues.tolist(),
            report.eigenvalues_perturbed.tolist(),
            report.deviations.tolist(),
        )
        for row in pairs:
            yield "eigenpair,%d,%.17g,%.17g,%.17g,,,\n" % row
        yield "summary,max_relative_deviation,,,%.17g,,,\n" % report.max_deviation
        for check in report.checks:
            value = (
                "%.17g;%.17g" % check.value
                if isinstance(check.value, tuple)
                else _fmt(check.value)
            )
            yield "bound,%s,,,,%s,%s,%s\n" % (
                check.name, value, check.applicable, check.passed
            )

    _write_csv(
        args.out,
        [
            "row_type",
            "key",
            "eigenvalue",
            "eigenvalue_perturbed",
            "deviation",
            "bound",
            "applicable",
            "passed",
        ],
        rows(),
    )
    # each eigenvalue is gated on the larger of its two residuals, and
    # on a nan of either: the note names the perturbed side when it failed
    perturbed = np.isnan(resids_p) | (resids_p > resids)

    def cause(index):
        # the emitted values are real parts: on a non-real perturbed
        # spectrum their residuals fail the gate, and the message says so
        if not perturbed[index]:
            return ""
        note = f"perturbed eigenvalue {report.eigenvalues_perturbed[index]:.17g}"
        real = report.real_spectrum_perturbed
        return note if real else note + "; the perturbed spectrum is not real"

    return _gate_exit(
        spec,
        "index",
        np.arange(resids.size),
        report.eigenvalues,
        np.maximum(resids, resids_p),
        cause=cause,
    )


def cmd_sweep(args) -> int:
    spec, _, shift = _resolve(args)
    try:
        lo, hi = args.sweep_range.split(":")
        lo, hi = float(lo), float(hi)
    except ValueError as exc:
        raise ParseError(
            f"--sweep-range must look like a:b, got {args.sweep_range!r}"
        ) from exc
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ParseError(
            f"--sweep-range ends must be finite numbers, got {args.sweep_range!r}"
        )
    result = harness.sweep_potential(spec, lo, hi, args.steps, shift=shift)
    two_n = result.eigenvalues.shape[1]
    header = ["row_type", "parameter", "is_real", "defective", "residual_max"]
    for k in range(two_n):
        header += [f"eig{k}_re", f"eig{k}_im"]

    def rows():
        # yielded straight into the file, never held as one list; a
        # complex row viewed as floats is (re0, im0, re1, im1, ...)
        point = "point,%.17g,%s,%s,%.17g" + ",%.17g,%.17g" * two_n + "\n"
        heads = zip(
            result.parameters, result.is_real, result.defect_flags, result.residual_max
        )
        for head, lams in zip(heads, result.eigenvalues):
            yield point % (*head, *lams.view(float).tolist())
        critical = "" if result.critical_value is None else _fmt(result.critical_value)
        yield f"critical,{critical},,," + "," * (2 * two_n) + "\n"

    _write_csv(args.out, header, rows())
    # every eigenvalue against its own gate, for the potential t * V
    t = result.parameters[:, None]
    return _gate_exit(
        spec, "sweep parameter", t, result.eigenvalues, result.residuals, t
    )


def cmd_reproduce(args) -> int:
    grid = {"grid_points": args.grid_points, "half_width": args.half_width}
    grid = {key: value for key, value in grid.items() if value is not None}
    if args.which == "example2" and grid:
        flag = "--" + next(iter(grid)).replace("_", "-")
        raise ParseError(f"{flag} sets example1's grid; example2 takes none")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.which == "example2":
        result = harness.example2_tables()
        rows_true, rows_bound = [], []
        for i, tau in enumerate(result.taus):
            for j, eta in enumerate(result.etas):
                rows_true.append(
                    "%.17g,%.17g,%.17g\n" % (tau, eta, result.true_distances[i, j])
                )
                rows_bound.append(
                    "%.17g,%.17g,%.17g\n" % (tau, eta, result.bounds[i, j])
                )
        _write_csv(
            out_dir / "example2_true_distances.csv",
            ["tau", "eta", "max_relative_distance"],
            rows_true,
        )
        _write_csv(out_dir / "example2_bounds.csv", ["tau", "eta", "bound"], rows_bound)
        text = harness.render_example2_report(result)
        (out_dir / "example2_report.txt").write_text(text, encoding="utf-8")
        sys.stdout.write(text)
        return EXIT_OK

    result = harness.example1_table(**grid)
    rows = [
        "%.17g,%.17g,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
        % (
            r.alpha,
            r.beta,
            r.mode,
            r.mu_plus,
            r.exact_plus,
            r.error_plus,
            r.mu_minus,
            r.exact_minus,
            r.error_minus,
        )
        for r in result.rows
    ]
    _write_csv(
        out_dir / "example1_table.csv",
        [
            "alpha",
            "beta",
            "mode",
            "mu_plus_discrete",
            "mu_plus_exact",
            "error_plus",
            "mu_minus_discrete",
            "mu_minus_exact",
            "error_minus",
        ],
        rows,
    )
    text = harness.render_example1_report(result)
    (out_dir / "example1_report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_OK


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command != "reproduce":   # its --out is a directory
            _check_writable(args.out)
        return _DISPATCH[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (KGError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        print(f"solver error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:   # an unreadable --model is a ParseError already
        path, reason = exc.filename or args.out or "stdout", exc.strerror or exc
        print(f"parse error: cannot write {path}: {reason}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
