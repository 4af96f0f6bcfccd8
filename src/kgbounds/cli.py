"""Command line front end: kg spectrum | bounds | verify | sweep | reproduce.

Exit codes: 0 success, 2 parse failure (bad arguments or model file),
3 validation failure (structurally bad matrix data), 4 solver failure.
The residual columns (``pencil_residual`` of spectrum, ``residual_max``
of sweep) hold eigenpair backward errors ||Q(lam) x|| / ||x|| of
Q(lam) = (lam - V)^2 - U^2, gated by RESIDUAL_GATE.
CSV output is UTF-8 with LF line endings and full-precision reals, so a
fixed configuration and seed reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import harness
from .bounds import (
    PerturbationSpec,
    delta_block,
    gap_bound,
    gap_inclusion,
    improved_inclusion,
    norm_bound_interval,
    perturbation_constants,
    verify_bounds,
)
from .core import ModelSpec, assemble_system, optimize_shift, spectral_norm
from .exceptions import KGError, ParseError, ValidationError
from .models import (
    HarmonicParams,
    harmonic_model,
    load_model,
    random_perturbation,
    square_well_model,
)
from .spectral import central_gap, eigen_spectrum, eigenpair_residuals, sign_operator

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4

#: an emitted eigenvalue fails the run when the backward error
#: ||Q(lam) x|| / ||x|| of its eigenpair, Q(lam) = (lam - V)^2 - U^2,
#: exceeds RESIDUAL_GATE * (||U^2|| + ||V||^2 + |lam|^2)
RESIDUAL_GATE = 1e-6


def _fmt(x) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class RunConfig:
    """Resolved command configuration: one model source, one shift policy."""

    command: str
    spec: ModelSpec | None
    tau: float | None
    shift: float
    eta: float | None
    seed: int
    out: str | None
    fmt: str
    sweep_range: tuple | None
    steps: int
    which: str | None
    grid_points: int
    half_width: float


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
    p.add_argument("--grid-points", type=int, default=1000)
    p.add_argument("--half-width", type=float, default=12.0)
    p.add_argument("--out", default=".", help="output directory")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built by the first command of the process and reused."""
    return build_parser()


def _resolve_model(args) -> tuple:
    sources = [args.model is not None, args.tau is not None, args.alpha is not None]
    if sum(sources) != 1:
        raise ParseError(
            "exactly one model source is required: --model, --tau or --alpha"
        )
    if args.model is not None:
        return load_model(args.model), None
    if args.tau is not None:
        return square_well_model(args.tau), args.tau
    params = HarmonicParams(
        alpha=args.alpha,
        beta=args.beta,
        grid_points=args.grid_points,
        half_width=args.half_width,
    )
    return harmonic_model(params), None


def _resolve_shift(args, spec: ModelSpec, tau) -> float:
    chosen = [
        args.shift is not None,
        bool(args.optimize_shift),
        bool(args.paper_shift),
    ]
    if sum(chosen) > 1:
        raise ParseError("choose at most one of --shift, --optimize-shift, --paper-shift")
    if args.shift is not None:
        return args.shift
    if args.optimize_shift:
        return optimize_shift(spec)[0]
    if args.paper_shift:
        if tau is None:
            raise ValidationError("--paper-shift requires a square well model (--tau)")
        return -tau / 2.0
    return 0.0


def _resolve_config(args) -> RunConfig:
    if args.command == "reproduce":
        return RunConfig(
            command="reproduce",
            spec=None,
            tau=None,
            shift=0.0,
            eta=None,
            seed=0,
            out=args.out,
            fmt="report",
            sweep_range=None,
            steps=0,
            which=args.which,
            grid_points=args.grid_points,
            half_width=args.half_width,
        )
    spec, tau = _resolve_model(args)
    shift = _resolve_shift(args, spec, tau)
    sweep_range = None
    if getattr(args, "sweep_range", None) is not None:
        try:
            lo, hi = args.sweep_range.split(":")
            sweep_range = (float(lo), float(hi))
        except ValueError as exc:
            raise ParseError(
                f"--sweep-range must look like a:b, got {args.sweep_range!r}"
            ) from exc
    return RunConfig(
        command=args.command,
        spec=spec,
        tau=tau,
        shift=shift,
        eta=getattr(args, "eta", None),
        seed=getattr(args, "seed", 0),
        out=args.out,
        fmt=getattr(args, "fmt", "csv"),
        sweep_range=sweep_range,
        steps=getattr(args, "steps", 0),
        which=None,
        grid_points=args.grid_points,
        half_width=args.half_width,
    )


def _perturbation(config: RunConfig) -> PerturbationSpec:
    if config.tau is not None:
        # deepened-well convention: the perturbed coupling is tau + eta
        return PerturbationSpec(delta_v=np.diag([-config.eta, 0.0]))
    return random_perturbation(config.spec.order, config.eta, config.seed)


def _write_text(out, text: str):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _write_csv(out, header, rows):
    """Stream header and rows as CSV to the file ``out``, or to stdout.

    Every row goes straight through one csv.writer (UTF-8, LF endings);
    the text is never assembled in memory.
    """
    if out is None or out == "-":
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(out, "w", encoding="utf-8", newline="")
    with target as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _gate_exit(spec: ModelSpec, row_name: str, checks) -> int:
    """EXIT_SOLVER, naming the first failing eigenvalue, when a residual fails its gate.

    ``checks`` yields (row, eigenvalue, residual, t, cause) per emitted
    eigenvalue, the residual being the eigenpair backward error of
    spectral.eigenpair_residuals; the gate is
    RESIDUAL_GATE * (||U^2|| + ||t V||^2 + |lam|^2).  A non-empty
    ``cause`` is appended to the message.  A NaN residual fails.
    """
    u2_norm, v_norm = float(spec.u2_eigenvalues[-1]), spectral_norm(spec.v)
    for row, lam, resid, t, cause in checks:
        limit = RESIDUAL_GATE * (
            u2_norm + (abs(t) * v_norm) ** 2 + abs(complex(lam)) ** 2
        )
        if not resid <= limit:
            print(
                f"solver failure: at {row_name} {row}, eigenvalue {lam:.17g}: "
                f"pencil residual {resid:.6e} exceeds the gate {limit:.6e}"
                + (f" ({cause})" if cause else ""),
                file=sys.stderr,
            )
            return EXIT_SOLVER
    return EXIT_OK


def cmd_spectrum(config: RunConfig) -> int:
    system = assemble_system(config.spec, config.shift)
    report = eigen_spectrum(system)
    lams = report.eigenvalues
    resids = eigenpair_residuals(config.spec, lams, report.eigenvectors)
    rows = (
        [k, _fmt(np.real(lam)), _fmt(np.imag(lam)), report.sign_types[k], _fmt(r)]
        for k, (lam, r) in enumerate(zip(lams, resids))
    )
    _write_csv(
        config.out,
        ["index", "eigenvalue_re", "eigenvalue_im", "sign_type", "pencil_residual"],
        rows,
    )
    checks = ((k, lam, r, 1.0, "") for k, (lam, r) in enumerate(zip(lams, resids)))
    return _gate_exit(config.spec, "index", checks)


def _bounds_payload(config: RunConfig):
    system = assemble_system(config.spec, config.shift)
    pert = _perturbation(config)
    alpha = gap_bound(system)   # ContractionNotLessThanOne before any solve
    report = eigen_spectrum(system)
    bundle = perturbation_constants(system, pert, report)
    gap = central_gap(report, config.shift)
    mu = config.shift

    shifted_gap = (gap[0] - mu, gap[1] - mu)
    km, kp = bundle.kappa_exact
    kappa = max(abs(km), abs(kp))
    plain = improved = None
    if kappa < 1.0 and not np.isinf(shifted_gap).any():
        inc = gap_inclusion(shifted_gap, kappa)
        plain = (inc.predicted[0] + mu, inc.predicted[1] + mu)
    if km > -1.0 and shifted_gap[0] < 0.0 < shifted_gap[1]:
        lo, hi = improved_inclusion(shifted_gap, km, kp)
        improved = (lo + mu, hi + mu)
    s_norm = spectral_norm(delta_block(system, pert))   # = ||dG||
    uniform_raw = norm_bound_interval(gap, s_norm, sign_operator(report).norm_j1)
    uniform = uniform_raw if uniform_raw[0] < uniform_raw[1] else None
    return system, bundle, alpha, gap, plain, improved, uniform, s_norm


def cmd_bounds(config: RunConfig) -> int:
    system, bundle, alpha, gap, plain, improved, uniform, s_norm = _bounds_payload(
        config
    )

    if config.fmt == "csv":

        def pair_str(pair):
            return ("", "") if pair is None else (_fmt(pair[0]), _fmt(pair[1]))

        rows = [
            ["contraction_b", _fmt(bundle.b), ""],
            ["c_norm", _fmt(bundle.c), ""],
            ["gap_alpha", _fmt(alpha), ""],
            ["central_gap", *pair_str(gap)],
        ]
        rows += [[key, _fmt(value), ok] for key, value, ok in bundle.entries()]
        rows += [
            ["interval_plain", *pair_str(plain)],
            ["interval_improved", *pair_str(improved)],
            ["interval_uniform", *pair_str(uniform)],
            ["perturbation_norm", _fmt(s_norm), ""],
        ]
        _write_csv(config.out, ["key", "value", "extra"], rows)
    else:
        lines = [
            f"model: {config.spec.label or '(explicit matrices)'}",
            f"shift mu = {config.shift:.17g}",
            f"contraction b = {bundle.b:.6f}, c = ||dV U^-1|| = {bundle.c:.6f}",
            f"guaranteed gap half-width alpha = {alpha:.6f}",
            f"central gap of H: ({gap[0]:.6f}, {gap[1]:.6f})",
            "",
            "relative perturbation constants (value, applicable):",
        ]
        lines += [
            f"  {key:<18} {value: .6e}  {ok}" for key, value, ok in bundle.entries()
        ]
        lines += [
            "",
            "intervals certified free of perturbed spectrum:",
            f"  plain:    {plain}",
            f"  improved: {improved}",
            f"  uniform:  {uniform}   (perturbation norm {s_norm:.6e})",
        ]
        _write_text(config.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    pert = _perturbation(config)
    report = verify_bounds(config.spec, pert, config.shift)
    resids = eigenpair_residuals(
        config.spec, report.eigenvalues, report.eigenvectors
    )
    resids_p = eigenpair_residuals(
        config.spec.perturbed(pert.delta_v),
        report.eigenvalues_perturbed,
        report.eigenvectors_perturbed,
    )
    # the emitted values are real parts; on a non-real spectrum their
    # residuals fail the gate, and the message names that cause
    cause = "" if report.real_spectrum else "the spectrum is not real"
    cause_p = (
        "" if report.real_spectrum_perturbed else "the perturbed spectrum is not real"
    )
    checks = []
    rows = []
    for k, (lam, lam_p, dev) in enumerate(
        zip(report.eigenvalues, report.eigenvalues_perturbed, report.deviations)
    ):
        if resids_p[k] > resids[k]:
            checks.append((k, lam, resids_p[k], 1.0, cause_p))
        else:
            checks.append((k, lam, resids[k], 1.0, cause))
        rows.append(
            ["eigenpair", k, _fmt(lam), _fmt(lam_p), _fmt(dev), "", "", ""]
        )
    rows.append(
        [
            "summary",
            "max_relative_deviation",
            "",
            "",
            _fmt(report.max_deviation),
            "",
            "",
            "",
        ]
    )
    for check in report.checks:
        value = (
            f"{_fmt(check.value[0])};{_fmt(check.value[1])}"
            if isinstance(check.value, tuple)
            else _fmt(check.value)
        )
        rows.append(
            ["bound", check.name, "", "", "", value, check.applicable, check.passed]
        )
    _write_csv(
        config.out,
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
        rows,
    )
    return _gate_exit(config.spec, "index", checks)


def cmd_sweep(config: RunConfig) -> int:
    lo, hi = config.sweep_range
    result = harness.sweep_potential(
        config.spec, lo, hi, config.steps, shift=config.shift
    )
    two_n = result.eigenvalues.shape[1]
    header = ["row_type", "parameter", "is_real", "defective", "residual_max"]
    for k in range(two_n):
        header += [f"eig{k}_re", f"eig{k}_im"]

    def rows():
        # yielded straight into the CSV writer, never held as one list
        for i, t in enumerate(result.parameters):
            row = [
                "point",
                _fmt(t),
                result.is_real[i],
                result.defect_flags[i],
                _fmt(result.residual_max[i]),
            ]
            for lam in result.eigenvalues[i]:
                row += [_fmt(lam.real), _fmt(lam.imag)]
            yield row
        critical = "" if result.critical_value is None else _fmt(result.critical_value)
        yield ["critical", critical, "", "", ""] + [""] * (2 * two_n)

    _write_csv(config.out, header, rows())
    # every eigenvalue against its own gate, for the potential t * V
    checks = (
        (t, lam, r, t, "")
        for t, eigs, resids in zip(
            result.parameters, result.eigenvalues, result.residuals
        )
        for lam, r in zip(eigs, resids)
    )
    return _gate_exit(config.spec, "sweep parameter", checks)


def cmd_reproduce(config: RunConfig) -> int:
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if config.which == "example2":
        result = harness.example2_tables()
        rows_true, rows_bound = [], []
        for i, tau in enumerate(result.taus):
            for j, eta in enumerate(result.etas):
                rows_true.append(
                    [_fmt(tau), _fmt(eta), _fmt(result.true_distances[i, j])]
                )
                rows_bound.append([_fmt(tau), _fmt(eta), _fmt(result.bounds[i, j])])
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

    result = harness.example1_table(
        grid_points=config.grid_points, half_width=config.half_width
    )
    rows = [
        [
            _fmt(r.alpha),
            _fmt(r.beta),
            r.mode,
            _fmt(r.mu_plus),
            _fmt(r.exact_plus),
            _fmt(r.error_plus),
            _fmt(r.mu_minus),
            _fmt(r.exact_minus),
            _fmt(r.error_minus),
        ]
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
        config = _resolve_config(args)
        return _DISPATCH[config.command](config)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (KGError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
