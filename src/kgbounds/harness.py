"""Reproduction harness: worked-example tables and coupling sweeps.

The two reproductions are desk-scale experiments:

* example 2: the 2 x 2 well over couplings tau in {0, 1, 1.7} and
  perturbation strengths eta in {0.001, 0.1, 0.3} at the shift
  mu = -tau/2.  The tabulated deviations correspond to deepening the
  well (coupling tau -> tau + eta).  Each cell is one verify_bounds
  run, and its bound is the constant that run's BoundsReport holds,
  kappa_norm_product = ||dV|| ||U^(-1)|| / (1 - b), which is the
  paper's eta / (1 - tau/2) on the well.
* example 1: the oscillator ladder, comparing discretized eigenvalues
  against the closed form and the first-order sensitivity against the
  certified bound.  The field strength alpha scales the potential
  alone, so the table builds one model per mass offset beta, with one
  U^2 validated and factored once, and solves each alpha as a coupling
  of it: one row of spectral.eigen_spectra that asks only for the
  tabulated modes, the few eigenvalues nearest the shift on each side,
  and the printed contraction b of that potential, core.contraction of
  the model with_potential(alpha V), which routes no row.

The sweep utility tracks eigenvalue trajectories as the potential is
scaled and bisects for the critical coupling where the two inner
eigenvalues collide and leave the real axis.  It solves its steps in
blocks of couplings, one stacked spectral.eigen_spectra call per block,
whose whole spectra carry the rows' residuals, sized by BLOCK_BUDGET: on the dense route a block's temporaries stay near those
of a single step, and on the tridiagonal route, whose rows are solved
one at a time and certified by counts in O(n) memory per eigenvalue
(see spectral.SpectrumStack), a block holds the rows whose eigenvalues
fill BLOCK_BUDGET.  The bisection reads each step's reality alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .bounds import verify_bounds
from .core import ModelSpec, assemble_system, contraction, spectral_norm
from .exceptions import ValidationError
from .models import (
    exact_harmonic_eigs,
    harmonic_model,
    harmonic_sensitivity,
    HarmonicParams,
    square_well_model,
    square_well_perturbation,
)
from .spectral import _tridiagonal_rows, eigen_spectra

__all__ = [
    "EXAMPLE2_TAUS",
    "EXAMPLE2_ETAS",
    "Example2Result",
    "example2_tables",
    "render_example2_report",
    "Example1Row",
    "Example1Result",
    "example1_table",
    "render_example1_report",
    "SweepResult",
    "sweep_potential",
]

EXAMPLE2_TAUS = (0.0, 1.0, 1.7)
EXAMPLE2_ETAS = (0.001, 0.1, 0.3)

#: the oscillator table: field strengths, mass offsets and modes
EXAMPLE1_ALPHAS = (0.0, 0.3, 0.6)
EXAMPLE1_BETAS = (0.0, 1.0)
EXAMPLE1_MODES = (0, 1, 2)
#: the sensitivity study perturbs alpha = SENSITIVITY_ALPHA by SENSITIVITY_EPS
SENSITIVITY_ALPHA = 0.5
SENSITIVITY_EPS = 1e-4

#: entries per block of a sweep: a block solves max(1, BLOCK_BUDGET // (2n)^2)
#: couplings in one stacked call on the dense route, which keeps its
#: temporaries near those of one step (one row from n = 16 up), and
#: max(1, BLOCK_BUDGET // 2n) on the tridiagonal route, which solves its
#: rows one by one and whose stacked residuals need no n x n product
BLOCK_BUDGET = 1024


# ---------------------------------------------------------------------------
# example 2: the 2 x 2 well


@dataclass(frozen=True)
class Example2Result:
    """True-deviation and bound tables plus the contraction diagnostics."""

    taus: tuple
    etas: tuple
    true_distances: np.ndarray  # shape (len(taus), len(etas))
    bounds: np.ndarray
    norm_v_u_inv: float         # ||V U^(-1)|| / tau
    norm_v_u2_inv: float        # ||V (U^2)^(-1)|| / tau


def example2_tables() -> Example2Result:
    """Reproduce the well tables: max shifted relative deviations and bounds.

    For each (tau, eta) of EXAMPLE2_TAUS x EXAMPLE2_ETAS the well is
    deepened, V' = V - diag(eta, 0), the shift is mu = -tau/2, and the
    tabulated entry is max_k |lam'_k - lam_k| / |lam_k + tau/2| over
    ascending pairing.  The bound entry is the run's kappa_norm_product,
    ||dV|| ||U^(-1)|| / (1 - b) = eta / (1 - tau/2): ||U^(-1)|| = 1 and
    b = tau/2 at this shift.
    """
    taus, etas = EXAMPLE2_TAUS, EXAMPLE2_ETAS
    true_table = np.zeros((len(taus), len(etas)))
    bound_table = np.zeros_like(true_table)
    for i, tau in enumerate(taus):
        spec = square_well_model(tau)
        for j, eta in enumerate(etas):
            report = verify_bounds(
                spec, square_well_perturbation(-eta), shift=-tau / 2.0
            )
            true_table[i, j] = report.max_deviation
            bound_table[i, j] = report.bounds.kappas["kappa_norm_product"][0]

    base = square_well_model(1.0)
    norm_v_u_inv = assemble_system(base).contraction
    # ||V U^(-2)|| = ||U^(-2) V||, one Cholesky solve with L L^T = U^2
    norm_v_u2_inv = spectral_norm(lapack.dpotrs(base.cholesky, base.v, lower=1)[0])
    return Example2Result(
        taus=taus,
        etas=etas,
        true_distances=true_table,
        bounds=bound_table,
        norm_v_u_inv=norm_v_u_inv,
        norm_v_u2_inv=norm_v_u2_inv,
    )


def _table_lines(title, taus, etas, table):
    lines = [title, "        " + "  ".join(f"eta={e:<10g}" for e in etas)]
    for i, tau in enumerate(taus):
        cells = "  ".join(f"{table[i, j]:.4e}    " for j in range(len(etas)))
        lines.append(f"t = {tau:<4g}{cells.rstrip()}")
    return lines


def render_example2_report(result: Example2Result) -> str:
    """Human-readable report with both tables and the diagnostics notes."""
    lines = ["== square well: true maximal relative distances =="]
    lines += _table_lines(
        "max_k |lam'_k - lam_k| / |lam_k + tau/2|  (V' = V - diag(eta, 0))",
        result.taus,
        result.etas,
        result.true_distances,
    )
    lines.append("")
    lines.append("== respective bounds eta / (1 - tau/2) ==")
    lines += _table_lines(
        "entries with value >= 1 are tabulated but not applicable as bounds",
        result.taus,
        result.etas,
        result.bounds,
    )
    lines.append("")
    lines.append("== contraction diagnostics ==")
    lines.append(
        f"||V U^-1|| / tau     = {result.norm_v_u_inv:.5f}  (analytic sqrt(2/3) = {np.sqrt(2/3):.5f})"
    )
    lines.append(
        f"||V (U^2)^-1|| / tau = {result.norm_v_u2_inv:.5f}  (analytic sqrt(5)/3 = {np.sqrt(5)/3:.5f})"
    )
    lines.append(
        "note: the rounded reference value 0.745 matches ||V (U^2)^-1|| / tau, "
        "not ||V U^-1|| / tau = 0.81650; both are reported above."
    )
    lines.append(
        "note: the reference text lists couplings {0, 1, 1.8} while its tables "
        "use t = 1.7; these tables use 1.7."
    )
    lines.append(
        "note: the reference prints dV = diag(eta, 0), but its tabulated "
        "deviations correspond to the deepened well V - diag(eta, 0) "
        "(coupling tau + eta); that sign is used here."
    )
    lines.append(
        "note: at shift -tau/2 the contraction equals tau/2 exactly; the row "
        "t = 1.7, eta = 0.3 perturbs onto the defective coupling tau + eta = 2."
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# example 1: the oscillator ladder


@dataclass(frozen=True)
class Example1Row:
    alpha: float
    beta: float
    mode: int
    mu_plus: float
    mu_minus: float
    exact_plus: float
    exact_minus: float
    error_plus: float
    error_minus: float


@dataclass(frozen=True)
class Example1Result:
    rows: tuple
    grid_points: int
    half_width: float
    contraction: dict          # (alpha, beta) -> b = ||V U^(-1)||
    sensitivity_alpha: float
    sensitivity_eps: float
    fd_ratio_exact: float      # finite difference on the closed form
    fd_ratio_discrete: float   # finite difference on the discretized model
    predicted_ratio: float     # -(3/2) alpha / (1 - alpha^2)
    bound: float               # eps / (1 - alpha)
    comparison_factor: float   # (3/2) alpha / (1 + alpha)


def _discrete_extremes(spec, alpha, modes):
    """The (mu_n^+, mu_n^-) of modes of the oscillator at field strength alpha.

    ``spec`` is the oscillator of one mass offset with V = diag(x), the
    field strength 1, so the potential of field strength alpha is its
    coupling t = alpha: the same product alpha * x that harmonic_model
    forms.  One row of eigen_spectra at shift 0, solved for the
    max(modes) + 1 eigenvalues nearest the shift on each side alone.
    """
    stack = eigen_spectra(spec, (alpha,), 0.0, nearest=max(modes) + 1)
    # both solver paths order the row ascending by real part
    re = np.real(stack.eigenvalues[0])
    pos, neg = re[re > 0.0], re[re < 0.0][::-1]
    return [(float(pos[m]), float(neg[m])) for m in modes]


def example1_table(grid_points=1000, half_width=12.0) -> Example1Result:
    """Discretized oscillator eigenvalues against the closed form.

    Tabulates EXAMPLE1_MODES for every (alpha, beta) of EXAMPLE1_ALPHAS x
    EXAMPLE1_BETAS.  Also compares the first-order sensitivity of the
    lowest positive eigenvalue under alpha -> alpha + eps, at
    alpha = SENSITIVITY_ALPHA and eps = SENSITIVITY_EPS: the finite
    difference on the closed form, the finite difference on the
    discretized model, the predicted logarithmic derivative, and the
    certified bound eps / (1 - alpha).

    alpha changes the potential alone, so each beta has one model, whose
    U^2 is validated and factored once, and each alpha is a coupling of
    it, solved as its own row (a stack of all of a beta's rows would
    hold all of their order-2n matrices at once).
    """
    specs = {
        beta: harmonic_model(
            HarmonicParams(
                alpha=1.0, beta=beta, grid_points=grid_points, half_width=half_width
            )
        )
        for beta in EXAMPLE1_BETAS
    }
    rows = []
    contractions = {}
    for alpha in EXAMPLE1_ALPHAS:
        for beta in EXAMPLE1_BETAS:
            pairs = _discrete_extremes(specs[beta], alpha, EXAMPLE1_MODES)
            # the printed b, of the potential alpha V; no row is routed on it
            potential = specs[beta].with_potential(alpha * specs[beta].v_band, "")
            contractions[(alpha, beta)] = contraction(potential, 0.0)
            for mode, (mu_p, mu_m) in zip(EXAMPLE1_MODES, pairs):
                ex_p, ex_m = exact_harmonic_eigs(alpha, beta, mode)
                rows.append(
                    Example1Row(
                        alpha=alpha,
                        beta=beta,
                        mode=mode,
                        mu_plus=mu_p,
                        mu_minus=mu_m,
                        exact_plus=ex_p,
                        exact_minus=ex_m,
                        error_plus=abs(mu_p - ex_p),
                        error_minus=abs(mu_m - ex_m),
                    )
                )

    a0, eps = SENSITIVITY_ALPHA, SENSITIVITY_EPS
    mu0 = exact_harmonic_eigs(a0, 0.0, 0)[0]
    mu1 = exact_harmonic_eigs(a0 + eps, 0.0, 0)[0]
    fd_exact = (mu1 - mu0) / (mu0 * eps)
    pairs0 = _discrete_extremes(specs[0.0], a0, (0,))
    pairs1 = _discrete_extremes(specs[0.0], a0 + eps, (0,))
    fd_disc = (pairs1[0][0] - pairs0[0][0]) / (pairs0[0][0] * eps)

    return Example1Result(
        rows=tuple(rows),
        grid_points=grid_points,
        half_width=half_width,
        contraction=contractions,
        sensitivity_alpha=a0,
        sensitivity_eps=eps,
        fd_ratio_exact=fd_exact,
        fd_ratio_discrete=fd_disc,
        predicted_ratio=harmonic_sensitivity(a0),
        bound=eps / (1.0 - a0),
        comparison_factor=1.5 * a0 / (1.0 + a0),
    )


def render_example1_report(result: Example1Result) -> str:
    lines = [
        "== oscillator ladder: discretized vs closed-form eigenvalues ==",
        f"grid: N = {result.grid_points}, L = {result.half_width:g}",
        "alpha  beta  n   mu_n^+ (disc)  mu_n^+ (exact)  |err+|     "
        "mu_n^- (disc)   mu_n^- (exact)  |err-|",
    ]
    for r in result.rows:
        lines.append(
            f"{r.alpha:<5g} {r.beta:<4g} {r.mode}   {r.mu_plus:+.6f}      "
            f"{r.exact_plus:+.6f}       {r.error_plus:.2e}   "
            f"{r.mu_minus:+.6f}       {r.exact_minus:+.6f}      {r.error_minus:.2e}"
        )
    lines.append("")
    lines.append("contraction b = ||V U^-1|| per (alpha, beta):")
    for (alpha, beta), b in sorted(result.contraction.items()):
        lines.append(f"  alpha = {alpha:<4g} beta = {beta:<4g} b = {b:.6f}")
    lines.append("")
    a0, eps = result.sensitivity_alpha, result.sensitivity_eps
    lines.append(
        f"== first-order sensitivity at alpha = {a0:g}, eps = {eps:g} =="
    )
    lines.append(
        f"relative change / eps: closed form {result.fd_ratio_exact:+.6f}, "
        f"discretized {result.fd_ratio_discrete:+.6f}, "
        f"predicted -(3/2) a/(1-a^2) = {result.predicted_ratio:+.6f}"
    )
    lines.append(
        f"certified bound eps/(1-alpha) = {result.bound:.4e} vs true relative "
        f"change {abs(result.fd_ratio_exact) * eps:.4e}; the bound is larger by "
        f"the factor (3/2) a/(1+a) = {result.comparison_factor:.4f}"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# coupling sweep


@dataclass(frozen=True)
class SweepResult:
    """Eigenvalue trajectories as the potential is scaled.

    ``eigenvalues[k]`` holds the spectrum (complex, sorted) at
    ``parameters[k]``; ``residuals[k, j]`` bounds sigma_min(Q(lam)) for
    lam = ``eigenvalues[k, j]`` under the potential ``parameters[k] * V``
    (the residuals of spectral.SpectrumStack), and ``residual_max[k]`` is
    its row maximum.  ``critical_value`` is the coupling, bisected in the
    first pair of steps that turns from real to non-real, where the
    spectrum stops being real; None when no pair of steps turns so.
    """

    parameters: np.ndarray
    eigenvalues: np.ndarray          # shape (steps, 2n), complex
    is_real: np.ndarray              # bool per row
    defect_flags: np.ndarray         # bool per row
    residuals: np.ndarray            # shape (steps, 2n)
    residual_max: np.ndarray         # row maximum of residuals
    critical_value: float | None


def sweep_potential(
    base: ModelSpec, lo: float, hi: float, steps: int, shift: float = 0.0
) -> SweepResult:
    """Scan t in [lo, hi]: spectrum of the model with potential t * V.

    The steps are solved in blocks of max(1, BLOCK_BUDGET // (2n)^2)
    couplings, or of max(1, BLOCK_BUDGET // 2n) when the spectral module
    solves the rows by the tridiagonal T, one stacked eigen_spectra call
    per block, whose residuals the result keeps.
    Every t V is exactly symmetric, and |t| is largest at an end of the
    range, so the two end potentials are validated (ValidationError when
    t V leaves the float range) before anything is solved, and a steps
    count whose (steps, 2n) eigenvalue array numpy would refuse raises
    MemoryError before any array is made.  The critical coupling is located by
    bisection (to 1e-6), one stack of one per step, on the reality of
    the spectrum within the first bracket where it flips, from a row of
    the eigenvalues nearest the shift.
    """
    if steps < 2:
        raise ValidationError(f"steps must be >= 2, got {steps}")
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise ValidationError(f"sweep range ({lo}, {hi}) is not finite")
    if not lo < hi:
        raise ValidationError(f"sweep range ({lo}, {hi}) is empty")
    two_n = 2 * base.order
    # numpy refuses an array of more bytes than an intp holds with a
    # ValueError, not a MemoryError: it is an allocation failure all the same
    if steps * two_n * 16 > np.iinfo(np.intp).max:
        raise MemoryError(
            f"steps = {steps}: its {two_n} complex eigenvalues a step are more "
            "than numpy can allocate"
        )
    with np.errstate(over="ignore"):
        for t in (lo, hi):
            base.with_potential(t * base.v_stored, base.label)

    params = np.linspace(lo, hi, steps)
    block = max(1, BLOCK_BUDGET // (two_n if _tridiagonal_rows(base) else two_n**2))
    eigenvalues = np.empty((steps, two_n), dtype=complex)
    residuals = np.empty((steps, two_n))
    real_flags = np.empty(steps, dtype=bool)
    defect_flags = np.empty(steps, dtype=bool)
    for start in range(0, steps, block):
        rows = slice(start, start + block)
        t = params[rows]
        solved = eigen_spectra(base, t, shift)
        # both solver paths order by real part, then imaginary part
        eigenvalues[rows] = solved.eigenvalues
        residuals[rows] = solved.residuals
        real_flags[rows] = solved.is_real
        defect_flags[rows] = solved.defective

    critical = None
    flips = np.flatnonzero(real_flags[:-1] & ~real_flags[1:])
    if flips.size:
        t_lo, t_hi = float(params[flips[0]]), float(params[flips[0] + 1])
        while t_hi - t_lo > 1e-6:
            mid = 0.5 * (t_lo + t_hi)
            if eigen_spectra(base, (mid,), shift, nearest=1).is_real[0]:
                t_lo = mid
            else:
                t_hi = mid
        critical = 0.5 * (t_lo + t_hi)

    return SweepResult(
        parameters=params,
        eigenvalues=eigenvalues,
        is_real=real_flags,
        defect_flags=defect_flags,
        residuals=residuals,
        residual_max=residuals.max(axis=1),
        critical_value=critical,
    )
