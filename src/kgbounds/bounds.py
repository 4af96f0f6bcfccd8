"""Relative eigenvalue perturbation constants and spectral-gap inclusions.

A potential change V -> V + dV perturbs the quadratic form g of the
shifted system by dg, and every constant kappa with |dg| <= kappa * g
controls the relative eigenvalue motion two-sidedly:

    -kappa <= (lam'_k - lam_k) / lam_k <= kappa

for the eigenvalues (in the shifted frame) paired by the order
convention: positive ones increasing, negative ones decreasing.  This
module evaluates every such constant that the block structure offers,

    kappa_general   = c / (1 - b)         c = ||dV U^(-1)|| = ||L^(-1) dV||
    kappa_sum       = c + b
    kappa_relative  = nu * b / (1 - b)    ||dV psi|| <= nu ||V psi||
    kappa_disjoint  = c / sqrt(1 - b^2)   when the mixed product vanishes
    kappa_signed    = asymmetric pair when V*dV is semidefinite

together with the exact extremes (kappa_minus, kappa_plus) of dg/g, the
sharpest pair and the brute-force check on all the formulas above.  In
the frame K = [[U^2, V], [V, I]], congruent to G, the potential change
is dK = [[0, dV], [dV, 0]], and the spectrum's K-frame pencil
eigenvectors Z, Z^T (K - mu*J) Z = I, diagonalize g, so the pair is the
extreme eigenvalues of the congruence Z^T dK Z: no root of U is taken,
and the one n x n Cholesky factorization of U^2 - (V - mu)^2 behind the
spectrum is the only one per (model, shift); c, b and the mixed
product read U^(-1) as L^(-1), L L^T = U^2 (core).  Then come the
multiplicative rescaling that turns an asymmetric pair into the
always-admissible constant

    kappa0_hat = (kappa_plus + kappa_minus) / 2
    kappa_prime_hat = (kappa_plus - kappa_minus) / (2 + kappa_plus + kappa_minus)

the gap inclusion intervals and the uniform norm-bound interval through
||dG|| and ||J1|| = (1 + ||Gamma||) / (1 - ||Gamma||), Gamma the n x n
angular operator of the positive spectral subspace
(spectral.sign_operator), the H-frame rows and the only ones to read a
root of U (ModelSpec.half_roots).  Every spectral quantity here is an
end of a spectrum, and only the ends are computed (core._extreme_eigenvalues): the exact pair, the sign of
the mixed product and each norm.  nu comes from a Bunch-Kaufman solve
with V.  One record holds everything known about one (model, dV,
shift): perturbation_constants measures dV (c, nu and the sign of the
mixed product) and evaluates every kappa into a BoundsReport, and
bounds_report assembles and solves for it.  Only two of the record's
methods walk the kappa names: rows(), the table of ``kg bounds``, and
checks(), which verify_bounds uses to compare every predicted constant
against exactly computed spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .core import (
    KleinGordonSystem,
    _extreme_eigenvalues,
    ModelSpec,
    assemble_system,
    check_symmetric,
    spectral_norm,
    symmetrize,
)
from .exceptions import (
    ContractionNotLessThanOne,
    KappaMinusNotAboveMinusOne,
    KappaOutOfRange,
    NotCertified,
    ValidationError,
)
from .spectral import (
    SpectrumReport,
    eigen_spectrum,
    eigenpair_residuals,
    sign_operator,
)

__all__ = [
    "PerturbationSpec",
    "KappaCheck",
    "GapInclusion",
    "BoundsReport",
    "VerificationReport",
    "delta_block",
    "delta_gram",
    "gap_bound",
    "perturbation_constants",
    "rescale_kappa",
    "gap_inclusion",
    "improved_inclusion",
    "norm_bound_interval",
    "bounds_report",
    "verify_bounds",
    "kappa_general",
    "kappa_sum",
    "kappa_relative",
    "kappa_disjoint",
    "kappa_signed_pair",
]

#: semidefiniteness slack for the sign-condition test, scaled by ||A|| ||dA||
SIGN_TOL = 1e-10

#: a symmetric matrix counts as invertible when LAPACK's estimate of its
#: reciprocal 1-norm condition number exceeds INV_RTOL
INV_RTOL = 1e-12


# ---------------------------------------------------------------------------
# scalar formulas


def kappa_general(c: float, b: float) -> float:
    """c / (1 - b), the constant from measuring dg against the free form."""
    if not b < 1.0:
        raise ContractionNotLessThanOne(f"contraction b = {b} is not < 1")
    return c / (1.0 - b)


def kappa_sum(c: float, b: float) -> float:
    """c + b, the coarser constant from re-running the spectrality argument."""
    return c + b


def kappa_relative(nu: float, b: float) -> float:
    """nu * b / (1 - b) when the perturbation is measured by V itself."""
    if not b < 1.0:
        raise ContractionNotLessThanOne(f"contraction b = {b} is not < 1")
    return nu * b / (1.0 - b)


def kappa_disjoint(c: float, b: float) -> float:
    """c / sqrt(1 - b^2), valid when the mixed product V*dV vanishes."""
    if not b < 1.0:
        raise ContractionNotLessThanOne(f"contraction b = {b} is not < 1")
    return c / math.sqrt(1.0 - b * b)


def kappa_signed_pair(c: float, b: float, direction: str = "negative"):
    """The asymmetric pair for a semidefinite mixed product V*dV.

    direction 'negative' (V*dV <= 0): (-c / sqrt(1-b^2), c / (1-b));
    direction 'positive' mirrors it to (-c / (1-b), c / sqrt(1-b^2)).
    """
    if not b < 1.0:
        raise ContractionNotLessThanOne(f"contraction b = {b} is not < 1")
    tight = c / math.sqrt(1.0 - b * b)
    loose = c / (1.0 - b)
    if direction == "negative":
        return -tight, loose
    if direction == "positive":
        return -loose, tight
    raise ValueError(f"direction must be 'negative' or 'positive', got {direction!r}")


# ---------------------------------------------------------------------------
# the perturbation


@dataclass(frozen=True)
class PerturbationSpec:
    """A symmetric potential perturbation dV, kept as a read-only copy.

    What it measures against a system (c, nu and the sign of the mixed
    product) is recorded by perturbation_constants in the BoundsReport.
    """

    delta_v: np.ndarray

    def __post_init__(self):
        dv = check_symmetric(self.delta_v, "delta_v")
        dv.setflags(write=False)
        object.__setattr__(self, "delta_v", dv)


def _mixed_product_sign(a_matrix, delta_a, b: float, c: float):
    """Classify dA^T A + A^T dA: ('negative'|'positive'|None, is_zero).

    b = ||A|| and c = ||dA|| scale the semidefiniteness slack.
    """
    mixed = symmetrize(delta_a.T @ a_matrix + a_matrix.T @ delta_a)
    tol = SIGN_TOL * max(b * c, 1e-300)
    lowest, highest = _extreme_eigenvalues(mixed, 1, 1)[[0, -1]]
    is_zero = bool(max(-lowest, highest) <= tol)
    if highest <= tol:
        return "negative", is_zero
    if lowest >= -tol:
        return "positive", is_zero
    return None, is_zero


def _relative_factor(dv, v):
    """nu = ||dV V^(-1)|| = ||V^(-1) dV||, from a Bunch-Kaufman solve with V.

    None when V is numerically singular (LAPACK's estimate of
    1/cond_1(V), from the same factorization, is at most INV_RTOL), when
    ||V||_1 or V^(-1) overflows (its 1-norm by that estimate), or when
    the product or nu itself does.
    """
    with np.errstate(over="ignore"):
        v_norm = float(np.abs(v).sum(axis=0).max(initial=0.0))   # ||V||_1
    if v_norm == 0.0 or not math.isfinite(v_norm):
        return None
    factor, pivots, v_inv_dv, info = lapack.dsysv(v, dv, lower=1)
    if info != 0:
        return None
    rcond, _ = lapack.dsycon(factor, pivots, v_norm, lower=1)
    # ||V^(-1)||_1 = 1 / (rcond ||V||_1) beyond the float range
    if rcond <= INV_RTOL or rcond * v_norm < 1.0 / np.finfo(float).max:
        return None
    if not np.isfinite(v_inv_dv).all():
        return None
    nu = spectral_norm(v_inv_dv)
    return nu if math.isfinite(nu) else None


def delta_block(system: KleinGordonSystem, pert) -> np.ndarray:
    """X = U^(1/2) dV U^(-1/2), the lower block of dG = [[0, X^T], [X, 0]].

    dG has exactly the singular values of X, so ||dG|| = ||X|| is an
    n x n norm.
    """
    dv = pert.delta_v if isinstance(pert, PerturbationSpec) else np.asarray(pert)
    root, inverse_root = system.spec.half_roots()
    return root @ dv @ inverse_root


def delta_gram(system: KleinGordonSystem, pert) -> np.ndarray:
    """The gram-matrix increment dG produced by the potential change.

    dG = [[0, U^(-1/2) dV U^(1/2)], [U^(1/2) dV U^(-1/2), 0]]; equals the
    difference of the assembled grams and is independent of the shift.
    """
    x = delta_block(system, pert)
    n = system.n
    dg = np.zeros((2 * n, 2 * n))
    dg[:n, n:] = x.T
    dg[n:, :n] = x
    return symmetrize(dg)


# ---------------------------------------------------------------------------
# the central gap and the rescaled pair


def gap_bound(system: KleinGordonSystem) -> float:
    """Half-width alpha = (1 - b) * min eig U of the guaranteed central gap.

    No eigenvalue of H lies in (mu - alpha, mu + alpha) when b < 1.
    """
    if not system.contraction < 1.0:
        raise ContractionNotLessThanOne(
            f"contraction b = {system.contraction} is not < 1"
        )
    return (1.0 - system.contraction) * system.spec.u_min


def rescale_kappa(kappa_minus: float, kappa_plus: float):
    """Optimal multiplicative shift for an asymmetric pair.

    Returns (kappa0_hat, kappa_prime_hat) with
    kappa0_hat = (kappa_plus + kappa_minus) / 2 and
    kappa_prime_hat = (kappa_plus - kappa_minus) / (2 + kappa_plus + kappa_minus);
    kappa_prime_hat < 1 whenever kappa_minus > -1, with no condition on
    kappa_plus.
    """
    if kappa_minus > kappa_plus:
        raise ValueError(
            f"kappa_minus = {kappa_minus} exceeds kappa_plus = {kappa_plus}"
        )
    if kappa_minus <= -1.0:
        raise KappaMinusNotAboveMinusOne(
            f"kappa_minus = {kappa_minus} must exceed -1 for the rescaled form "
            "to stay positive definite"
        )
    kappa0 = 0.5 * (kappa_plus + kappa_minus)
    kappa_prime = (kappa_plus - kappa_minus) / (2.0 + kappa_plus + kappa_minus)
    return kappa0, kappa_prime


# ---------------------------------------------------------------------------
# gap inclusions


@dataclass(frozen=True)
class GapInclusion:
    """A spectral gap of H and the interval certified to stay inside rho(H')."""

    original: tuple
    predicted: tuple
    case_tag: str  # 'positive-gap' | 'straddling' | 'negative-gap'


def gap_inclusion(gap, kappa: float) -> GapInclusion:
    """Shrink a spectral gap of H to the part certified free for H'.

    Cases by the gap position: (lo > 0) -> ((1+k) lo, (1-k) hi);
    straddling -> ((1-k) lo, (1-k) hi); (hi < 0) -> ((1-k) lo, (1+k) hi).
    A crossed (empty) interval is returned as computed.
    """
    lo, hi = float(gap[0]), float(gap[1])
    if not 0.0 <= kappa < 1.0:
        raise KappaOutOfRange(f"kappa = {kappa} must lie in [0, 1)")
    if not lo < hi:
        raise ValidationError(f"gap ({lo}, {hi}) is empty")
    if lo >= 0.0:
        tag = "positive-gap"
        predicted = ((1.0 + kappa) * lo, (1.0 - kappa) * hi)
    elif hi <= 0.0:
        tag = "negative-gap"
        predicted = ((1.0 - kappa) * lo, (1.0 + kappa) * hi)
    else:
        tag = "straddling"
        predicted = ((1.0 - kappa) * lo, (1.0 - kappa) * hi)
    return GapInclusion(original=(lo, hi), predicted=predicted, case_tag=tag)


def improved_inclusion(gap, kappa_minus: float, kappa_plus: float):
    """Gap inclusion for a straddling gap through the multiplicative shift.

    Both endpoints scale by (1 + kappa0_hat)(1 - kappa_prime_hat)
    = 1 + kappa_minus: the gap interval certified for H' is
    ((1 + kappa_minus) lo, (1 + kappa_minus) hi).  Contains the plain
    gap_inclusion interval with kappa = max(|kappa_minus|, kappa_plus)
    whenever the pair is asymmetric.
    """
    lo, hi = float(gap[0]), float(gap[1])
    if not (lo < 0.0 < hi):
        raise ValidationError(
            f"improved inclusion needs a gap straddling zero, got ({lo}, {hi})"
        )
    kappa0, kappa_prime = rescale_kappa(kappa_minus, kappa_plus)
    factor = (1.0 + kappa0) * (1.0 - kappa_prime)
    return factor * lo, factor * hi


def norm_bound_interval(gap, a: float, norm_j1: float):
    """Uniform inclusion for a norm-bounded perturbation ||S|| <= a.

    Returns (lo + a ||J1||, hi - a ||J1||): each endpoint moves inward by
    the same absolute amount regardless of how far the gap sits from
    zero.  Crossed endpoints mean the certified interval is empty.
    """
    if a < 0.0:
        raise ValidationError(f"perturbation norm a = {a} must be >= 0")
    lo, hi = float(gap[0]), float(gap[1])
    return lo + a * norm_j1, hi - a * norm_j1


# ---------------------------------------------------------------------------
# the bounds record


#: constants bounding |dg| <= kappa * g, then the two-sided pairs
_SCALAR_KAPPAS = (
    "kappa_general",
    "kappa_sum",
    "kappa_norm_product",
    "kappa_relative",
    "kappa_disjoint",
)
_PAIR_KAPPAS = ("kappa_signed", "kappa_exact")

#: slack used only to keep pass/fail flags stable at exact equality
_CHECK_SLACK = 1e-12


@dataclass(frozen=True)
class KappaCheck:
    """One predicted bound compared against the true deviations."""

    name: str
    value: object  # float or (kappa_minus, kappa_plus)
    applicable: bool
    passed: bool


@dataclass(frozen=True)
class BoundsReport:
    """Every statement for one (model, dV, shift): b, alpha, kappa, intervals.

    ``system`` is the model assembled at the shift, ``spectrum`` its
    spectrum, ``perturbation`` the validated potential change dV and
    ``alpha`` the guaranteed half-width of the central gap (gap_bound).
    ``c`` = ||dV U^(-1)||; ``nu`` the smallest factor with
    ||dV psi|| <= nu ||V psi||, absent when V is numerically singular or
    when V^(-1), dV V^(-1) or nu itself overflows; ``disjoint`` whether
    the mixed product dA^T A + A^T dA, A = (V - mu) L^(-T),
    dA = dV L^(-T), vanishes; ``signed`` 'negative' / 'positive' when it is
    semidefinite of that sign.  Then every kappa: ``kappa_norm_product``
    is kappa_general evaluated with the coarser measurement
    c <= ||dV|| ||U^(-1)||, the variant of the worked-example tables, and
    ``kappa_exact`` the extreme eigenvalues of dg relative to g, the
    sharpest pair, always computed.  ``valid`` flags each kappa: its
    hypothesis holds and the value is below one where the statement
    needs it.  The gap inclusion intervals and the norms they need are
    derived by rows() alone.
    """

    system: KleinGordonSystem = field(repr=False)
    spectrum: SpectrumReport = field(repr=False)
    perturbation: PerturbationSpec = field(repr=False)
    alpha: float
    b: float
    c: float
    nu: float | None
    disjoint: bool
    signed: str | None
    kappa_general: float
    kappa_sum: float
    kappa_norm_product: float
    kappa_relative: float | None
    kappa_disjoint: float | None
    kappa_signed: tuple | None
    kappa_exact: tuple
    kappa0_hat: float | None
    kappa_prime_hat: float | None
    valid: dict

    def entries(self):
        """Ordered (key, value, applicable) rows of every computed constant.

        Absent constants are left out; each pair is split into
        ``<name>_minus`` and ``<name>_plus`` rows.
        """
        rows = []
        for name in _SCALAR_KAPPAS:
            value = getattr(self, name)
            if value is not None:
                rows.append((name, value, self.valid[name]))
        for name in _PAIR_KAPPAS:
            pair = getattr(self, name)
            if pair is not None:
                rows.append((f"{name}_minus", pair[0], self.valid[name]))
                rows.append((f"{name}_plus", pair[1], self.valid[name]))
        if self.kappa0_hat is not None:
            rows.append(("kappa0_hat", self.kappa0_hat, self.valid["kappa_hats"]))
            rows.append(
                ("kappa_prime_hat", self.kappa_prime_hat, self.valid["kappa_hats"])
            )
        return rows

    def rows(self):
        """The ordered (key, value, extra) rows of every statement.

        A scalar row holds its value and extra None; a kappa constant
        holds its applicable flag in extra; an interval (central_gap and
        interval_*) holds its ends in value and extra, both None when no
        interval is certified.  The plain and improved intervals shrink
        the central gap in the shifted frame by kappa_exact; the uniform
        one moves both ends inward by ||dG|| ||J1||, dG the gram increment
        (perturbation_norm).
        """
        mu = self.system.shift
        gap = self.spectrum.central_gap
        shifted_gap = (gap[0] - mu, gap[1] - mu)
        km, kp = self.kappa_exact
        kappa = max(abs(km), abs(kp))
        plain = improved = uniform = (None, None)
        if kappa < 1.0 and not np.isinf(shifted_gap).any():
            lo, hi = gap_inclusion(shifted_gap, kappa).predicted
            plain = (lo + mu, hi + mu)
        if km > -1.0 and shifted_gap[0] < 0.0 < shifted_gap[1]:
            lo, hi = improved_inclusion(shifted_gap, km, kp)
            improved = (lo + mu, hi + mu)
        s_norm = spectral_norm(delta_block(self.system, self.perturbation))
        norm_j1 = sign_operator(self.spectrum).norm_j1
        lo, hi = norm_bound_interval(gap, s_norm, norm_j1)
        if lo < hi:
            uniform = (lo, hi)
        return [
            ("contraction_b", self.b, None),
            ("c_norm", self.c, None),
            ("gap_alpha", self.alpha, None),
            ("central_gap", *gap),
            *self.entries(),
            ("interval_plain", *plain),
            ("interval_improved", *improved),
            ("interval_uniform", *uniform),
            ("perturbation_norm", s_norm, None),
        ]

    def checks(self, signed_deviations):
        """One KappaCheck per computed kappa against the signed deviations.

        A scalar kappa k is checked as the pair (-k, k), which passes
        exactly when max |deviation| <= k; a pair passes when every
        deviation lies inside it, both up to _CHECK_SLACK.
        """
        checks = []
        for name in _SCALAR_KAPPAS + _PAIR_KAPPAS:
            value = getattr(self, name)
            if value is None:
                continue
            lo, hi = value if isinstance(value, tuple) else (-value, value)
            passed = bool(
                np.all(signed_deviations >= lo - _CHECK_SLACK)
                and np.all(signed_deviations <= hi + _CHECK_SLACK)
            )
            checks.append(KappaCheck(name, value, self.valid[name], passed))
        return tuple(checks)


def perturbation_constants(
    system: KleinGordonSystem, pert, report: SpectrumReport
) -> BoundsReport:
    """Measure dV against one system and evaluate every applicable constant.

    ``pert`` is a PerturbationSpec or a raw symmetric matrix and
    ``report`` the spectrum of ``system``.  Raises
    ContractionNotLessThanOne when b >= 1 (gap_bound), and
    ValidationError when c = ||dV U^(-1)|| is beyond the float range.
    c = ||L^(-1) dV|| comes from a triangular solve, nu from a
    Bunch-Kaufman solve with V, and the disjoint and sign classification
    from the extreme eigenvalues of the mixed product
    L^(-1) (W dV + dV W) L^(-T), W = V - mu, congruent to the U frame's
    through the orthogonal U L^(-T).  The
    validity flag of each kappa records whether its hypothesis holds
    and, where the statement needs it, whether the value is below one;
    invalid entries keep their value for tabulation.  The exact pair
    comes from the report's K-frame pencil eigenvectors Z,
    Z^T (K - mu*J) Z = I: it is the extreme eigenvalues of
    Z^T dK Z = M + M^T with M = Z_2^T dV Z_1, Z_1 and Z_2 the upper and
    lower halves of Z, computed alone.  Neither K - mu*J nor dK is
    formed.  NotCertified when the report took the direct path, that is when
    G - mu*J was not certified positive definite or the Cholesky
    factorization of U^2 - (V - mu)^2 failed.
    """
    alpha = gap_bound(system)
    if not isinstance(pert, PerturbationSpec):
        pert = PerturbationSpec(delta_v=pert)
    dv, b = pert.delta_v, system.contraction
    if dv.shape[0] != system.n:
        raise ValidationError(
            f"delta_v has order {dv.shape[0]}, system has order {system.n}"
        )
    if report.solver_path != "similarity":
        raise NotCertified(
            f"g = gram - shift*J is not certified positive definite: b = {b:.17g}"
        )

    delta_a = system.spec.l_solve(dv).T   # an entry beyond the float range: c = inf
    c = spectral_norm(delta_a)
    if not math.isfinite(c):   # a nan too: dV and L are finite
        raise ValidationError(
            "the perturbation is out of range: c = ||dV U^(-1)|| = inf is not finite"
        )
    nu = _relative_factor(dv, system.spec.v)
    signed, disjoint = _mixed_product_sign(system.a_matrix, delta_a, b, c)

    k_gen = kappa_general(c, b)
    k_sum = kappa_sum(c, b)
    c_loose = spectral_norm(dv) / system.spec.u_min   # ||U^(-1)|| = 1/u_min
    k_prod = kappa_general(c_loose, b)
    k_rel = kappa_relative(nu, b) if nu is not None else None

    structural_ok = b * b + c * c < 1.0
    k_dis = kappa_disjoint(c, b) if (disjoint and structural_ok) else None
    k_sgn = (
        kappa_signed_pair(c, b, signed)
        if (signed is not None and structural_ok)
        else None
    )

    n, z = system.n, report.eigenvectors
    m = z[n:].T @ (dv @ z[:n])
    w = _extreme_eigenvalues(m + m.T, 1, 1)
    k_exact = (float(w[0]), float(w[-1]))
    if k_exact[0] > -1.0:
        k0_hat, kp_hat = rescale_kappa(*k_exact)
    else:
        k0_hat, kp_hat = None, None

    valid = {
        "kappa_general": k_gen < 1.0,
        "kappa_sum": k_sum < 1.0,
        "kappa_norm_product": k_prod < 1.0,
        "kappa_relative": k_rel is not None and system.shift == 0.0 and k_rel < 1.0,
        "kappa_disjoint": k_dis is not None,
        "kappa_signed": k_sgn is not None and k_sgn[0] > -1.0,
        "kappa_exact": k_exact[0] > -1.0,
        "kappa_hats": k0_hat is not None,
    }
    return BoundsReport(
        system=system,
        spectrum=report,
        perturbation=pert,
        alpha=alpha,
        b=b,
        c=c,
        nu=nu,
        disjoint=disjoint,
        signed=signed,
        kappa_general=k_gen,
        kappa_sum=k_sum,
        kappa_norm_product=k_prod,
        kappa_relative=k_rel,
        kappa_disjoint=k_dis,
        kappa_signed=k_sgn,
        kappa_exact=k_exact,
        kappa0_hat=k0_hat,
        kappa_prime_hat=kp_hat,
        valid=valid,
    )


def bounds_report(spec: ModelSpec, pert, shift: float = 0.0) -> BoundsReport:
    """Assemble, solve and evaluate every constant for one (model, dV, shift).

    Raises ContractionNotLessThanOne when b >= 1, before any spectrum is
    solved; otherwise solves the spectrum once and reads every constant
    off it (perturbation_constants).
    """
    system = assemble_system(spec, shift)
    gap_bound(system)
    return perturbation_constants(system, pert, eigen_spectrum(system))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationReport:
    """True relative eigenvalue deviations against every predicted bound.

    Deviations are measured in the shifted frame,
    |lam'_k - lam_k| / |lam_k - mu|, with eigenvalues of both systems
    paired in ascending order (identical to the order convention whenever
    both spectra put the same count on each side of the shift).
    ``bounds`` is the BoundsReport of the unperturbed model and
    ``checks`` its kappa constants against the signed deviations
    (BoundsReport.checks).  ``residuals`` / ``residuals_perturbed`` are
    the eigenpair backward errors (spectral.eigenpair_residuals) of
    ``eigenvalues`` / ``eigenvalues_perturbed``, the real parts of the
    two spectra, with their computed eigenvectors under the model and
    the perturbed model.
    """

    shift: float
    eigenvalues: np.ndarray
    eigenvalues_perturbed: np.ndarray
    deviations: np.ndarray
    signed_deviations: np.ndarray
    max_deviation: float
    bounds: BoundsReport
    checks: tuple
    real_spectrum: bool
    real_spectrum_perturbed: bool
    residuals: np.ndarray = field(repr=False)
    residuals_perturbed: np.ndarray = field(repr=False)


def verify_bounds(spec: ModelSpec, pert, shift: float = 0.0) -> VerificationReport:
    """Compare predicted bounds against the exactly computed spectra.

    Starts from bounds_report, so ContractionNotLessThanOne is raised
    when b >= 1 before the perturbed model is built or anything is
    solved.  Then solves the perturbed spectrum at the same shift
    (general eigensolver with real parts when its contraction passes
    one), pairs eigenvalues in ascending order and checks each kappa
    constant against the deviations.
    """
    bounds = bounds_report(spec, pert, shift)
    rep = bounds.spectrum
    spec_p = spec.perturbed(bounds.perturbation.delta_v)
    rep_p = eigen_spectrum(assemble_system(spec_p, shift))

    # both solver paths order by real part, so lam and lam_p line up
    # with each other and with the eigenvector columns kept in the report
    lam, lam_p = np.real(rep.eigenvalues), np.real(rep_p.eigenvalues)
    assert np.all(np.diff(lam) >= 0.0) and np.all(np.diff(lam_p) >= 0.0)

    denom = lam - shift
    with np.errstate(divide="ignore", invalid="ignore"):
        signed = (lam_p - lam) / denom
    # an eigenvalue sitting exactly at the shift: zero deviation if it
    # stayed, infinite relative deviation if it moved
    stuck = np.where(lam_p == lam, 0.0, np.inf)
    signed = np.where(denom != 0.0, signed, stuck)
    devs = np.abs(signed)

    return VerificationReport(
        shift=float(shift),
        eigenvalues=lam,
        eigenvalues_perturbed=lam_p,
        deviations=devs,
        signed_deviations=signed,
        max_deviation=float(devs.max(initial=0.0)),
        bounds=bounds,
        checks=bounds.checks(signed),
        real_spectrum=rep.is_real_spectrum,
        real_spectrum_perturbed=rep_p.is_real_spectrum,
        residuals=eigenpair_residuals(spec, lam, rep.eigenvectors),
        residuals_perturbed=eigenpair_residuals(spec_p, lam_p, rep_p.eigenvectors),
    )
