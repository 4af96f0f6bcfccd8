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
is dK = [[0, dV], [dV, 0]], and the spectrum's pencil factor F,
K - mu*J = F F^T, F = [[M, W], [0, I]] (spectral), reduces g to the
identity, so the pair is the two ends of the spectrum of
S = F^(-1) dK F^(-T): no root of U is taken, no eigenvector is read,
and the one n x n Cholesky factorization M M^T = U^2 - (V - mu)^2
behind the spectrum is the only one per (model, shift).  S's upper
left block is congruent to the mixed product, whose sign it gives, and
c and b read U^(-1) as L^(-1), L L^T = U^2 (core).  Then come the
multiplicative rescaling that turns an asymmetric pair into the
always-admissible constant

    kappa0_hat = (kappa_plus + kappa_minus) / 2
    kappa_prime_hat = (kappa_plus - kappa_minus) / (2 + kappa_plus + kappa_minus)

the gap inclusion intervals and the uniform norm-bound interval through
||dG|| and ||J1|| = (1 + ||Gamma||) / (1 - ||Gamma||), Gamma the n x n
angular operator of the positive spectral subspace
(spectral.sign_operator), the H-frame rows.  Both are taken in U^2's
eigenbasis E (ModelSpec.u2_eigenbasis), where U^(+-1/2) are diagonal,
so no root of U is formed; ||J1|| is the only number read off
eigenvectors, which sign_operator solves for from M.  Every spectral
quantity here is an end of a spectrum, and only the ends are computed
(core._spectrum_ends): the exact pair, the mixed product's sign and
each norm.  nu comes
from V^(-1) dV, the rows of dV scaled when V is diagonal and a
Bunch-Kaufman solve with V otherwise.  One record holds everything known
about one (model, dV, shift): perturbation_constants measures dV (c, nu
and the sign of the mixed product) and evaluates every kappa, once,
into the BoundsReport's one table of named constants, and bounds_report
assembles and solves for it.  Two methods walk that table: entries(),
the constant rows of ``kg bounds`` (rows()), and checks(), which
verify_bounds uses to compare every predicted constant against exactly
computed spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .core import (
    KleinGordonSystem,
    _is_diagonal,
    _spectrum_ends,
    _symmetric_norm,
    ModelSpec,
    assemble_system,
    check_symmetric,
    shifted_potential,
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
    _real_part_residuals,
    _tridiagonal_rows,
    SpectrumReport,
    eigen_spectrum,
    sign_operator,
)

__all__ = [
    "PerturbationSpec",
    "KappaCheck",
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


def _mixed_product_sign(lowest: float, highest: float, b: float, c: float):
    """Classify dA^T A + A^T dA, or a congruent copy no smaller in modulus,
    by its spectrum's ends: ('negative'|'positive'|None, is_zero).

    b = ||A|| and c = ||dA|| scale the semidefiniteness slack.
    """
    tol = SIGN_TOL * max(b * c, 1e-300)
    is_zero = bool(max(-lowest, highest) <= tol)
    if highest <= tol:
        return "negative", is_zero
    if lowest >= -tol:
        return "positive", is_zero
    return None, is_zero


def _relative_factor(dv, v):
    """nu = ||dV V^(-1)|| = ||V^(-1) dV||, from a solve with V.

    A 1-D ``v``, the diagonal of a diagonal V (ModelSpec.v_stored),
    divides the rows of dV by its entries, with the exact
    1/cond_1(V) = min |v_ii| / max |v_ii|; a dense V takes a
    Bunch-Kaufman solve (dsysv) and LAPACK's estimate of 1/cond_1(V)
    from the same factorization.  None when V is numerically singular
    (1/cond_1(V) at most INV_RTOL), when ||V||_1 or V^(-1) overflows
    (its 1-norm, 1 / (||V||_1 / cond_1(V))), or when the product or nu
    itself does.
    """
    diagonal = v.ndim == 1
    with np.errstate(over="ignore"):
        columns = np.abs(v) if diagonal else np.abs(v).sum(axis=0)
        v_norm = float(columns.max(initial=0.0))   # ||V||_1
    if v_norm == 0.0 or not math.isfinite(v_norm):
        return None
    if diagonal:
        rcond = float(columns.min()) / v_norm
    else:
        factor, pivots, v_inv_dv, info = lapack.dsysv(v, dv, lower=1)
        if info != 0:
            return None
        rcond, _ = lapack.dsycon(factor, pivots, v_norm, lower=1)
    # ||V^(-1)||_1 = 1 / (rcond ||V||_1) beyond the float range
    if rcond <= INV_RTOL or rcond * v_norm < 1.0 / np.finfo(float).max:
        return None
    if diagonal:
        with np.errstate(over="ignore"):
            v_inv_dv = dv / v[:, None]
    if not np.isfinite(v_inv_dv).all():
        return None
    nu = spectral_norm(v_inv_dv)
    return nu if math.isfinite(nu) else None


def delta_block(spec: ModelSpec, pert) -> np.ndarray:
    """E^T X E = diag(d) (E^T dV E) diag(d)^(-1), X = U^(1/2) dV U^(-1/2).

    U^2 = E diag(d^4) E^T (ModelSpec.u2_eigenbasis), and X is the lower
    block of dG = [[0, X^T], [X, 0]].  dG has exactly the singular values
    of X, and the orthogonal E changes none, so ||dG|| is the n x n norm
    of this block.
    """
    dv = pert.delta_v if isinstance(pert, PerturbationSpec) else np.asarray(pert)
    d, e = spec.u2_eigenbasis
    return (e.T @ dv @ e) * np.divide.outer(d, d)


def delta_gram(system: KleinGordonSystem, pert) -> np.ndarray:
    """The gram-matrix increment dG produced by the potential change.

    dG = [[0, U^(-1/2) dV U^(1/2)], [U^(1/2) dV U^(-1/2), 0]]; equals the
    difference of the assembled grams and is independent of the shift.
    X is delta_block rotated back by E.
    """
    e = system.spec.u2_eigenbasis[1]
    x = e @ delta_block(system.spec, pert) @ e.T
    n = system.spec.order
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


def gap_inclusion(gap, kappa: float):
    """Shrink a spectral gap (lo, hi) of H to the part certified free for H'.

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
        return (1.0 + kappa) * lo, (1.0 - kappa) * hi
    if hi <= 0.0:
        return (1.0 - kappa) * lo, (1.0 + kappa) * hi
    return (1.0 - kappa) * lo, (1.0 - kappa) * hi


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

    ``spectrum`` is the model's spectrum at the shift, whose factor M
    and central gap the rows read: from bounds_report the eigenvalue
    nearest the shift on each side alone, from verify_bounds the whole
    spectrum.  ``perturbation`` is the validated potential change dV and
    ``alpha`` the guaranteed half-width of the central gap (gap_bound).
    ``c`` = ||dV U^(-1)||; ``nu`` the smallest factor with
    ||dV psi|| <= nu ||V psi||, absent when V is numerically singular or
    when V^(-1), dV V^(-1) or nu itself overflows; ``disjoint`` whether
    the mixed product dA^T A + A^T dA, A = (V - mu) L^(-T),
    dA = dV L^(-T), vanishes; ``signed`` 'negative' / 'positive' when it is
    semidefinite of that sign, both read off a congruent copy, S's upper
    left block (perturbation_constants).  ``kappas``, the one table of
    constants, maps the name of each constant present, in table order, to
    (value, valid), a pair's value being (minus, plus); ``valid`` says
    that its hypothesis holds and the value is below one where the
    statement needs it.  kappa_general, kappa_sum, kappa_norm_product
    (kappa_general with the coarser c <= ||dV|| ||U^(-1)|| of the
    worked-example tables) and kappa_exact, the extreme eigenvalues of
    dg relative to g and the sharpest pair, are always present.  The
    rescaled pair, the gap inclusion intervals and the norms they need
    are derived by entries() and rows() alone.
    """

    spectrum: SpectrumReport = field(repr=False)
    perturbation: PerturbationSpec = field(repr=False)
    alpha: float
    b: float
    c: float
    nu: float | None
    disjoint: bool
    signed: str | None
    kappas: dict

    def entries(self):
        """Ordered (key, value, applicable) rows of every computed constant.

        Each pair is split into ``<name>_minus`` and ``<name>_plus`` rows,
        and kappa0_hat and kappa_prime_hat (rescale_kappa) follow the
        exact pair when its minus end is above -1.
        """
        rows = []
        for name, (value, valid) in self.kappas.items():
            if isinstance(value, tuple):
                rows.append((f"{name}_minus", value[0], valid))
                rows.append((f"{name}_plus", value[1], valid))
            else:
                rows.append((name, value, valid))
        pair, rescalable = self.kappas["kappa_exact"]
        if rescalable:
            k0_hat, kp_hat = rescale_kappa(*pair)
            rows += [("kappa0_hat", k0_hat, True), ("kappa_prime_hat", kp_hat, True)]
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
        mu = self.spectrum.shift
        gap = self.spectrum.central_gap
        shifted_gap = (gap[0] - mu, gap[1] - mu)
        km, kp = self.kappas["kappa_exact"][0]
        kappa = max(abs(km), abs(kp))
        plain = improved = uniform = (None, None)
        if kappa < 1.0 and not np.isinf(shifted_gap).any():
            lo, hi = gap_inclusion(shifted_gap, kappa)
            plain = (lo + mu, hi + mu)
        if km > -1.0 and shifted_gap[0] < 0.0 < shifted_gap[1]:
            lo, hi = improved_inclusion(shifted_gap, km, kp)
            improved = (lo + mu, hi + mu)
        s_norm = spectral_norm(delta_block(self.spectrum.spec, self.perturbation))
        lo, hi = norm_bound_interval(gap, s_norm, sign_operator(self.spectrum))
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
        for name, (value, valid) in self.kappas.items():
            lo, hi = value if isinstance(value, tuple) else (-value, value)
            passed = bool(
                np.all(signed_deviations >= lo - _CHECK_SLACK)
                and np.all(signed_deviations <= hi + _CHECK_SLACK)
            )
            checks.append(KappaCheck(name, value, valid, passed))
        return tuple(checks)


def _factor_congruence(report: SpectrumReport, dv, exponent: int):
    """S = F^(-1) dK F^(-T) / 2^exponent, F = [[M, W], [0, I]] the pencil's factor.

    With K - mu*J = F F^T and dK = [[0, dV], [dV, 0]],

        S = [[-M^(-1) (W dV + dV W) M^(-T), M^(-1) dV], [dV M^(-T), 0]],

    M the report's pencil_factor and W = V - mu.  Returned in Fortran
    order with its lower triangle alone formed (the upper right block is
    zero), for _spectrum_ends to reduce in place.  On the tridiagonal
    route M is bidiagonal and W diagonal: W dV + dV W is
    (w_i + w_j) dV_ij, and each solve with M a banded one (dtbtrs), so
    S costs O(n^2); otherwise W dV is one product and each solve a
    triangular one (dtrtrs).  S is formed from dV / 2^exponent, exactly,
    and that copy of dV and X = W dV + dV W, both exactly symmetric, are
    each solved as their transposes, in Fortran order, and overwritten.
    """
    spec, n, m = report.spec, report.spec.order, report.pencil_factor
    dv = np.ldexp(dv, -exponent)
    if _tridiagonal_rows(spec):
        w = spec.v_band - report.shift
        x = (w[:, None] + w) * dv

        def solve(rhs):   # M^(-1) rhs, over rhs when it is in Fortran order
            return lapack.dtbtrs(m, rhs, uplo="L", overwrite_b=1)[0]
    else:
        wdv = shifted_potential(spec, report.shift) @ dv
        x = wdv + wdv.T
        del wdv   # each n x n temporary goes before the next is made

        def solve(rhs):
            return lapack.dtrtrs(m, rhs, lower=1, overwrite_b=1)[0]
    s = np.zeros((2 * n, 2 * n), order="F")
    s[n:, :n] = solve(dv.T).T
    del dv   # before the last solve copies M^(-1) X
    x = solve(x.T)   # M^(-1) X
    np.negative(solve(x.T), out=s[:n, :n])   # -M^(-1) X M^(-T)
    return s


def perturbation_constants(
    system: KleinGordonSystem, pert, report: SpectrumReport
) -> BoundsReport:
    """Measure dV against one system and evaluate every applicable constant.

    ``pert`` is a PerturbationSpec or a raw symmetric matrix and
    ``report`` the spectrum of ``system``.  Raises
    ContractionNotLessThanOne when b >= 1 (gap_bound), and
    ValidationError when c = ||dV U^(-1)|| is beyond the float range.
    c = ||L^(-1) dV|| comes from a triangular solve, nu from V^(-1) dV
    (row scaling for the diagonal V that the spec records, else a
    Bunch-Kaufman solve) and ||dV|| from the ends of its spectrum.  The
    validity flag of each kappa records whether its hypothesis holds
    and, where the statement needs it, whether the value is below one;
    invalid entries keep their value for tabulation.

    The exact pair comes from the report's pencil factor M,
    M M^T = U^2 - W^2, W = V - mu, and not from its eigenvectors: with
    K - mu*J = F F^T, F = [[M, W], [0, I]], and the pencil's
    eigenvectors Z = F^(-T) Y, Y orthogonal, Z^T dK Z = Y^T S Y is
    similar to S = F^(-1) dK F^(-T) (_factor_congruence), so the pair is
    the two ends of S's spectrum.  S is formed from dV / 2^k, its
    largest entry in [1/2, 1), in Fortran order and lower triangle
    alone, and _spectrum_ends reduces S in place; the ends are scaled
    back by 2^k.  Neither K - mu*J nor dK is formed.

    The disjoint and sign classification come from the ends of S's upper
    left block -M^(-1) (W dV + dV W) M^(-T), read before S is reduced,
    negated and scaled back as the pair's are; no A = W L^(-T) is formed.
    Through L the mixed product is P = L^(-1) (W dV + dV W) L^(-T), the
    U frame's times the orthogonal U L^(-T), and M = L R with
    R R^T = I - A^T A, so the negated block is R^(-1) P R^(-T).  By
    Ostrowski's theorem its k-th eigenvalue is theta_k lambda_k(P),
    theta_k in [1, 1/(1 - b^2)], the spectrum's range of (R R^T)^(-1):
    signs are kept and no modulus shrinks, so each 'negative',
    'positive' or zero verdict (_mixed_product_sign) is one for P too.
    NotCertified when the report took the direct path, that is when
    G - mu*J was not certified positive definite or the Cholesky
    factorization of U^2 - (V - mu)^2 failed.
    """
    alpha = gap_bound(system)
    if not isinstance(pert, PerturbationSpec):
        pert = PerturbationSpec(delta_v=pert)
    dv, b = pert.delta_v, system.contraction
    n = system.spec.order
    if dv.shape[0] != n:
        raise ValidationError(
            f"delta_v has order {dv.shape[0]}, system has order {n}"
        )
    if report.solver_path != "similarity":
        raise NotCertified(
            f"g = gram - shift*J is not certified positive definite: b = {b:.17g}"
        )

    # dA = dV L^(-T): an entry beyond the float range gives c = inf
    c = spectral_norm(system.spec.l_solve(dv).T)
    if not math.isfinite(c):   # a nan too: dV and L are finite
        raise ValidationError(
            "the perturbation is out of range: c = ||dV U^(-1)|| = inf is not finite"
        )
    nu = _relative_factor(dv, system.spec.v_stored)

    # S is linear in dV: it is formed from dV / 2^k, whose largest entry
    # lies in [1/2, 1), and its ends are scaled back, so that a dV near
    # the top of the float range overflows neither W dV nor S
    k = math.frexp(np.abs(dv).max(initial=0.0))[1]
    s = _factor_congruence(report, dv, k)
    block = _spectrum_ends(s[:n, :n])
    ends = _spectrum_ends(s, overwrite=True)
    with np.errstate(over="ignore"):
        lowest, highest = np.ldexp(block, k).tolist()
        k_exact = tuple(np.ldexp(ends, k).tolist())
    signed, disjoint = _mixed_product_sign(-highest, -lowest, b, c)

    k_gen = kappa_general(c, b)
    k_sum = kappa_sum(c, b)
    # ||U^(-1)|| = 1/u_min
    c_loose = _symmetric_norm(dv.diagonal() if _is_diagonal(dv) else dv)
    c_loose /= system.spec.u_min
    k_prod = kappa_general(c_loose, b)
    kappas = {
        "kappa_general": (k_gen, k_gen < 1.0),
        "kappa_sum": (k_sum, k_sum < 1.0),
        "kappa_norm_product": (k_prod, k_prod < 1.0),
    }
    if nu is not None:
        k_rel = kappa_relative(nu, b)
        kappas["kappa_relative"] = (k_rel, system.shift == 0.0 and k_rel < 1.0)
    structural_ok = b * b + c * c < 1.0
    if disjoint and structural_ok:
        kappas["kappa_disjoint"] = (kappa_disjoint(c, b), True)
    if signed is not None and structural_ok:
        k_sgn = kappa_signed_pair(c, b, signed)
        kappas["kappa_signed"] = (k_sgn, k_sgn[0] > -1.0)
    kappas["kappa_exact"] = (k_exact, k_exact[0] > -1.0)
    return BoundsReport(
        spectrum=report,
        perturbation=pert,
        alpha=alpha,
        b=b,
        c=c,
        nu=nu,
        disjoint=disjoint,
        signed=signed,
        kappas=kappas,
    )


def bounds_report(spec: ModelSpec, pert, shift: float = 0.0) -> BoundsReport:
    """Assemble, solve and evaluate every constant for one (model, dV, shift).

    Raises ContractionNotLessThanOne when b >= 1, before any spectrum is
    solved; otherwise solves for the pencil factor M and the eigenvalue
    nearest the shift on each side (eigen_spectrum's nearest=1), all
    that perturbation_constants and rows() read.
    """
    system = assemble_system(spec, shift)
    gap_bound(system)
    return perturbation_constants(system, pert, eigen_spectrum(system, nearest=1))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationReport:
    """True relative eigenvalue deviations against every predicted bound.

    Deviations are measured in the shifted frame,
    |lam'_k - lam_k| / |lam_k - mu|, with eigenvalues of both systems
    paired in ascending order (identical to the order convention whenever
    both spectra put the same count on each side of the shift).
    ``bounds`` is the BoundsReport of the unperturbed model, whose
    certified spectrum is real, and ``checks`` its kappa constants
    against the signed deviations (BoundsReport.checks).  ``residuals``
    / ``residuals_perturbed`` bound sigma_min(Q(lam)) for ``eigenvalues``
    / ``eigenvalues_perturbed``, the real parts of the two spectra, under
    the model and the perturbed model (spectral._real_part_residuals).
    ``real_spectrum_perturbed`` says whether the perturbed spectrum is real.
    """

    eigenvalues: np.ndarray
    eigenvalues_perturbed: np.ndarray
    deviations: np.ndarray
    signed_deviations: np.ndarray
    max_deviation: float
    bounds: BoundsReport
    checks: tuple
    real_spectrum_perturbed: bool
    residuals: np.ndarray = field(repr=False)
    residuals_perturbed: np.ndarray = field(repr=False)


def verify_bounds(spec: ModelSpec, pert, shift: float = 0.0) -> VerificationReport:
    """Compare predicted bounds against the exactly computed spectra.

    Starts as bounds_report does, so ContractionNotLessThanOne is raised
    when b >= 1 before the perturbed model is built or anything is
    solved.  Then solves the perturbed spectrum at the same shift
    (general eigensolver with real parts where no -Q(mu) > 0 is proven
    for it), pairs eigenvalues in ascending order and checks each kappa
    constant against the deviations; both spectra are certified, for
    their residuals at the real parts (spectral._real_part_residuals).
    """
    system = assemble_system(spec, shift)
    gap_bound(system)
    rep = eigen_spectrum(system)
    bounds = perturbation_constants(system, pert, rep)
    spec_p = spec.perturbed(bounds.perturbation.delta_v)
    rep_p = eigen_spectrum(assemble_system(spec_p, shift))

    # both solver paths order by real part, so lam and lam_p line up
    # with each other and with the reports' residuals
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
        eigenvalues=lam,
        eigenvalues_perturbed=lam_p,
        deviations=devs,
        signed_deviations=signed,
        max_deviation=float(devs.max(initial=0.0)),
        bounds=bounds,
        checks=bounds.checks(signed),
        real_spectrum_perturbed=rep_p.is_real_spectrum,
        residuals=_real_part_residuals(rep),
        residuals_perturbed=_real_part_residuals(rep_p),
    )
