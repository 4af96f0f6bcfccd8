"""Model data (U^2, V), the contraction, and its Cholesky frame.

The model data is a positive definite ``u_squared`` and a symmetric
potential ``v`` of the same order n.  The spectrum of the 2n x 2n

    H  = [[U^(1/2) V U^(-1/2), U], [U, U^(-1/2) V U^(1/2)]]
    J  = [[0, I], [I, 0]]
    G  = J H    (symmetric)

is that of the quadratic Q(lam) = (lam - V)^2 - U^2.  In the frame
K = [[U^2, V], [V, I]] (Tisseur & Meerbergen, SIAM Rev. 43, 2001),
congruent to G through diag(U^(1/2), U^(-1/2)), the Cholesky factor
L L^T = U^2 and W = V - mu*I give

    K - mu*J = diag(L, I) [[I, A^T], [A, I]] diag(L^T, I),    A = W L^(-T)
             = [[I, W], [0, I]] diag(U^2 - W W, I) [[I, 0], [W, I]],

so the shifted form is positive definite whenever the contraction
b = ||A|| is below one, and exactly when -Q(mu) = U^2 - W W = M M^T
is (Sylvester's law of inertia).  Then K - mu*J = F F^T with
F = [[M, W], [0, I]], and H - mu is similar to the symmetric
T = F^T J F = [[0, M^T], [M, 2W]] (the spectral module solves it):
the eigenvalues of T are the lam - mu themselves.  A is the U-frame
(V - mu) U^(-1) times the orthogonal U L^(-T), so b and every norm
read through L are those of the U frame; only contraction's dense
route forms A (operator_a).

ModelSpec validates U^2 by its Cholesky factorization and the ends of
its spectrum, and keeps L, u_min = 1/||U^(-1)|| and u_max = ||U||,
shared with every spec derived with another potential.  It keeps each
matrix in the structure it has: a tridiagonal U^2 as its two
diagonals and L as a bidiagonal band (LAPACK's dpbtrf), so that
ModelSpec.l_solve is one banded solve (dtbtrs), and a diagonal V as
its diagonal, as on the 1D oscillator, whose harmonic_model builds
those bands alone; then T, with its unknowns interleaved, is
tridiagonal too, and no n x n array of the model is formed unless a
dense route reads one.  No power of U is formed: the two H-frame rows
of ``kg bounds`` read U^2's eigenbasis, ModelSpec.u2_eigenbasis (taken
from its two diagonals when it is tridiagonal), in which U^(+-1/2) are
diagonal.  KleinGordonSystem holds one shift, its b computed when first
read, and no A; shifted_potential and spectral_norm take stacks.

Every number the bounds rest on is an end of a symmetric spectrum (a
norm, the exact kappa pair, the sign of a mixed product, the bracket
and the values of the shift search) or the middle of one (the modes of
example 1 nearest the shift), and each has one route.  _eigenvalues
computes eigenvalues by index range, from order 32 up by one
tridiagonalization and a bisection per range; _extreme_eigenvalues
asks it for the ends.  _spectrum_ends reads the structure ModelSpec
records: a diagonal matrix's ends are its extreme entries, and those of
a tridiagonal one are bisected on its own diagonals
(_tridiagonal_eigenvalues).  contraction measures every b, bisecting
b^2 of a tridiagonal spec on O(n) factorizations from order 56 up
(_banded_contraction).  optimize_shift minimizes b by the subspace
method from order 32 up, with one full top eigenpair per step.
Everything here is desk-scale; all outputs are plain numpy arrays
inside frozen dataclasses and all functions are pure.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .exceptions import (
    DimensionMismatch,
    KGError,
    NotPositiveDefinite,
    ValidationError,
)

__all__ = [
    "ModelSpec",
    "KleinGordonSystem",
    "assemble_system",
    "contraction",
    "operator_a",
    "optimize_shift",
    "shifted_potential",
    "spectral_norm",
    "symmetrize",
]

#: relative symmetry slack: |a_ij - a_ji| <= SYMMETRY_RTOL * (1 + max|a|)
SYMMETRY_RTOL = 1e-12

#: a matrix counts as positive definite when min eig > PD_RTOL * ||m||
PD_RTOL = 1e-12

#: half the largest float: entries up to it cannot overflow a_ij +- a_ji
_HALF_MAX = float(np.finfo(float).max) / 2

#: entries whose squares neither overflow nor underflow; spectral_norm
#: scales a matrix outside this range by a power of two, which is exact
_GRAM_RANGE = (2.0**-500, 2.0**500)

#: the order from which partial or structured solves replace full dense
#: ones: subset eigenvalues (in place of numpy's eigvalsh computing all),
#: validation's bisection of a tridiagonal U^2 and the subspace shift
#: search.  Timed on the alpha = 0.3 oscillator (one OpenBLAS thread,
#: 2-core x86-64, best of 7), structured/dense in ms: U^2's two ends
#: 0.016/0.013 at n = 24 and 0.021/0.026 at 32; the shift search
#: 0.030/0.093 at n = 8 and 0.051/1.10 at 32, but on random dense models
#: (b in [0.05, 0.65]) 0.78/0.64 at 32 and 1.22/1.59 at 48, Brent's
#: method winning up to 32.  One order for all three keeps the outputs
#: of the orders in between as they are
_SUBSET_MIN_ORDER = 32

#: the order from which a tridiagonal spec's contraction is bisected on
#: its bands: on the alpha = 0.3 oscillator (one OpenBLAS thread, 2-core
#: x86-64) one b takes 94 us banded against 95 us dense at n = 56, and
#: at n = 48 dense wins
_BANDED_MIN_ORDER = 56

#: dsyevr leaves a matrix unscaled when its largest entry lies in
#: [_RMIN, _RMAX] (LAPACK's SMLNUM = safe minimum / precision)
_RMIN = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)
_RMAX = min(1.0 / _RMIN, 1.0 / math.sqrt(math.sqrt(np.finfo(float).tiny)))


def _unit_exponent(largest) -> int:
    """The e that scales a largest entry below 1 by 2^-e, or 0 inside [_RMIN, _RMAX].

    Only a matrix whose largest entry lies outside [_RMIN, _RMAX] is
    scaled; inside it dsyevr would leave it as it is.
    """
    if largest > 0.0 and not _RMIN <= largest <= _RMAX:
        return int(np.frexp(largest)[1])
    return 0


def _unit_scaled(s):
    """(s / 2^e, e), e = _unit_exponent of s's largest entry; exact."""
    exponent = _unit_exponent(max(s.max(), -s.min()))
    return (np.ldexp(s, -exponent), exponent) if exponent else (s, 0)


def _eigenvalues(s, ranges, *, overwrite: bool = False):
    """Eigenvalues of a symmetric matrix by 1-based index ranges.

    ``ranges`` holds disjoint ascending ranges (il, iu) of the indices
    1..n, an empty one being (il, il - 1).  Returns the requested
    eigenvalues ascending, as an array (..., m) for a matrix or a stack
    (..., n, n), m their number; they are those of the lower triangles.
    Below _SUBSET_MIN_ORDER, or when no eigenvalue or every one is asked
    for, one matrix (also a stack of one) goes straight to LAPACK's
    dsyevd, which costs a third of numpy's eigvalsh call at n = 2, and a
    stack of several through eigvalsh as one call; the ranges are sliced
    from that whole spectrum.  From _SUBSET_MIN_ORDER up, each matrix
    takes dsyevr's own partial-range path, step for step: one blocked
    dsytrd with the workspace dsyevr hands it and one dstebz bisection
    per non-empty range (_bisect), so the results are those of
    dsyevr(range="I") bit for bit whenever dsyevr leaves the matrix
    unscaled.  A matrix it would scale is scaled by a power of two
    instead (_unit_scaled): dsyevr scales to the edge of [_RMIN, _RMAX],
    where dstebz splits the tridiagonal at off-diagonals whose squares
    underflow and loses digits (7e-14 of ||s|| on a clustered matrix
    scaled by 1e-150).  There a non-finite entry raises KGError.  With
    ``overwrite``, for a temporary the caller owns and never for a spec's
    array, LAPACK reduces s (or its scaled copy) in place where it is in
    Fortran order, so no other copy is made; the eigenvalues are the
    same floats.
    """
    n = s.shape[-1]
    if s.ndim > 2 and (s.size == n * n or n >= _SUBSET_MIN_ORDER):
        matrices = s.reshape(-1, n, n)
        rows = [_eigenvalues(a, ranges, overwrite=overwrite) for a in matrices]
        return np.reshape(rows, s.shape[:-2] + rows[0].shape)
    if n < _SUBSET_MIN_ORDER or sum(iu - il + 1 for il, iu in ranges) in (0, n):
        if n == 1:
            w = s[..., 0, :].copy()
        elif s.ndim > 2:
            w = np.linalg.eigvalsh(s)
        else:
            w, _, info = lapack.dsyevd(s, compute_v=0, lower=1, overwrite_a=overwrite)
            if info != 0:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        if len(ranges) == 1:
            return w[..., ranges[0][0] - 1 : ranges[0][1]]
        return np.concatenate([w[..., il - 1 : iu] for il, iu in ranges], axis=-1)
    if not np.isfinite(s).all():
        raise KGError(f"a symmetric matrix of order {n} has a non-finite entry")
    s, exponent = _unit_scaled(s)
    # dsyevr's optimal workspace less the 5n it keeps for itself: with
    # less, dsytrd reduces unblocked and rounds differently
    lwork = int(lapack.dsyevr_lwork(n, lower=1)[0]) - 5 * n
    _, d, e, _, _ = lapack.dsytrd(s, lower=1, lwork=lwork, overwrite_a=overwrite)
    return np.ldexp(_bisect(d, e, ranges), exponent)


def _extreme_eigenvalues(s, low: int, high: int, *, overwrite: bool = False):
    """The low smallest and high largest eigenvalues of a symmetric matrix.

    _eigenvalues of the index ranges 1..low and n-high+1..n, or of every
    index when the two ends meet, so each eigenvalue comes once: an
    array (..., m), m = min(low + high, n), for a matrix or a stack.
    ``overwrite`` as _eigenvalues'.
    """
    n = s.shape[-1]
    if low + high >= n:
        return _eigenvalues(s, ((1, n),), overwrite=overwrite)
    top = ((n - high + 1, n),)
    return _eigenvalues(s, ((1, low),) + top if low else top, overwrite=overwrite)


def _bisect(d, e, ranges):
    """Eigenvalues of the symmetric tridiagonal matrix (d, e) by index range.

    ``ranges`` holds 1-based ascending index ranges (il, iu); each
    non-empty one takes one dstebz bisection, and the eigenvalues come
    out ascending within each range and concatenated in the order of
    ``ranges``.
    """
    found = []
    for il, iu in ranges:
        if il <= iu:
            _, w, _, _, info = lapack.dstebz(d, e, 2, 0.0, 0.0, il, iu, 0.0, "E")
            if info != 0:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            found.append(w[: iu - il + 1])
    return np.concatenate(found)


def _tridiagonal_eigenvalues(d, e, ranges):
    """_bisect on the tridiagonal (d, e) scaled as _unit_scaled scales a matrix.

    A matrix that is tridiagonal already needs no dsytrd: the one
    dsytrd would return is the matrix itself (its Householder vectors
    vanish), so from _SUBSET_MIN_ORDER up this is _eigenvalues bit for bit.
    """
    largest = max(np.abs(d).max(), np.abs(e).max(initial=0.0))
    exponent = _unit_exponent(largest)
    if exponent:
        d, e = np.ldexp(d, -exponent), np.ldexp(e, -exponent)
    return np.ldexp(_bisect(d, e, ranges), exponent)


def spectral_norm(a):
    """Largest singular value of a dense matrix, without an SVD.

    Returns sqrt(max(lambda_max(a^T a), 0)), the Gram matrix taken on
    the smaller side of a.  The top eigenvalue of a Gram matrix has
    O(eps) relative error, so this agrees with the SVD to rounding; the
    clamp keeps the norm of a zero matrix at exactly 0.0.  A matrix whose
    largest entry lies outside _GRAM_RANGE is first scaled to one near 1
    by a power of two, so the Gram matrix neither overflows nor
    underflows; a norm beyond the float range is inf, and a matrix with
    a non-finite entry has that entry's modulus (inf or nan) as norm.
    A stack (..., m, n) gives the array of its matrices' norms, each
    scaled on its own.
    """
    a = np.asarray(a, dtype=float)
    stack = a.shape[:-2]
    if a.size == 0:
        return np.zeros(stack) if stack else 0.0
    largest = np.abs(a).max(axis=(-2, -1))
    lo, hi = _GRAM_RANGE
    if stack:
        rescale = not (lo <= largest.min() and largest.max() <= hi)
    else:
        rescale = not lo <= largest <= hi
    if rescale:
        # also taken by a zero matrix, which keeps exponent 0
        finite = np.isfinite(largest)
        outside = ~((largest >= lo) & (largest <= hi) | (largest == 0.0))
        exponent = np.where(outside & finite, np.frexp(largest)[1], 0)
        a = np.where(finite[..., None, None], a, 0.0)
        a = np.ldexp(a, -exponent[..., None, None])
    at = a.swapaxes(-1, -2)
    gram = at @ a if a.shape[-2] >= a.shape[-1] else a @ at
    top = _extreme_eigenvalues(gram, 0, 1)[..., -1]
    top = top if stack else float(top)
    if not rescale:
        return np.sqrt(np.maximum(top, 0.0)) if stack else math.sqrt(max(top, 0.0))
    norm = np.sqrt(np.maximum(top, 0.0))
    with np.errstate(over="ignore"):
        norm = np.where(finite, np.ldexp(norm, exponent), largest)
    return norm if stack else float(norm)


def _spectrum_ends(a, bands=None, *, overwrite: bool = False) -> tuple:
    """(lowest, highest) eigenvalue of a symmetric matrix, as floats.

    Reads the structure a ModelSpec records and searches for none: a
    1-D ``a`` is the diagonal of a diagonal matrix, whose ends are its
    extreme entries, exactly; with ``bands``, the two diagonals of a
    tridiagonal matrix (``a`` itself, or None), they are bisected alone
    from _SUBSET_MIN_ORDER up (_tridiagonal_eigenvalues); else
    _extreme_eigenvalues(a, 1, 1), on a formed from ``bands`` when it is
    None, the same floats where dsyevd does not scale a, reducing a in
    place with ``overwrite`` (_eigenvalues).
    """
    if a is not None and a.ndim == 1:
        return float(a.min()), float(a.max())
    n = a.shape[-1] if a is not None else len(bands[0])
    if bands is not None and n >= _SUBSET_MIN_ORDER:
        ends = _tridiagonal_eigenvalues(*bands, ((1, 1), (n, n)))
    else:
        if a is None:
            a, overwrite = _tridiagonal_matrix(*bands), True
        ends = _extreme_eigenvalues(a, 1, 1, overwrite=overwrite)
    return float(ends[0]), float(ends[-1])


def _symmetric_norm(a) -> float:
    """||a|| of a finite symmetric matrix, without a Gram matrix.

    The larger modulus of the two ends of its spectrum (_spectrum_ends;
    max |a_ii| exactly for a 1-D a, the diagonal of a diagonal matrix);
    inf beyond the float range, with no warning.
    """
    with np.errstate(over="ignore"):
        lowest, highest = _spectrum_ends(a)
    return max(abs(lowest), abs(highest))


def symmetrize(a):
    """Average a matrix with its transpose to suppress rounding drift."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def _as_square(a, name: str):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def check_symmetric(a, name: str = "matrix"):
    """Validate approximate symmetry and return the symmetrized copy.

    Entries so large that a_ij + a_ji overflows leave the copy
    non-finite, and are rejected as such; below _HALF_MAX no sum or
    difference of two entries can overflow, and the copy is finite.
    """
    a = _as_square(a, name)
    largest = np.abs(a).max() if a.size else 0.0
    if largest <= _HALF_MAX:
        _check_drift(a, largest, name)
        return symmetrize(a)
    with np.errstate(over="ignore"):
        _check_drift(a, largest, name)
        return _as_square(symmetrize(a), name)


def _check_drift(a, largest, name: str):
    """ValidationError when max |a_ij - a_ji| exceeds SYMMETRY_RTOL * (1 + largest)."""
    scale = 1.0 + largest
    drift = np.abs(a - a.T).max() if a.size else 0.0
    if drift > SYMMETRY_RTOL * scale:
        raise ValidationError(
            f"{name} is not symmetric: max |a_ij - a_ji| = {drift:.3e} "
            f"exceeds {SYMMETRY_RTOL * scale:.3e}"
        )


class ModelSpec:
    """The model pair (U^2, V), kept in the structure it has.

    ``u_squared`` must be positive definite and of the same order as the
    symmetric potential ``v``; both are validated, and the spec is
    immutable, its arrays read-only copies.  Validation keeps the lower
    Cholesky factor L L^T = U^2 and the ends of the spectrum of U as
    ``u_min`` and ``u_max`` = ||U||.  A tridiagonal U^2 (the 1D
    oscillator's) is kept as ``u2_bands``, its diagonal and
    off-diagonal, and L as LAPACK's lower band of its two diagonals
    (dpbtrf); the ends are then bisected on those diagonals alone from
    _SUBSET_MIN_ORDER up.  Any other U^2 is kept dense, with its dense L
    (dpotrf), and ``u2_bands`` is None.  A diagonal V is kept as
    ``v_band``, its diagonal, any other dense, with ``v_band`` None;
    ``v_stored`` is V as kept.  ModelSpec.from_bands takes those bands
    directly, as harmonic_model does, and no n x n array is made.

    The dense ``u_squared`` and ``v`` given to the constructor are kept
    as given; the dense ``u_squared``, ``v`` and ``cholesky`` of a spec
    that keeps bands, and ``u2_eigenbasis``, are formed when first read,
    and kept.  Specs derived by ``with_potential`` or ``perturbed``
    share the U^2 data: the bands, L, u_min, u_max, and whatever of it
    was formed before the copy; V is validated and its structure
    recorded for each.
    """

    def __init__(self, u_squared, v, label: str = ""):
        u2 = check_symmetric(u_squared, "u_squared")
        v = _symmetric_of_order(v, u2.shape[0], "v")
        self._keep_u_squared(u2, _tridiagonal_bands(u2))
        self._keep_potential(v)
        self.__dict__["label"] = label

    @classmethod
    def from_bands(cls, u2_diagonal, u2_off_diagonal, v_diagonal, label: str = ""):
        """The spec of a tridiagonal U^2 and a diagonal V, given by their bands.

        U^2 has the diagonal u2_diagonal and the off-diagonal
        u2_off_diagonal, and V = diag(v_diagonal).  They are validated
        as the constructor validates the dense pair, with the
        same errors, and no n x n array is formed from order
        _SUBSET_MIN_ORDER up (below it the ends of U^2's spectrum are
        those of a dense temporary).
        """
        bands = (
            _checked_band(u2_diagonal, "u_squared"),
            _checked_band(u2_off_diagonal, "u_squared"),
        )
        v = _checked_band(v_diagonal, "v")
        n = len(bands[0])
        if len(bands[1]) != n - 1 or len(v) != n:
            raise DimensionMismatch(
                f"bands of lengths {n}, {len(bands[1])} and {len(v)} "
                "do not make a tridiagonal U^2 and a diagonal V of one order"
            )
        spec = cls.__new__(cls)
        spec._keep_u_squared(None, bands)
        spec._keep_potential(v)
        spec.__dict__["label"] = label
        return spec

    def _keep_u_squared(self, dense, bands):
        """Validate U^2 (dense, its bands or both) as positive definite and keep it."""
        lowest, highest = _spectrum_ends(dense, bands)
        norm = max(abs(lowest), abs(highest))
        if bands is None:
            factor, info = lapack.dpotrf(dense, lower=1, clean=1)
        else:
            factor, info = lapack.dpbtrf(_lower_band(*bands), lower=1, overwrite_ab=1)
        if info != 0 or lowest <= PD_RTOL * norm or lowest <= 0.0:
            raise NotPositiveDefinite(
                f"u_squared is not positive definite: min eigenvalue {lowest:.3e} "
                f"(tolerance {PD_RTOL * norm:.3e})"
            )
        _read_only(factor)
        self.__dict__.update(
            u2_bands=bands,
            u_min=math.sqrt(lowest),
            u_max=math.sqrt(highest),
            _order=len(bands[0]) if bands else dense.shape[0],
            _l_band=factor if bands else None,
        )
        # a dense U^2 given, and a dense L, are kept as attributes
        if dense is not None:
            self.__dict__["u_squared"] = _read_only(dense)
        if not bands:
            self.__dict__["cholesky"] = factor

    def _keep_potential(self, v):
        """Keep a validated V (a 1-D v is the diagonal of a diagonal V)."""
        self.__dict__.pop("v", None)   # a copy's, formed for another V
        if v.ndim == 2:
            self.__dict__["v"] = _read_only(v)
            if _is_diagonal(v):
                v = v.diagonal().copy()
        self.__dict__["v_band"] = _read_only(v) if v.ndim == 1 else None

    def __setattr__(self, name, value):
        raise AttributeError(f"ModelSpec is immutable: cannot set {name}")

    @property
    def order(self) -> int:
        return self._order

    @property
    def tridiagonal(self) -> bool:
        """Whether U^2 is tridiagonal and V diagonal, so every W = t V - mu is."""
        return self.u2_bands is not None and self.v_band is not None

    @property
    def v_stored(self):
        """V as kept: v_band for a diagonal V, else the dense matrix."""
        return self.v_band if self.v_band is not None else self.v

    # the dense forms are read as plain attributes once kept: given to
    # the constructor, or formed by these on first read

    @functools.cached_property
    def u_squared(self):
        """U^2 as a dense matrix; one kept as bands is formed on first read."""
        return _read_only(_tridiagonal_matrix(*self.u2_bands))

    @functools.cached_property
    def v(self):
        """V as a dense matrix; one kept as its diagonal is formed on first read."""
        return _read_only(np.diag(self.v_band))

    @functools.cached_property
    def cholesky(self):
        """L as a dense lower triangular matrix; a band is formed on first read."""
        return _read_only(_band_matrix(self._l_band))

    def l_solve(self, b):
        """L^(-1) b for a matrix or a stack (..., n, m) of them, b finite.

        One triangular solve for all columns at once: banded (LAPACK's
        dtbtrs, O(n) per column) for a tridiagonal U^2, else dense
        (dtrtrs).  An entry beyond the float range comes out inf, with no
        warning.  Every entry of L^(-1) b_j is at most ||L^(-1)|| ||b_j|| <=
        r max|b|, r = sqrt(n) / u_min, and each partial sum of the
        substitution at most max|b| + ||L|| r max|b|, ||L|| = u_max.
        When the larger bound reaches 2^1020, b is solved scaled by a
        power of two and the solution scaled back, so an overflow gives
        inf, never the nan of 0 * inf or inf - inf.
        """
        columns = np.moveaxis(np.asarray(b, dtype=float), -2, 0)
        rhs = columns.reshape(self.order, -1)
        r = math.sqrt(self.order) / self.u_min
        growth = max(r, 1.0 + self.u_max * r)
        largest = np.abs(rhs).max(initial=0.0)
        scale = max(math.frexp(largest)[1] + math.frexp(growth)[1] - 1020, 0)
        if scale:
            rhs = np.ldexp(rhs, -scale)
        if self.u2_bands is not None:
            x = lapack.dtbtrs(self._l_band, rhs, uplo="L")[0]
        else:
            x = lapack.dtrtrs(self.cholesky, rhs, lower=1)[0]
        if scale:
            with np.errstate(over="ignore"):
                x = np.ldexp(x, scale)
        return np.moveaxis(x.reshape(columns.shape), 0, -2)

    @functools.cached_property
    def u2_band_maxima(self) -> tuple:
        """(max_i u_ii, max_i |u_i,i+1|) of a tridiagonal U^2, read once: the
        slack of the spectral module's banded certificate (_proven_definite)."""
        d, e = self.u2_bands
        return float(d.max()), float(np.abs(e).max(initial=0.0))

    @functools.cached_property
    def u2_eigenbasis(self):
        """(d, E): U^2 = E diag(d^4) E^T, E orthogonal, read-only.

        U^(+-1/2) = E diag(d^(+-1)) E^T, so a product with either is a
        diagonal scaling in the basis E, and no power of U is formed.
        A tridiagonal U^2 from order 2 up (SciPy's dstevd takes no empty
        off-diagonal) is decomposed from its two diagonals, else densely:
        dstevd takes 0.7 us against eigh's 3.8 at n = 2, 24 against 30
        at 32, 82 against 156 at 64 and 508 against 1049 at 160 (one
        OpenBLAS thread, 2-core x86-64).
        """
        if self.u2_bands is not None and self.order > 1:
            w, e, info = lapack.dstevd(*self.u2_bands)
            if info != 0:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        else:
            w, e = np.linalg.eigh(self.u_squared)
        return _read_only(np.sqrt(np.sqrt(w))), _read_only(e)

    def perturbed(self, delta_v) -> "ModelSpec":
        """A new spec with the potential replaced by v + delta_v."""
        delta_v = _symmetric_of_order(delta_v, self.order, "delta_v")
        label = f"{self.label}+perturbation" if self.label else ""
        # a diagonal V is added as a temporary, and no dense V is kept
        v = self.__dict__.get("v")
        if v is None:
            v = np.diag(self.v_band)
        return self.with_potential(v + delta_v, label)

    def with_potential(self, v, label: str) -> "ModelSpec":
        """A spec with potential v sharing this spec's validated U^2 data.

        Only v is validated (symmetry and order): a symmetric matrix, or
        a 1-D array, the diagonal of a diagonal V, checked as
        from_bands checks it.
        """
        if np.ndim(v) == 1:
            v = _checked_band(v, "v")
            if len(v) != self.order:
                raise DimensionMismatch(f"v has order {len(v)}, expected {self.order}")
        else:
            v = _symmetric_of_order(v, self.order, "v")
        spec = copy.copy(self)
        spec._keep_potential(v)
        spec.__dict__["label"] = label
        return spec


def _read_only(a):
    """a, made read-only."""
    a.setflags(write=False)
    return a


def _checked_band(a, name: str):
    """A read-only copy of a band of a symmetric matrix ``name``, checked as
    check_symmetric checks the matrix: non-finite entries, or entries so
    large that a_ij + a_ji overflows, raise ValidationError."""
    a = np.array(a, dtype=float)
    with np.errstate(over="ignore"):
        if not np.isfinite(a + a).all():
            raise ValidationError(f"{name} contains non-finite entries")
    return _read_only(a)


def _lower_band(d, e):
    """The symmetric tridiagonal (d, e) in LAPACK's lower band storage, (2, n)."""
    band = np.zeros((2, len(d)))
    band[0] = d
    band[1, :-1] = e
    return band


def _band_matrix(band):
    """The dense lower bidiagonal matrix of a lower band (2, n)."""
    n = band.shape[1]
    m = np.diag(band[0])
    m[np.arange(1, n), np.arange(n - 1)] = band[1, :-1]
    return m


def _tridiagonal_matrix(d, e):
    """The dense symmetric tridiagonal matrix of the diagonals (d, e)."""
    m = np.diag(d)
    below = (np.arange(1, len(d)), np.arange(len(d) - 1))
    m[below] = e
    m[below[::-1]] = e
    return m


def _is_diagonal(a) -> bool:
    """Whether every nonzero entry of a square matrix lies on its diagonal."""
    return np.count_nonzero(a) == np.count_nonzero(a.diagonal())


def _tridiagonal_bands(a):
    """(diagonal, off-diagonal) of a symmetric matrix that is tridiagonal, else None.

    Read-only copies; a is tridiagonal when it has no nonzero entry but
    those of its three diagonals, which its symmetry lets one count.
    """
    d, e = a.diagonal().copy(), a.diagonal(-1).copy()
    if np.count_nonzero(a) != np.count_nonzero(d) + 2 * np.count_nonzero(e):
        return None
    return _read_only(d), _read_only(e)


def _symmetric_of_order(a, order: int, name: str):
    """The symmetrized copy of a, which must be symmetric of the given order."""
    a = check_symmetric(a, name)
    if a.shape[0] != order:
        raise DimensionMismatch(f"{name} has order {a.shape[0]}, expected {order}")
    return a


@dataclass(frozen=True)
class KleinGordonSystem:
    """One model and shift: the contraction data.

    Fields
    ------
    shift : the real spectral shift mu
    spec : the source model

    ``contraction`` is b = ||A||, A = (V - mu) L^(-T) (operator_a), from
    core.contraction (bisected on U^2's diagonals on the banded route),
    computed on first read and kept.  No spectrum is routed on it
    (spectral._proven_definite proves -Q(mu) > 0 instead): ``kg spectrum``
    and ``kg sweep`` compute no b, ``kg bounds`` and ``kg verify`` one.
    """

    shift: float
    spec: ModelSpec = field(repr=False)

    @functools.cached_property
    def contraction(self) -> float:
        return contraction(self.spec, self.shift)


def shifted_potential(spec: ModelSpec, shift: float = 0.0, couplings=None):
    """W = V - shift*I as a new dense array, or the stack of W = t V - shift*I.

    With ``couplings`` (k values of t) the result has shape (k, n, n).
    The shift comes off the diagonal of V itself, before any product,
    so a potential far from the origin loses no digits to a later
    cancellation.  A dense route's reader: it reads the dense V.
    """
    n = spec.order
    if couplings is None:
        w = np.array(spec.v)
    else:
        w = np.multiply.outer(np.asarray(couplings, dtype=float), spec.v)
    w.reshape(-1, n * n)[:, :: n + 1] -= shift
    return w


def operator_a(spec: ModelSpec, shift: float = 0.0):
    """A = (V - shift*I) L^(-T), L L^T = U^2.

    A is the U-frame (V - shift*I) U^(-1) times the orthogonal U L^(-T),
    so it has the same singular values.  An entry beyond the float range
    is inf or nan (ModelSpec.l_solve), with no warning: b = ||A|| is then
    inf or nan, and kg bounds rejects either, as not b < 1.
    """
    return spec.l_solve(shifted_potential(spec, shift)).T


def contraction(spec: ModelSpec, shift: float = 0.0) -> float:
    """b = ||(V - shift*I) U^(-1)||: the one route to the contraction.

    Of spec's own potential (a coupling t's is spec.with_potential(t V)'s):
    bisected on U^2's two diagonals (_banded_contraction) for a
    tridiagonal spec from order _BANDED_MIN_ORDER up, else the norm of
    the dense A (operator_a), whose Gram matrix is A^T A.  No spectrum is
    routed on b: ``kg bounds``, ``kg verify``'s unperturbed model and
    examples 1 and 2 read it, where it is printed or enters a constant.
    """
    if spec.tridiagonal and spec.order >= _BANDED_MIN_ORDER:
        return _banded_contraction(spec, spec.v_band - shift)
    return spectral_norm(operator_a(spec, shift))


def _banded_contraction(spec: ModelSpec, w) -> float:
    """b = ||L^(-1) W|| for the diagonal w (n,) of a diagonal W.

    U^2 is tridiagonal (spec.u2_bands), and b^2 is the largest eigenvalue
    of the definite banded pencil (W^2, U^2): U^2 - W^2 / s is positive
    definite exactly when s > b^2 (Peters & Wilkinson, Comput. J. 12,
    1969).  LAPACK's dpttrf factors a tridiagonal matrix as L D L^T in
    O(n) and succeeds exactly when every pivot is positive, so b^2 is
    bisected on its success for U^2 - W^2 / s, from the bracket
    [0, 2 max w^2 / u_min^2] (twice the bound b <= max |w| / u_min, so
    that dpttrf passes at its top however u_min is rounded) down to two
    adjacent floats; b = sqrt(top of the final bracket).
    U^2 is scaled by 4^-j, ||U^2|| near 1, and each W by 2^-k, its
    largest |w| in [1/2, 1), so nothing in the search overflows, and b
    is the scaled result times 2^(k - j), exactly: inf beyond the float
    range, never nan, with no warning.  W = 0 gives b = 0.0, and a
    non-finite W its largest |w|.

    Only the diagonal is formed, so U^2's off-diagonal enters exactly
    (s U^2 - W^2, with s U^2 rounded, loses up to ten times more on the
    oscillator).  The computed pivots of dpttrf are exact for the formed
    matrix with off-diagonals changed by at most 0.75 eps relative, and
    forming the diagonal changes it by at most eps/2 (u_ii + 3 w_i^2 / s),
    so each test is exact for U^2 - W^2 / s + E, ||E|| <= 0.75 eps
    (r + 2 max w^2 / s), r = max_i sum_j |U^2_ij|; E moves b^2 by at most
    ||E|| b^2 / u_min^2 relative, and max w^2 <= ||U^2|| b^2.  With the
    final bracket's width and the square root, to first order in eps:

        |b^2 - b_exact^2| <= 3 eps (1 + r / u_min^2) b^2.
    """
    largest = float(np.abs(w).max(initial=0.0))
    if largest == 0.0 or not math.isfinite(largest):
        return largest   # 0, inf or nan
    d, e = spec.u2_bands
    j = math.frexp(spec.u_max)[1]
    d, e = np.ldexp(d, -2 * j), np.ldexp(e, -2 * j)
    u_min2 = math.ldexp(spec.u_min, -j) ** 2
    k = math.frexp(largest)[1]
    w2 = np.square(np.ldexp(w, -k))
    lo, hi = 0.0, 2.0 * float(w2.max()) / u_min2
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if lapack.dpttrf(d - w2 / mid, e, overwrite_d=1)[2] == 0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(hi), k - j))


def assemble_system(spec: ModelSpec, shift: float = 0.0) -> KleinGordonSystem:
    """The contraction data of one model and shift; its b = contraction(spec,
    shift) is computed when first read (KleinGordonSystem.contraction).

    Neither G nor H is formed: the definite pencil is solved from
    (U^2, V - shift*I) alone, and the direct path from the root-free
    companion form of the spectral module.
    """
    return KleinGordonSystem(shift=float(shift), spec=spec)


#: (3 - sqrt(5)) / 2, the golden-section fraction of Brent's fallback step
_GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))

#: sqrt(machine epsilon): a smooth minimum is resolved to this relative width
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))

#: optimize_shift resolves its minimizer to this fraction of its bracket's
#: width, or of 1 when the bracket is wider, plus sqrt(eps) relative
SHIFT_RTOL = 1e-10

#: the subspace search stops when its best b^2 and the projected minimum
#: agree to this, relative to b^2
_SUBSPACE_RTOL = 4.0 * np.finfo(float).eps

#: the subspace search returns its best shift after this many full solves
_SUBSPACE_MAX_SOLVES = 24

#: optimize_shift scales the potential unless er + eu + max(er, 0) is at
#: most this, where r < 2^er is its bracket's reach and ||U^(-1)|| < 2^eu:
#: then its matrices and Brent's products stay below 2^1006
_UNSCALED_EXPONENT = 500


def _brent_minimize(f, lo: float, hi: float, tol: float) -> float:
    """A minimizer of f on [lo, hi] by Brent's method.

    Parabolic interpolation through the three best points, with a
    golden-section step whenever the parabola is not trusted; stops when
    the bracket around the best point x is within
    2 (sqrt(eps) |x| + tol/3) of it (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5; the fmin of Forsythe,
    Malcolm & Moler, 1977).  Converges for every unimodal f.
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            # the parabola's vertex, when it lies in the bracket and the
            # step is under half the one before last
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if x <= m else -tol1
        if not parabolic:
            e = (a if x >= m else b) - x
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d >= 0.0 else -tol1)
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _quadratic_top(b2, b1, b0, mu: float) -> float:
    """lambda_max(B2 - 2 mu B1 + mu^2 B0): b(mu)^2, or its projection."""
    return float(_extreme_eigenvalues(b2 - (2.0 * mu) * b1 + (mu * mu) * b0, 0, 1)[0])


def _top_eigenpair(s):
    """Largest eigenvalue and a unit eigenvector of a symmetric matrix.

    LAPACK's dsyevr for the one top index, with its optimal workspace,
    on the matrix scaled as _extreme_eigenvalues scales it: the
    eigenvalue is _extreme_eigenvalues(s, 0, 1) bit for bit.  Only the
    lower triangle enters the eigenpair.
    """
    n = s.shape[0]
    s, exponent = _unit_scaled(s)
    lwork, liwork, _ = lapack.dsyevr_lwork(n, lower=1)
    w, z, _, _, info = lapack.dsyevr(
        s, range="I", il=n, iu=n, lower=1, lwork=int(lwork), liwork=liwork
    )
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return math.ldexp(w[0], exponent), z[:, 0]


def _subspace_minimize(b2, b1, b0, lo: float, hi: float, tol: float) -> float:
    """A minimizer of f(mu) = lambda_max(B2 - 2 mu B1 + mu^2 B0) on [lo, hi].

    The subspace method for eigenvalue optimization (Kangal, Meerbergen,
    Mengi & Michiels, SIAM J. Matrix Anal. Appl. 39, 2018): each full
    solve at a shift adds the top eigenvector there to an orthonormal
    basis Q, and the next shift minimizes the projected
    f_Q(mu) = lambda_max(Q^T (B2 - 2 mu B1 + mu^2 B0) Q) by Brent's
    method to the width tol.  f_Q <= f everywhere, so min f_Q is a lower
    bound on min f, and the search stops, returning the best shift
    solved at, once its f and min f_Q agree to _SUBSPACE_RTOL relative;
    it starts at the centre of the bracket and makes at most
    _SUBSPACE_MAX_SOLVES full solves.
    """

    mu = 0.5 * (lo + hi)
    best, best_mu = math.inf, mu
    vectors = []
    for _ in range(_SUBSPACE_MAX_SOLVES):
        value, vector = _top_eigenpair(b2 - (2.0 * mu) * b1 + (mu * mu) * b0)
        if value < best:
            best, best_mu = value, mu
        vectors.append(vector)
        q = np.linalg.qr(np.column_stack(vectors))[0]
        p2, p1, p0 = (q.T @ b @ q for b in (b2, b1, b0))
        projected = functools.partial(_quadratic_top, p2, p1, p0)
        if len(vectors) == 1:
            # a scalar quadratic in mu, with p0 = q^T B0 q > 0
            mu = min(max(float(p1[0, 0] / p0[0, 0]), lo), hi)
        else:
            mu = _brent_minimize(projected, lo, hi, tol)
        if best - projected(mu) <= _SUBSPACE_RTOL * best:
            break
    return best_mu


def optimize_shift(spec: ModelSpec):
    """Minimize mu -> b(mu) = ||(V - mu) U^(-1)|| over the shift.

    With Bk = L^(-1) V^k L^(-T), L L^T = U^2, formed once,

        b(mu)^2 = lambda_max(B2 - 2 mu B1 + mu^2 B0),

    so each evaluation is the top eigenvalue of one symmetric n x n
    matrix.  b is the norm of an affine matrix function of mu, hence
    convex, and so is b^2, on the bracket
    [min eig V - ||U||, max eig V + ||U||].  Below _SUBSET_MIN_ORDER
    Brent's method minimizes b^2 itself; from that order up the
    subspace method (_subspace_minimize) does, with one full solve per
    step, and Brent's method only its projected problems.  Either
    resolves the minimizer to SHIFT_RTOL of the bracket's width (of 1
    on a wider bracket) plus sqrt(eps) relative.  Returns the shift;
    its contraction is assemble_system(spec, shift).contraction.

    On the bracket, with r = max |bracket end|, the evaluated matrix and
    each of its three terms is at most 4 (r ||L^(-1)||)^2 in norm, and
    the products in Brent's steps at most 16 r^2 times the largest
    value.  When either could overflow, the search runs on the
    potential V / 2^k instead, with 2^k > r max(||L^(-1)||, 1):
    b(mu) = 2^k b_k(mu / 2^k), b_k the contraction of (U^2, V / 2^k),
    so the minimizer of b_k, scaled back by 2^k, is the shift.
    Otherwise k = 0 and the search is unscaled.  ||L^(-1)|| = 1/u_min
    is ||U^(-1)||, and each Bk is the U-frame U^(-1) V^k U^(-1)
    conjugated by the orthogonal U L^(-T), so b(mu) is unchanged.
    """
    v = spec.v_stored
    v_min, v_max = _spectrum_ends(v)
    lo, hi = v_min - spec.u_max, v_max + spec.u_max
    # r < 2^er and ||L^(-1)|| < 2^eu: the matrices stay below
    # 2^(2 (er + eu) + 2) in norm and Brent's products below 2^(4 er + 2 eu + 6)
    er = math.frexp(max(-lo, hi))[1]
    eu = math.frexp(1.0 / spec.u_min)[1]
    k = 0 if er + eu + max(er, 0) <= _UNSCALED_EXPONENT else er + max(eu, 0)
    v = np.ldexp(v, -k) if k else v
    l_inv = spec.l_solve(np.eye(spec.order))
    # L^(-1) V: a diagonal V scales the columns of L^(-1)
    l_inv_v = l_inv * v if v.ndim == 1 else spec.l_solve(v)
    b2 = l_inv_v @ l_inv_v.T
    b1 = symmetrize(spec.l_solve(l_inv_v.T))
    b0 = l_inv @ l_inv.T
    lo, hi = math.ldexp(lo, -k), math.ldexp(hi, -k)
    # relative to the bracket, so that a potential of small scale is
    # resolved; on a wide bracket sqrt(eps) |mu| soon dominates
    tol = SHIFT_RTOL * min(hi - lo, 1.0)
    if spec.order >= _SUBSET_MIN_ORDER:
        return math.ldexp(_subspace_minimize(b2, b1, b0, lo, hi, tol), k)
    b_squared = functools.partial(_quadratic_top, b2, b1, b0)
    return math.ldexp(_brent_minimize(b_squared, lo, hi, tol), k)
