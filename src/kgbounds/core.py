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
b = ||A|| is below one, and exactly when -Q(mu) = U^2 - W W is
(Sylvester's law of inertia); the spectral module solves in that frame.
A is the U-frame (V - mu) U^(-1) times the orthogonal U L^(-T), so b
and every norm read through L are those of the U frame.

ModelSpec validates U^2 by its Cholesky factorization and the ends of
its spectrum, and keeps L, u_min = 1/||U^(-1)|| and u_max = ||U||,
shared with every spec derived with another potential.  The only root
of U ever formed is the pair U^(+-1/2) of ModelSpec.half_roots, for two
H-frame rows of ``kg bounds``.  KleinGordonSystem stores the
contraction data of one shift; shifted_potential and spectral_norm
take stacks.

Every number the bounds rest on is an end of a symmetric spectrum: a
norm, the exact kappa pair, the sign of a mixed product, the bracket
and the values of the shift search, the modes of example 1 nearest the
shift.  _extreme_eigenvalues computes the requested ends alone, from
order 32 up by one tridiagonalization and a bisection per end, and
optimize_shift minimizes b by the subspace method from that order up,
with one full top eigenpair per step.  Everything here is dense and
desk-scale; all outputs are plain numpy arrays inside frozen
dataclasses and all functions are pure.
"""

from __future__ import annotations

import copy
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
    "operator_a",
    "optimize_shift",
    "apply_j",
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

#: from this order up, one tridiagonalization and bisection for the
#: requested eigenvalues alone beat numpy's eigvalsh computing all of them
_SUBSET_MIN_ORDER = 32

#: dsyevr leaves a matrix unscaled when its largest entry lies in
#: [_RMIN, _RMAX] (LAPACK's SMLNUM = safe minimum / precision)
_RMIN = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)
_RMAX = min(1.0 / _RMIN, 1.0 / math.sqrt(math.sqrt(np.finfo(float).tiny)))


def _unit_scaled(s):
    """(s / 2^e, e), s scaled below 1 by a power of two, which is exact.

    Only a matrix whose largest entry lies outside [_RMIN, _RMAX] is
    scaled; otherwise e = 0 and s is returned as it is, as dsyevr would
    leave it.
    """
    largest = max(s.max(), -s.min())
    if largest > 0.0 and not _RMIN <= largest <= _RMAX:
        exponent = int(np.frexp(largest)[1])
        return np.ldexp(s, -exponent), exponent
    return s, 0


def _ends(w, low: int, high: int):
    """The low first and high last entries of ascending rows w, each once."""
    n = w.shape[-1]
    if low + high >= n:
        return w
    if not low:
        return w[..., n - high :]
    if not high:
        return w[..., :low]
    return np.concatenate([w[..., :low], w[..., n - high :]], axis=-1)


def _extreme_eigenvalues(s, low: int, high: int):
    """The low smallest and high largest eigenvalues of a symmetric matrix.

    Returns them ascending, as an array (..., m) for a matrix or a stack
    (..., n, n), m = min(low + high, n): every eigenvalue once when the
    two ends meet.  The eigenvalues are those of the lower triangles.
    Below _SUBSET_MIN_ORDER, or when all eigenvalues are asked for, one
    matrix (also a stack of one) goes straight to LAPACK's dsyevd, which
    costs a third of numpy's eigvalsh call at n = 2, and a stack of
    several through eigvalsh as one call.  From _SUBSET_MIN_ORDER up,
    each matrix takes dsyevr's own partial-range path, step for step:
    one blocked dsytrd with the workspace dsyevr hands it and one dstebz
    bisection per end, so the results are those of dsyevr(range="I")
    bit for bit whenever dsyevr leaves the matrix unscaled.  A matrix it
    would scale is scaled by a power of two instead (_unit_scaled):
    dsyevr scales to the edge of [_RMIN, _RMAX], where dstebz splits the
    tridiagonal at off-diagonals whose squares underflow and loses
    digits (7e-14 of ||s|| on a clustered matrix scaled by 1e-150).
    There a non-finite entry raises KGError.
    """
    n = s.shape[-1]
    if s.ndim > 2 and (s.size == n * n or n >= _SUBSET_MIN_ORDER):
        rows = [_extreme_eigenvalues(a, low, high) for a in s.reshape(-1, n, n)]
        return np.reshape(rows, s.shape[:-2] + (min(low + high, n),))
    if n < _SUBSET_MIN_ORDER or not 0 < low + high < n:
        if n == 1:
            w = s[..., 0, :].copy()
        elif s.ndim > 2:
            w = np.linalg.eigvalsh(s)
        else:
            w, _, info = lapack.dsyevd(s, compute_v=0, lower=1)
            if info != 0:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return _ends(w, low, high)
    if not np.isfinite(s).all():
        raise KGError(f"a symmetric matrix of order {n} has a non-finite entry")
    s, exponent = _unit_scaled(s)
    # dsyevr's optimal workspace less the 5n it keeps for itself: with
    # less, dsytrd reduces unblocked and rounds differently
    lwork = int(lapack.dsyevr_lwork(n, lower=1)[0]) - 5 * n
    _, d, e, _, _ = lapack.dsytrd(s, lower=1, lwork=lwork)
    ends = []
    for il, iu in ((1, low), (n - high + 1, n)):
        if il <= iu:
            _, w, _, _, info = lapack.dstebz(
                d, e, 2, 0.0, 0.0, il, iu, 0.0, "E"
            )
            if info != 0:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            ends.append(w[: iu - il + 1])
    return np.ldexp(np.concatenate(ends), exponent)


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


def apply_j(x):
    """Apply the block swap to a vector or to the rows of a matrix.

    Equivalent to [[0, I], [I, 0]] @ x without forming the product.
    """
    x = np.asarray(x)
    n = x.shape[0] // 2
    return np.concatenate([x[n:], x[:n]], axis=0)


@dataclass(frozen=True)
class ModelSpec:
    """The model pair (U^2, V) as dense symmetric matrices.

    ``u_squared`` must be positive definite and of the same order as the
    symmetric potential ``v``.  Instances are immutable; the stored arrays
    are defensive read-only copies.  Validation keeps the lower Cholesky
    factor L L^T = U^2 as ``cholesky`` and the ends of the spectrum of U
    as ``u_min`` and ``u_max`` = ||U||.  Specs derived by
    ``with_potential`` or ``perturbed`` share these and half_roots, so
    nothing that depends on V is kept here.
    """

    u_squared: np.ndarray
    v: np.ndarray
    label: str = ""
    cholesky: np.ndarray = field(init=False, repr=False, compare=False)
    u_min: float = field(init=False, repr=False, compare=False)
    u_max: float = field(init=False, repr=False, compare=False)
    _half_roots: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u2 = check_symmetric(self.u_squared, "u_squared")
        v = _symmetric_of_order(self.v, u2.shape[0], "v")
        lowest, highest = (float(w) for w in _extreme_eigenvalues(u2, 1, 1)[[0, -1]])
        norm = max(abs(lowest), abs(highest))
        factor, info = lapack.dpotrf(u2, lower=1, clean=1)
        if info != 0 or lowest <= PD_RTOL * norm or lowest <= 0.0:
            raise NotPositiveDefinite(
                f"u_squared is not positive definite: min eigenvalue {lowest:.3e} "
                f"(tolerance {PD_RTOL * norm:.3e})"
            )
        for name, a in {"u_squared": u2, "v": v, "cholesky": factor}.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "u_min", math.sqrt(lowest))
        object.__setattr__(self, "u_max", math.sqrt(highest))
        # created here, not on first use, so that copies share it
        object.__setattr__(self, "_half_roots", [])

    @property
    def order(self) -> int:
        return self.u_squared.shape[0]

    def l_solve(self, b):
        """L^(-1) b for a matrix or a stack (..., n, m) of them.

        One triangular solve (LAPACK's dtrtrs) for all columns at once.
        An entry beyond the float range comes out inf, or nan where the
        substitution meets 0 * inf, with no warning.
        """
        columns = np.moveaxis(np.asarray(b, dtype=float), -2, 0)
        x = lapack.dtrtrs(self.cholesky, columns.reshape(self.order, -1), lower=1)[0]
        return np.moveaxis(x.reshape(columns.shape), 0, -2)

    def half_roots(self):
        """(U^(1/2), U^(-1/2)), U the principal root of u_squared.

        The one root of U the library forms, for the H-frame rows of
        ``kg bounds``: both from one eigendecomposition of U^2, on the
        first request, and the same read-only pair on every later one.
        """
        if not self._half_roots:
            w, p = np.linalg.eigh(self.u_squared)
            d = np.sqrt(np.sqrt(w))
            for root in (p * d, p / d):
                root = symmetrize(root @ p.T)
                root.setflags(write=False)
                self._half_roots.append(root)
        return tuple(self._half_roots)

    def perturbed(self, delta_v) -> "ModelSpec":
        """A new spec with the potential replaced by v + delta_v."""
        delta_v = _symmetric_of_order(delta_v, self.order, "delta_v")
        label = f"{self.label}+perturbation" if self.label else ""
        return self.with_potential(self.v + delta_v, label)

    def with_potential(self, v, label: str) -> "ModelSpec":
        """A spec with potential v sharing this spec's validated U^2 data.

        Only v is validated (symmetry and order).
        """
        v = _symmetric_of_order(v, self.order, "v")
        v.setflags(write=False)
        spec = copy.copy(self)
        object.__setattr__(spec, "v", v)
        object.__setattr__(spec, "label", label)
        return spec


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
    n : block order (H and G are 2n x 2n)
    shift : the real spectral shift mu
    a_matrix : A = (V - mu) L^(-T), L L^T = U^2
    contraction : b = ||A||
    spec : the source model
    """

    n: int
    shift: float
    a_matrix: np.ndarray
    contraction: float
    spec: ModelSpec = field(repr=False)


def shifted_potential(spec: ModelSpec, shift: float = 0.0, couplings=None):
    """W = V - shift*I as a new array, or the stack of W = t V - shift*I.

    With ``couplings`` (k values of t) the result has shape (k, n, n).
    The shift comes off the diagonal of V itself, before any product,
    so a potential far from the origin loses no digits to a later
    cancellation.
    """
    n = spec.order
    if couplings is None:
        w = np.array(spec.v)
    else:
        w = np.multiply.outer(np.asarray(couplings, dtype=float), spec.v)
    w.reshape(-1, n * n)[:, :: n + 1] -= shift
    return w


def operator_a(spec: ModelSpec, shift: float = 0.0):
    """A = (V - shift*I) L^(-T), L L^T = U^2: the transpose of L^(-1) W.

    A is the U-frame (V - shift*I) U^(-1) times the orthogonal U L^(-T),
    so it has the same singular values.  An entry beyond the float
    range is inf or nan (ModelSpec.l_solve), with no warning: b = ||A||
    is then inf or nan, and every certified route rejects either, as
    not b < 1.
    """
    return spec.l_solve(shifted_potential(spec, shift)).T


def assemble_system(spec: ModelSpec, shift: float = 0.0) -> KleinGordonSystem:
    """The contraction data of one model and shift: A and b = ||A||.

    Neither G nor H is formed: the definite pencil is solved from
    (U^2, V - shift*I) alone, and the direct path from the root-free
    companion form of the spectral module.
    """
    a = operator_a(spec, shift)
    return KleinGordonSystem(
        n=spec.order,
        shift=float(shift),
        a_matrix=a,
        contraction=spectral_norm(a),
        spec=spec,
    )


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

    def projected(mu):
        s = p2 - (2.0 * mu) * p1 + (mu * mu) * p0
        return float(_extreme_eigenvalues(s, 0, 1)[0])

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
    v_min, v_max = _extreme_eigenvalues(spec.v, 1, 1)[[0, -1]]
    lo = float(v_min) - spec.u_max
    hi = float(v_max) + spec.u_max
    # r < 2^er and ||L^(-1)|| < 2^eu: the matrices stay below
    # 2^(2 (er + eu) + 2) in norm and Brent's products below 2^(4 er + 2 eu + 6)
    er = math.frexp(max(-lo, hi))[1]
    eu = math.frexp(1.0 / spec.u_min)[1]
    k = 0 if er + eu + max(er, 0) <= _UNSCALED_EXPONENT else er + max(eu, 0)
    v = np.ldexp(spec.v, -k) if k else spec.v
    l_inv_v = spec.l_solve(v)
    l_inv = spec.l_solve(np.eye(spec.order))
    b2 = l_inv_v @ l_inv_v.T
    b1 = symmetrize(spec.l_solve(l_inv_v.T))
    b0 = l_inv @ l_inv.T
    lo, hi = math.ldexp(lo, -k), math.ldexp(hi, -k)
    # relative to the bracket, so that a potential of small scale is
    # resolved; on a wide bracket sqrt(eps) |mu| soon dominates
    tol = SHIFT_RTOL * min(hi - lo, 1.0)
    if spec.order >= _SUBSET_MIN_ORDER:
        return math.ldexp(_subspace_minimize(b2, b1, b0, lo, hi, tol), k)

    def b_squared(mu):
        s = b2 - (2.0 * mu) * b1 + (mu * mu) * b0
        return float(_extreme_eigenvalues(s, 0, 1)[0])

    return math.ldexp(_brent_minimize(b_squared, lo, hi, tol), k)
