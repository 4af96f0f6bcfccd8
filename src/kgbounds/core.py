"""Model data (U^2, V), the contraction, and the block operators of H = JG.

The model data is a positive definite ``u_squared`` and a symmetric
potential ``v`` of the same order n.  The spectrum of the 2n x 2n

    H  = [[U^(1/2) V U^(-1/2), U], [U, U^(-1/2) V U^(1/2)]]
    J  = [[0, I], [I, 0]]
    G  = J H    (symmetric)

is that of the quadratic Q(lam) = (lam - V)^2 - U^2, and with the
contraction data A = (V - mu) U^(-1), b = ||A||, the shifted form

    G - mu*J = diag(U,U)^(1/2) [[I, A^T], [A, I]] diag(U,U)^(1/2)

is positive definite whenever b < 1.  The same pencil in the frame
K = [[U^2, V], [V, I]] (Tisseur & Meerbergen, SIAM Rev. 43, 2001),
congruent through diag(U^(1/2), U^(-1/2)), factorizes with W = V - mu*I
as

    K - mu*J = [[I, W], [0, I]] diag(U^2 - W W, I) [[I, 0], [W, I]],

so G - mu*J is positive definite exactly when the n x n
-Q(mu) = U^2 - W W is (Sylvester's law of inertia); the spectral
module solves in that frame.

ModelSpec owns the powers of U: each is formed once from the
eigendecomposition of U^2 that validation computes, and shared by every
spec derived from it with another potential.  KleinGordonSystem stores
the contraction data alone and derives H, and G = J H from it, on
demand; hamiltonians forms H for a whole stack of potentials t V, and
spectral_norm and shifted_potential take stacks too.  Everything here
is dense and desk-scale; all outputs are plain numpy arrays inside
frozen dataclasses and all functions are pure.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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
    "hamiltonians",
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

#: |exponent| of U -> square roots taken of the eigenvalues of U^2
_ROOT_COUNT = {2.0: 0, 1.0: 1, 0.5: 2}

#: entries whose squares neither overflow nor underflow; spectral_norm
#: scales a matrix outside this range by a power of two, which is exact
_GRAM_RANGE = (2.0**-500, 2.0**500)

#: from this order up, LAPACK's evr driver computing the one top eigenvalue
#: beats numpy's eigvalsh computing all of them
_SUBSET_MIN_ORDER = 32


def _top_eigenvalue(s):
    """Largest eigenvalue of a symmetric matrix, or of each in a stack (..., n, n).

    A float for one matrix, an array for a stack; only the lower
    triangles are read.  One small matrix, also a stack of one, goes
    straight to LAPACK's dsyevd, which costs a third of numpy's eigvalsh
    call at n = 2; a stack of several goes through eigvalsh as one call.
    From _SUBSET_MIN_ORDER up, LAPACK's dsyevr computes the top
    eigenvalue alone, and a non-finite entry raises KGError.
    """
    n = s.shape[-1]
    if s.ndim > 2:
        if n < _SUBSET_MIN_ORDER and s.size > n * n:
            return np.linalg.eigvalsh(s)[..., -1]
        tops = [_top_eigenvalue(m) for m in s.reshape(-1, n, n)]
        return np.reshape(tops, s.shape[:-2])
    if n < _SUBSET_MIN_ORDER:
        w, _, info = scipy.linalg.lapack.dsyevd(s, compute_v=0, lower=1)
        top = w[-1]
    else:
        if not np.isfinite(s).all():
            raise KGError(f"a symmetric matrix of order {n} has a non-finite entry")
        # the optimal workspace, as scipy.linalg.eigh queries it: with
        # less, dsytrd reduces unblocked and rounds differently
        lwork, liwork, _ = scipy.linalg.lapack.dsyevr_lwork(n, lower=1)
        w, _, _, _, info = scipy.linalg.lapack.dsyevr(
            s,
            compute_v=0,
            range="I",
            il=n,
            iu=n,
            lower=1,
            lwork=int(lwork),
            liwork=liwork,
        )
        top = w[0]
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return float(top)


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
    top = _top_eigenvalue(gram)
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


def _spd_eig(m, name: str = "matrix"):
    """Eigendecomposition of a symmetric positive definite matrix.

    m must already be validated symmetric (check_symmetric).  Raises
    NotPositiveDefinite when the smallest eigenvalue does not clear
    PD_RTOL * ||m||.
    """
    w, p = np.linalg.eigh(m)
    norm = max(abs(w[0]), abs(w[-1]))
    if w[0] <= PD_RTOL * norm or w[0] <= 0.0:
        raise NotPositiveDefinite(
            f"{name} is not positive definite: min eigenvalue {w[0]:.3e} "
            f"(tolerance {PD_RTOL * norm:.3e})"
        )
    return w, p


@dataclass(frozen=True)
class ModelSpec:
    """The model pair (U^2, V) as dense symmetric matrices.

    ``u_squared`` must be positive definite and of the same order as the
    symmetric potential ``v``.  Instances are immutable; the stored arrays
    are defensive read-only copies.  The eigendecomposition of U^2 that
    validation computes is kept as ``u2_eigenvalues`` (ascending) and
    ``u2_eigenvectors``; every power of U is formed from it, once, and
    kept with it.  Specs derived by ``with_potential`` or ``perturbed``
    share all of this, so nothing that depends on V is kept here.
    """

    u_squared: np.ndarray
    v: np.ndarray
    label: str = ""
    u2_eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    u2_eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)
    _u_powers: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u2 = check_symmetric(self.u_squared, "u_squared")
        v = _symmetric_of_order(self.v, u2.shape[0], "v")
        w, p = _spd_eig(u2, "u_squared")
        kept = {"u_squared": u2, "v": v, "u2_eigenvalues": w, "u2_eigenvectors": p}
        for name, a in kept.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        # created here, not on first use, so that copies share it
        object.__setattr__(self, "_u_powers", {})

    @property
    def order(self) -> int:
        return self.u_squared.shape[0]

    def u_power(self, exponent: float):
        """U^exponent, exponent in {+-1/2, +-1, +-2}, U the root of u_squared.

        The eigenvalues are repeated square roots of those of U^2, never a
        general power.  Each power is formed on its first request and the
        same read-only array is returned on every later one.
        """
        power = self._u_powers.get(exponent)
        if power is None:
            d = self.u2_eigenvalues
            for _ in range(_ROOT_COUNT[abs(exponent)]):
                d = np.sqrt(d)
            p = self.u2_eigenvectors
            power = symmetrize(((p * d) if exponent > 0 else (p / d)) @ p.T)
            power.setflags(write=False)
            self._u_powers[exponent] = power
        return power

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
    """One model and shift: the contraction data and, on demand, H and G.

    Neither G nor H is stored: both are formed anew on every access,
    from the powers of U that ``spec.u_power`` keeps.

    Fields
    ------
    n : block order (H and G are 2n x 2n)
    shift : the real spectral shift mu
    a_matrix : A = (V - mu) U^(-1)
    contraction : b = ||A||
    spec : the source model
    """

    n: int
    shift: float
    a_matrix: np.ndarray
    contraction: float
    spec: ModelSpec = field(repr=False)

    @property
    def gram(self):
        """G = J H = [[U, X^T], [X, U]], X = U^(1/2) V U^(-1/2), formed anew.

        Exactly symmetric, because every power of U is.
        """
        return apply_j(self.hamiltonian)

    @property
    def hamiltonian(self):
        """H = [[X, U], [U, X^T]] (see hamiltonians), formed anew on every access."""
        return hamiltonians(self.spec, (1.0,))[0]

    def u_min(self) -> float:
        """Smallest eigenvalue of U = sqrt(U^2)."""
        return float(np.sqrt(self.spec.u2_eigenvalues[0]))

    def u_max(self) -> float:
        """Largest eigenvalue of U = sqrt(U^2), which is ||U||."""
        return float(np.sqrt(self.spec.u2_eigenvalues[-1]))


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


def hamiltonians(spec: ModelSpec, couplings):
    """H(t) = [[t X, U], [U, t X^T]], X = U^(1/2) V U^(-1/2), per coupling t.

    H(t) = J G(t) is the Hamiltonian of the potential t V; the stack has
    shape (k, 2n, 2n).  X is formed once per call, and t = 1 gives the
    Hamiltonian of the spec itself, bit for bit.
    """
    n = spec.order
    x = spec.u_power(0.5) @ spec.v @ spec.u_power(-0.5)
    tx = np.multiply.outer(np.asarray(couplings, dtype=float), x)
    h = np.empty((tx.shape[0], 2 * n, 2 * n))
    h[:, :n, :n] = tx
    h[:, :n, n:] = spec.u_power(1)
    h[:, n:, :n] = spec.u_power(1)
    h[:, n:, n:] = tx.swapaxes(-1, -2)
    return h


def operator_a(spec: ModelSpec, shift: float = 0.0):
    """A = (V - shift*I) U^(-1) with U the principal root of u_squared.

    An entry beyond the float range is inf, with no warning: b = ||A||
    is then inf, or nan where infinities of both signs meet, and every
    certified route rejects either, as not b < 1.
    """
    with np.errstate(over="ignore"):
        return shifted_potential(spec, shift) @ spec.u_power(-1)


def assemble_system(spec: ModelSpec, shift: float = 0.0) -> KleinGordonSystem:
    """The contraction data of one model and shift: A and b = ||A||.

    Neither G nor H is formed here: the definite pencil is solved from
    (U^2, V - shift*I) alone, and the system derives G and H only when
    a caller reads them (the direct eigensolver and the tests' oracles).
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

#: absolute part of the width to which optimize_shift resolves its minimizer
SHIFT_TOL = 1e-10

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


def optimize_shift(spec: ModelSpec):
    """Minimize mu -> b(mu) = ||(V - mu) U^(-1)|| by Brent's method.

    With Bk = U^(-1) V^k U^(-1), formed once,

        b(mu)^2 = lambda_max(B2 - 2 mu B1 + mu^2 B0),

    so each evaluation is the top eigenvalue of one symmetric n x n
    matrix.  b is the norm of an affine matrix function of mu, hence
    convex, and so is b^2; Brent's method on the bracket
    [min eig V - ||U||, max eig V + ||U||] converges to its minimizer
    within SHIFT_TOL plus sqrt(eps) relative.  Returns the shift; its
    contraction is assemble_system(spec, shift).contraction.

    On the bracket, with r = max |bracket end|, the evaluated matrix and
    each of its three terms is at most 4 (r ||U^(-1)||)^2 in norm, and
    the products in Brent's steps at most 16 r^2 times the largest
    value.  When either could overflow, the search runs on the
    potential V / 2^k instead, with 2^k > r max(||U^(-1)||, 1):
    b(mu) = 2^k b_k(mu / 2^k), b_k the contraction of (U^2, V / 2^k),
    so the minimizer of b_k, scaled back by 2^k, is the shift.
    Otherwise k = 0 and the search is unscaled.
    """
    u_inv = spec.u_power(-1)
    u_norm = float(np.sqrt(spec.u2_eigenvalues[-1]))
    v_eigs = np.linalg.eigvalsh(spec.v)
    lo = float(v_eigs[0]) - u_norm
    hi = float(v_eigs[-1]) + u_norm
    # r < 2^er and ||U^(-1)|| < 2^eu: the matrices stay below
    # 2^(2 (er + eu) + 2) in norm and Brent's products below 2^(4 er + 2 eu + 6)
    er = math.frexp(max(-lo, hi))[1]
    eu = math.frexp(1.0 / math.sqrt(spec.u2_eigenvalues[0]))[1]
    k = 0 if er + eu + max(er, 0) <= _UNSCALED_EXPONENT else er + max(eu, 0)
    v = np.ldexp(spec.v, -k) if k else spec.v
    v_u_inv = v @ u_inv
    b2 = v_u_inv.T @ v_u_inv
    b1 = symmetrize(u_inv @ v_u_inv)
    b0 = spec.u_power(-2)

    def b_squared(mu):
        return _top_eigenvalue(b2 - (2.0 * mu) * b1 + (mu * mu) * b0)

    mu = _brent_minimize(b_squared, math.ldexp(lo, -k), math.ldexp(hi, -k), SHIFT_TOL)
    return math.ldexp(mu, k)
