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
the contraction data alone and derives G, and H = J G from it, on
demand.  Everything here is dense and desk-scale; all outputs are plain
numpy arrays inside frozen dataclasses and all functions are pure.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .exceptions import DimensionMismatch, NotPositiveDefinite, ValidationError

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

#: |exponent| of U -> square roots taken of the eigenvalues of U^2
_ROOT_COUNT = {2.0: 0, 1.0: 1, 0.5: 2}

#: entries whose squares neither overflow nor underflow; spectral_norm
#: scales a matrix outside this range by a power of two, which is exact
_GRAM_RANGE = (2.0**-500, 2.0**500)

#: from this order up, LAPACK's evr driver computing the one top eigenvalue
#: beats numpy's eigvalsh computing all of them
_SUBSET_MIN_ORDER = 32


def _top_eigenvalue(s) -> float:
    """Largest eigenvalue of a symmetric matrix; only its lower triangle is read."""
    n = s.shape[0]
    if n < _SUBSET_MIN_ORDER:
        return float(np.linalg.eigvalsh(s)[-1])
    top = scipy.linalg.eigh(
        s, eigvals_only=True, subset_by_index=[n - 1, n - 1], driver="evr"
    )
    return float(top[0])


def spectral_norm(a) -> float:
    """Largest singular value of a dense matrix, without an SVD.

    Returns sqrt(max(lambda_max(a^T a), 0)), the Gram matrix taken on
    the smaller side of a.  The top eigenvalue of a Gram matrix has
    O(eps) relative error, so this agrees with the SVD to rounding; the
    clamp keeps the norm of a zero matrix at exactly 0.0.  A matrix whose
    largest entry lies outside _GRAM_RANGE is first scaled to one near 1
    by a power of two, so the Gram matrix neither overflows nor
    underflows.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    exponent = 0
    largest = np.abs(a).max()
    if largest > 0.0 and not _GRAM_RANGE[0] <= largest <= _GRAM_RANGE[1]:
        exponent = math.frexp(largest)[1]
        a = np.ldexp(a, -exponent)
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    return math.ldexp(float(np.sqrt(max(_top_eigenvalue(gram), 0.0))), exponent)


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
    non-finite, and are rejected as such.
    """
    a = _as_square(a, name)
    with np.errstate(over="ignore"):
        scale = 1.0 + (np.abs(a).max() if a.size else 0.0)
        drift = np.abs(a - a.T).max() if a.size else 0.0
        if drift > SYMMETRY_RTOL * scale:
            raise ValidationError(
                f"{name} is not symmetric: max |a_ij - a_ji| = {drift:.3e} "
                f"exceeds {SYMMETRY_RTOL * scale:.3e}"
            )
        return _as_square(symmetrize(a), name)


def apply_j(x):
    """Apply the block swap to a vector or to the rows of a matrix.

    Equivalent to [[0, I], [I, 0]] @ x without forming the product.
    """
    x = np.asarray(x)
    n = x.shape[0] // 2
    return np.concatenate([x[n:], x[:n]], axis=0)


def _spd_eig(m, name: str = "matrix"):
    """Eigendecomposition of a symmetric positive definite matrix.

    Raises NotPositiveDefinite when the smallest eigenvalue does not
    clear PD_RTOL * ||m||.
    """
    m = check_symmetric(m, name)
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
        """G = [[U, X^T], [X, U]], X = U^(1/2) V U^(-1/2), formed anew.

        Exactly symmetric, because every power of U is.
        """
        spec = self.spec
        u = spec.u_power(1)
        x = spec.u_power(0.5) @ spec.v @ spec.u_power(-0.5)
        return np.block([[u, x.T], [x, u]])

    @property
    def hamiltonian(self):
        """H = J G, formed anew on every access."""
        return apply_j(self.gram)

    def u_min(self) -> float:
        """Smallest eigenvalue of U = sqrt(U^2)."""
        return float(np.sqrt(self.spec.u2_eigenvalues[0]))

    def u_max(self) -> float:
        """Largest eigenvalue of U = sqrt(U^2), which is ||U||."""
        return float(np.sqrt(self.spec.u2_eigenvalues[-1]))


def shifted_potential(spec: ModelSpec, shift: float = 0.0):
    """W = V - shift*I as a new array.

    The shift comes off the diagonal of V itself, before any product,
    so a potential far from the origin loses no digits to a later
    cancellation.
    """
    w = np.array(spec.v)
    w.flat[:: spec.order + 1] -= shift
    return w


def operator_a(spec: ModelSpec, shift: float = 0.0):
    """A = (V - shift*I) U^(-1) with U the principal root of u_squared."""
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
    """
    u_inv = spec.u_power(-1)
    v_u_inv = spec.v @ u_inv
    b2 = v_u_inv.T @ v_u_inv
    b1 = symmetrize(u_inv @ v_u_inv)
    b0 = spec.u_power(-2)
    u_norm = float(np.sqrt(spec.u2_eigenvalues[-1]))
    v_eigs = np.linalg.eigvalsh(spec.v)

    def b_squared(mu):
        return _top_eigenvalue(b2 - (2.0 * mu) * b1 + (mu * mu) * b0)

    lo = float(v_eigs[0]) - u_norm
    hi = float(v_eigs[-1]) + u_norm
    return _brent_minimize(b_squared, lo, hi, SHIFT_TOL)
