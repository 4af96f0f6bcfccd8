"""Spectra of H = JG via the symmetric-definite pencil, sign operators, gaps.

With J = J^T = J^(-1), the eigenproblem H x = lam x is equivalent to

    J x = theta (G - mu*J) x,    lam = mu + 1/theta,

so whenever the contraction b = ||(V - mu) U^(-1)|| is below one the
pencil (J, G - mu*J) is symmetric-definite and the spectrum is real and
semisimple.  It is solved in the frame K = [[U^2, V], [V, I]]
(Tisseur & Meerbergen, SIAM Rev. 43, 2001), congruent to G through
diag(U^(1/2), U^(-1/2)), where the shifted pencil factorizes as

    K - mu*J = F F^T,    F = [[M, W], [0, I]],    M M^T = U^2 - W W,

with W = V - mu*I.  So one n x n Cholesky factorization of
-Q(mu) = U^2 - (V - mu)^2 certifies the pencil definite, by Sylvester's
law of inertia, and reduces it to the standard symmetric eigenproblem

    T y = sigma y,    T = F^T J F = [[0, M^T], [M, 2W]],

of order 2n (the symmetric linearization of the hyperbolic quadratic;
Tisseur & Meerbergen; Guo, Higham & Tisseur, SIMAX 30, 2009).  T is
similar to H - mu: with z = F^(-T) y, J z = theta (K - mu*J) z reads
F^(-1) J F^(-T) y = theta y, the inverse of T y = (1/theta) y, so
sigma = 1/theta = lam - mu itself, ascending in the report's order,
and M is never inverted.  The pencil's own eigenvectors are

    Z = F^(-T) Y = [X; (Lam - V) X],    Z^T (K - mu*J) Z = Y^T Y = I,

with the quadratic eigenvectors X = M^(-T) Y_1 from one triangular
solve, (lam - V)^2 x = U^2 x, so no root of U is taken.  No spectrum
carries Z: _pencil_eigenvectors forms it from a row's factor M where a
number is read off it (a whole spectrum's eigenpair residuals on its
dense rows, and sign_operator's ||J1||), and writes it where Y lies:
dsyevd reduces the Fortran-ordered dense T in place, and Z overwrites
Y.  The report keeps M (SpectrumReport.pencil_factor), from which the
bounds module reads the exact kappa pair.  Each column
has the J-signature (J z, z) = theta = 1/sigma, whose sign is the side
of the shift its eigenvalue lies on: the sign types are certified,
with no tolerance.  When U^2 is tridiagonal and V diagonal (the
oscillator: a local potential on a 1D grid), -Q(mu) is tridiagonal, M
lower bidiagonal, and with the unknowns ordered
(y_2[0], y_1[0], y_2[1], y_1[1], ...) T is tridiagonal, with diagonal
(2 w_0, 0, 2 w_1, 0, ...) and off-diagonal (M_00, M_10, M_11, M_21, ...):
from order n = _TRIDIAGONAL_MIN_ORDER up such a row is factored in
O(n) (dpttrf) and solved with no reduction to tridiagonal form.  The
pencil is used exactly when -Q(mu) > 0 is proven, on every route by a
factorization of -Q(mu) - cI that succeeds in floating point, c a stated
bound on the rounding of forming -Q(mu) and of the factorization
(_proven_definite): one dpttrf of a tridiagonal row, every pivot finite
and positive, or one Cholesky factorization of a dense row's -Q(mu),
every diagonal entry of the factor positive, with c about
(n + 4) u tr U^2 (after Rump, BIT 46, 2006).  No contraction is
computed.  Every other row goes to a general dense
eigensolver on the root-free companion form

    L_g = [[V, g I], [U^2 / g, V]],    g = ||U||,

similar to H through diag(U^(1/2), U^(-1/2)) diag(I, g), which flags
non-real pairs instead of hiding them.  Its unit eigenvectors [x; y]
give z = [x; g y] = [x; (lam - V) x], and their signatures
(J [x; y], [x; y]), of the sign of the H frame's, are classified
against NEUTRAL_TOL.

Every solve is stacked.  eigen_spectra takes the potentials t V of one
model, one per coupling t, at one shift: the proven rows go through
one stacked Cholesky factorization, eigh of T and one stacked
triangular solve (numpy's gufuncs), or row by row through the
tridiagonal T, the other rows through one stacked eig, and the per-row
work after the solve (ordering, signatures, witnesses) is stacked too;
only a multiplicity cluster takes an SVD of its own.  A stack of one
calls LAPACK's dpotrf, dsyevd (in place) and dtrtrs directly, which at
small orders cost a fifth of numpy's stacked calls.  eigen_spectrum is the
stack of one of a system's own potential, and the coupling sweep solves
its steps in blocks.  A caller that reads a few eigenvalues alone (the
oscillator table of example 1) asks for the k nearest the shift on each
side: since sigma = lam - mu, they are the eigenvalues n-k+1 .. n+k of
T, which the pencil rows then compute alone by one bisection
(core._eigenvalues, or dstebz on the tridiagonal T), and
neither X nor Z is formed, since the signatures are 1/sigma.

Counts prove the tridiagonal rows' eigenvalues, with no eigenvector.
For real s, K - s*J = [[U^2, V - s], [V - s, I]] has the Schur complement
U^2 - (V - s)^2 = -Q(s) of its identity block, so by Sylvester's law of
inertia it has n + p positive eigenvalues, p the number of negative
ones of Q(s).  And K - s*J = F (I - (s - mu) T^(-1)) F^T, since
F^(-1) J F^(-T) = T^(-1), so it has as many positive eigenvalues as
I - (s - mu) T^(-1), whose eigenvalues are 1 - (s - mu)/sigma_k: for
s > mu the n with sigma_k < 0 are positive, and so are those with
lam_k > s; for s < mu the n with sigma_k > 0, and those with lam_k < s.
Hence, wherever K - mu*J is positive definite (the hyperbolic quadratic;
Guo, Higham & Tisseur, SIMAX 30, 2009),

    #{negative eigenvalues of Q(s)} = #{k : lam_k > s}   (s >= mu),
                                      #{k : lam_k < s}   (s <= mu),

and two counts prove where the k-th exact eigenvalue lies: with j its
place counted from the far end of its side of the shift (2n - k above
it, k + 1 below it, k = 0 .. 2n-1 ascending), at least j negative
eigenvalues of Q at the end of an interval nearer the shift and at most
j - 1 at the farther end put it in the interval, whatever the other
eigenvalues.  For a tridiagonal spec Q(s) is tridiagonal, with diagonal
a_i = (s - v_i)^2 - u_ii and off-diagonal e_i = -u_i,i+1, and its
negative count is that of the pivots of its L D L^T recurrence
p_i = a_i - e_i-1^2 / p_i-1 (_sturm_counts).  In floating point the
signs of the computed pivots are exactly those of a matrix with the
computed diagonal and each off-diagonal changed by at most 0.75 eps
relative (Kahan; Demmel, Dhillon & Ren, ETNA 3, 1995), and forming the
diagonal, shifted by g, moves a_i by at most
eps (2.6 (s - v_i)^2 + 0.5 u_ii + 1.01 |g|).  By Gershgorin's theorem the
count is then exact for Q(s) + g I + E with

    ||E|| <= beta(s) = 4 eps ((|s| + ||V||)^2 + max u_ii + max |u_i,i+1|)

when |g| <= beta(s), plus 2^-500 times the scale of the data for
underflow (the data are first scaled by a power of two to entries below
one).  So g = +beta(s) where a count must be at least j, and -beta(s)
where it must be at most j - 1: Q(s) + beta I + E >= Q(s) has no more
negative eigenvalues than Q(s), and Q(s) - beta I + E <= Q(s) no fewer,
so each count can only under-count.  The bound holds while no pivot
overflows: a count whose pivots overflow or turn nan, after a zero or
nearly zero pivot, is uncertain.

In a whole spectrum the pencil rows that _tridiagonal_rows routes to the
tridiagonal T are solved for their eigenvalues alone (dsterf), and each
lam_k is certified by the first half-width r = delta |lam_k - mu| of
_ENCLOSURE_LADDER whose two counts, at lam_k -+ r, prove it, which also
proves its index.  If ||Q(lam) x|| <= rho ||x|| and s is real with
|s - lam| <= r, then Q(s) - Q(lam) = (s - lam)(s + lam - 2V) gives

    sigma_min(Q(s)) <= rho + r (2 |s| + r + 2 ||V||),

rounded up (_moved_residuals).  The exact pair (rho = 0) gives
B(lam) = r (2 |lam| + r + 2 ||V||), the residual reported for a counted
lam (see SpectrumStack); a non-real lam's residual, moved to s = Re lam
by r = |Im lam|, bounds Q at the real part ``kg verify`` emits
(_real_part_residuals).  A row with an eigenvalue that no rung
certifies, its counts uncertain or short, is solved again with its
eigenvectors, as every dense pencil row and direct row is, for its
eigenpair backward errors.

The pencil's positive half gives the sign operator: the H-frame pencil
eigenvectors are D Z, D = diag(U^(1/2), U^(-1/2)), so with
Y = D Z |Theta|^(-1/2)

    J1 = sign(H - mu*I) = Y (J Y)^T,    ||J1|| = ||Y||^2,

which measures how far the similarity is from an isometry
(1 <= ||J1|| <= 1/(1-b)).  The norm is taken at order n: in the
eigenbasis of J the positive columns [a; b] of D Z become
[P; Q] = [a + b; a - b] / sqrt(2), whose span is the graph of the
angular operator Gamma = Q P^(-1), ||Gamma|| < 1, and

    ||J1|| = (1 + ||Gamma||) / (1 - ||Gamma||).

Neither Y, J1 nor a root of U is formed for it: with
U^2 = E diag(d^4) E^T (ModelSpec.u2_eigenbasis), E^T a = d E^T z_1 and
E^T b = E^T z_2 / d, and the orthogonal E changes no norm.  Only the
last n columns of Z, the positive ones, are read: sign_operator reduces
T, built from a pencil report's M and W = V - mu, once with its
eigenvectors and forms those columns alone, so a report of the
eigenvalues nearest the shift serves as well as a whole spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .core import (
    _GRAM_RANGE,
    _eigenvalues,
    _symmetric_norm,
    _tridiagonal_eigenvalues,
    KleinGordonSystem,
    ModelSpec,
    shifted_potential,
    spectral_norm,
)
from .exceptions import KGError, NotCertified

__all__ = [
    "SpectrumReport",
    "SpectrumStack",
    "DefectWitness",
    "eigen_spectrum",
    "eigen_spectra",
    "sign_operator",
    "pencil_residual",
]

#: |imag| above REAL_RTOL * ||L_g|| marks the spectrum as non-real
REAL_RTOL = 1e-8

#: eigenvalues within MULT_RTOL * ||L_g|| form one multiplicity cluster
MULT_RTOL = 1e-8

#: on the direct path, |(Jx, x)| / ||x||^2 below this marks an
#: eigenvector of L_g as neutral
NEUTRAL_TOL = 1e-6

#: the direct path solves no L_g whose norm is not below this (see
#: _direct_eigensolve)
DIRECT_NORM_LIMIT = 2.0**510

#: the order n from which a tridiagonal spec's pencil rows, with their
#: residuals, the exact kappa pair and ||J1||, take the tridiagonal T (and its
#: bidiagonal M) in place of the dense one.  Timed on the alpha = 0.3
#: oscillator at shift 0 (one OpenBLAS thread, 2-core x86-64, best of
#: 7 to 15), tridiagonal/dense in ms: eigen_spectra of 21 couplings
#: with their residuals 0.35/0.25 at N = 4, 0.45/0.39 at 6, 0.59/0.57 at
#: 8, 0.69/0.70 at 9, 0.79/0.87 at 10 and 1.03/1.23 at 12 (the solve
#: alone 0.53/0.53 at 8); one row with its residuals 0.085/0.086 at 4,
#: 0.096/0.101 at 8 and 0.119/0.131 at 12; a sweep of 101 couplings (in
#: blocks of BLOCK_BUDGET entries) 1.26/0.96 at N = 3, 1.40/1.48 at 4
#: and 2.70/5.00 at 8; whole ``kg spectrum``, ``bounds`` and ``verify``
#: commands are faster from N = 3 up (0.250/0.270, 0.428/0.457 and
#: 0.676/0.687 at 8).  From N = 8 up the tridiagonal T is as fast as
#: the dense one on every solve timed, to 3 %
_TRIDIAGONAL_MIN_ORDER = 8

#: the relative half-widths delta, tried in turn, of the enclosures
#: lam -+ delta |lam - mu| that two counts prove (64 eps up to about
#: 4e-9).  On the oscillator at shift 0 the first rung certifies 151 of
#: the 160 eigenvalues at N = 80 and 1816 of 2000 at N = 1000 at
#: alpha 0.3 (117 and 1791 at alpha 0.985), the second all but 2 (18)
#: of 2000 at N = 1000, and the third the rest
_ENCLOSURE_LADDER = (2.0**-46, 2.0**-40, 2.0**-34, 2.0**-28)

#: entries of one block of _sturm_counts' pivots (a block holds the
#: diagonals of a few positions for every shift)
_COUNT_BLOCK = 4096

#: the absolute part of the slack beta of _sturm_counts and _proven_definite,
#: after their scaling: underflow in forming the diagonal, e^2 and e^2 / p
#: moves Q(s) by far less
_UNDERFLOW_SLACK = 2.0**-500

#: the half-width r and a bound of _moved_residuals are each multiplied
#: by 1 + _ROUND_UP, which more than covers their roundings (at most 2
#: and 5 of relative size eps/2).  An r or a bound below _BOUND_FLOOR,
#: where rounding is no longer relative, certifies nothing
_ROUND_UP = 8.0 * np.finfo(float).eps
_BOUND_FLOOR = 2.0**-900

@dataclass(frozen=True)
class SpectrumReport:
    """Classified spectrum of one assembled system.

    ``eigenvalues`` is sorted ascending (by real part when non-real):
    the whole spectrum, or with ``nearest`` = k its 2k middle ones.  No
    eigenvector is kept; lam_k has the K-frame eigenvector
    z_k = [x_k; (lam_k - V) x_k] of the pencil (J, K - mu*J), x_k the
    quadratic eigenvector: on the pencil path normalized by
    Z^T (K - mu*J) Z = I, on the direct path [x_k; g y_k] from the unit
    eigenvector [x_k; y_k] of the companion form L_g, g = ||U||.
    ``signatures`` holds theta_k = (J z_k, z_k) = 1/(lam_k - mu) on the
    pencil path, and on the direct path (J [x_k; y_k], [x_k; y_k]), of
    the sign of (J z_k, z_k) and of the H-frame signature.
    ``sign_types`` is its class, 'positive' / 'negative' / 'neutral';
    only the direct path, which has no certificate, tests it against
    NEUTRAL_TOL.  ``central_gap`` is (largest eigenvalue below the
    shift, smallest above it), with -inf/+inf on an empty side; an
    eigenvalue exactly at the shift belongs to neither side.  ``witness`` is the first
    defective eigenvalue found, or None; ``defective`` says whether
    there is one (see DefectWitness).  ``spec`` is the model solved.
    ``pencil_factor`` is the factor M, M M^T = U^2 - (V - mu)^2, that
    certified the pencil: on the tridiagonal route (_tridiagonal_rows)
    the lower bidiagonal M in LAPACK's lower band storage, shape (2, n),
    else the dense lower triangular M; None on the direct path.
    ``residuals`` holds each eigenvalue's bound on sigma_min(Q(lam)) on a
    whole spectrum (see SpectrumStack), and is None with ``nearest``.
    """

    eigenvalues: np.ndarray
    signatures: np.ndarray = field(repr=False)
    sign_types: tuple
    central_gap: tuple
    defective: bool
    is_real_spectrum: bool
    shift: float
    solver_path: str  # 'similarity' (the definite pencil) or 'direct'
    spec: ModelSpec = field(repr=False, compare=False)
    witness: DefectWitness | None = field(default=None, repr=False)
    pencil_factor: np.ndarray | None = field(default=None, repr=False)
    residuals: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class DefectWitness:
    """An eigenvalue flagged as defective and the offending unit eigenvector of L_g.

    The direct path alone flags defects (_direct_eigensolve); the vector
    is J-neutral exactly when the corresponding eigenvector of H is.
    Every eigenvector of a non-real eigenvalue of the J-selfadjoint H is
    J-neutral, so only the eigenvalues real to REAL_RTOL are tested: a
    defective pair split by rounding within that threshold is found.
    """

    eigenvalue: complex
    vector: np.ndarray = field(repr=False)
    reason: str


def _proven_definite(spec: ModelSpec, a):
    """Per row: whether -Q(mu) = U^2 - (t V - mu)^2 > 0 is proven, the one
    route test of eigen_spectra: a row takes the pencil exactly when it is.

    ``a`` holds the diagonals w (k, n) of W = t V - mu for
    _tridiagonal_rows(spec), the banded back end here, else the dense
    -Q(mu) that the rows are solved from, (k, n, n), the dense back end
    (_proven_dense).  For a tridiagonal spec -Q(mu) = U^2 - (p - mu)^2,
    p_i = fl(t v_i) the potential as eigen_spectra forms it and
    w_i = fl(p_i - mu), is tridiagonal, with diagonal d_i - (p_i - mu)^2
    and U^2's off-diagonal e_i.  With w scaled by 2^-k and U^2 by 4^-k,
    the larger of ||U|| and max |w_i| then below one (which changes no
    sign), one dpttrf factors tridiag(a, e), a_i = fl(fl(d_i - fl(w_i^2)) - beta),

        beta = 4 eps (max_i w_i^2 + max_i d_i + max_i |e_i|) + 2^-500,

    and the row is proven when every pivot is finite and positive: info
    is 0 also after a nan pivot (a positive pivot is at most its finite
    a_i, so the smallest pivot decides, and a nan fails it).
    Proof: the computed pivots of the L D L^T recurrence are, to positive
    factors, the exact ones of tridiag(a, e'), each
    |e'_i - e_i| <= 0.75 eps |e_i| (see the module docstring), so that
    matrix is positive definite.  Forming a_i errs by
    at most eps (d_i + 2.5 w_i^2 + beta / 2) from d_i - (p_i - mu)^2 -
    beta, to first order (w_i^2 covering fl(p_i - mu)'s rounding too),
    and underflow, in forming a or in the recurrence, by far less than
    2^-500.  So -Q(mu) - tridiag(a, e') has every diagonal entry at least
    beta less those errors and off-diagonal row sums at most
    1.5 eps max |e_i|: beta is over 1.6 times their sum, which covers
    the second-order terms, so by Gershgorin's theorem the difference is
    positive semidefinite, and -Q(mu) >= tridiag(a, e') > 0.
    Then K - mu*J is positive definite (its Schur complement), and the
    pencil is definite.  U^2's band maxima are read once per spec.
    """
    if a.ndim == 3:
        return _proven_dense(spec, a)
    d_max, e_max = spec.u2_band_maxima
    k = math.frexp(max(spec.u_max, np.abs(a).max(initial=0.0)))[1]
    w2 = np.square(np.ldexp(a, -k))
    beta = w2.max(axis=1, initial=0.0) + (math.ldexp(d_max, -2 * k) + math.ldexp(e_max, -2 * k))
    beta = 4.0 * np.finfo(float).eps * beta + _UNDERFLOW_SLACK
    d, e = (np.ldexp(band, -2 * k) for band in spec.u2_bands)
    diagonals = np.subtract(d, w2, out=w2)
    diagonals -= beta[:, None]
    return np.array([lapack.dpttrf(x, e, overwrite_d=1)[0].min() > 0.0 for x in diagonals])


def _proven_dense(spec: ModelSpec, neg_q):
    """Per matrix A of a stack (k, n, n): whether -Q(mu) > 0 is proven from A.

    A = fl(U^2 - fl(W W^T)) is -Q(mu) as eigen_spectra forms it, from
    W = fl(P - mu I) and P = fl(t V), the potential as formed; what is
    proven is -Q(mu) = U^2 - (P - mu I)^2 > 0, mu exact.  The row is
    proven when the floating-point Cholesky factorization of
    B = fl(A - cI) succeeds, every diagonal entry of its factor positive
    (_cholesky), with u = eps / 2, eta = 2^-1074 the smallest subnormal and

        c = kappa tr(A) + kappa (tr U^2 - (1 - u) tr(A)) + 4 n (n + 1) eta,
        kappa = (n + 4) u / (1 - 2 (n + 4) u):

    the Cholesky term, the forming term and the underflow term
    (Rump, BIT 46, 2006; Demmel, LAPACK Working Note 14, 1989).

    Proof.  Each product or quotient rounds to (x o y)(1 + d) + e, with
    |d| <= u and |e| <= eta / 2, each sum or difference to
    (x +- y)(1 + d), exact when subnormal, and gamma_m = m u / (1 - m u);
    norms are spectral, |X| and <= entrywise, and each matrix is the
    symmetric one of its lower triangle, which the factorization reads
    (a fl(W W^T) need not be symmetric).  (1) The factorization:
    its computed factor R^T satisfies R^T R = B + D1 with
    |D1| <= gamma_{n+1} |R^T| |R| + (n + max r_ii) eta, for any order of
    the inner products, blocked or not (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Thm 10.3), and
    (|R^T| |R|)_ij <= r_i r_j, r_j = ||R e_j||, by Cauchy-Schwarz.
    r_j^2 = b_jj + (D1)_jj gives sum r_j^2 <= tr(B) / (1 - gamma_{n+1}),
    to the underflow term, and tr(B) <= tr(A), since fl(a_jj - c) <= a_jj;
    so ||D1|| <= gamma_{n+1} tr(A) / (1 - gamma_{n+1}).  (2) The shift:
    B = A - cI + D2, D2 diagonal, |D2| <= u |B|, so ||D2|| <= u tr(A).
    (3) The subtraction: A = U^2 - G + D3, G = fl(W W^T),
    |D3| <= u |A| <= u (|R^T| |R| + |D1| + (c + u max b_jj) I), so
    ||D3|| <= u ((1 + gamma_{n+1}) tr(A) / (1 - gamma_{n+1}) + c + u tr(A)).
    (4) The product: |G - W W^T| <= gamma_n |W| |W|^T + n eta, so
    ||G - W W^T|| <= gamma_n ||W||_F^2 + n^2 eta, and the diagonal of G
    gives ||W||_F^2 <= (tr G + n^2 eta) / (1 - gamma_n).  (5) The
    potential's shift: W = P - mu I + D, D diagonal,
    |D| <= u |W|, so ||W W^T - (P - mu I)^2|| <= (2u + u^2) ||W||_F^2.
    Then -Q(mu) = R^T R + cI - X, X the sum of the five errors, and
    R^T R > 0 (R is triangular with a positive diagonal), so -Q(mu) > 0
    when c >= ||X||.  Collected, with c's own term moved to the left,
    ||X|| <= (n + 3) u (tr(A) + tr G) / ((1 - u) (1 - 2 (n + 1) u))
    + 2 u^2 tr(A) + 2 n (n + 2) eta.  Last, tr G <= tr U^2 - (1 - u) tr(A),
    since g_jj = u_jj - a_jj (1 + d_j) and every a_jj > c > 0 where the
    factorization succeeds (a non-positive b_jj stops it); so the
    forming term bounds kappa tr G, and tr U^2 <= (1 + u) (tr(A) + tr G).
    kappa exceeds the coefficient (n + 3) u / ((1 - u) (1 - 2 (n + 1) u))
    by u (1 + (7n + 23) u) to second order, which covers the 2 u^2 tr(A)
    and the roundings of c's own sums and products (at most
    3 kappa gamma_{n+2} (tr(A) + tr G) in all) for every order n < 2^24;
    and 4 n (n + 1) eta exceeds the underflow terms, c's own included.
    Overflow, in A or along the factorization, leaves an inf or nan
    that reaches the square root of a diagonal entry of the factor,
    which is then nan: not proven.
    """
    n = spec.order
    u = 0.5 * np.finfo(float).eps
    kappa = (n + 4) * u / (1.0 - 2 * (n + 4) * u)
    # kappa tr(A) + kappa (tr U^2 - (1 - u) tr(A)) + 4 n (n + 1) eta, regrouped
    trace = neg_q.trace(axis1=1, axis2=2)
    c = (kappa * u) * trace + (kappa * spec.u_squared.trace() + 4 * n * (n + 1) * 2.0**-1074)
    factored = _cholesky(neg_q - c[:, None, None] * np.eye(n))[1]
    return np.ones(len(neg_q), dtype=bool) if factored is None else factored


@dataclass(frozen=True)
class SpectrumStack:
    """Spectra of the potentials t V of one model at one shift, one row per t.

    Row k holds, for the potential t_k V of the k-th coupling, what a
    SpectrumReport holds: ``eigenvalues`` sorted ascending by real part
    (a complex array when some row is non-real, the imaginary parts of
    real rows being zero), the ``signatures`` (J z_k, z_k) of their
    K-frame eigenvectors z_k, whether the row took the definite ``pencil``,
    ``is_real`` and the first defective eigenvalue of the row, or None,
    in ``witnesses``, and ``pencil_factors`` each pencil row's factor M,
    as SpectrumReport.pencil_factor holds it, and None for a direct row.
    No contraction is kept: every row is routed on a proven -Q(mu) > 0,
    not on b (see eigen_spectra).

    ``residuals`` (None with ``nearest``) holds every eigenvalue's upper
    bound on sigma_min(Q(lam)), Q(lam) = (lam - t V)^2 - U^2, which the
    residual gate of ``kg spectrum``, ``kg sweep`` and ``kg verify``
    reads; this is the one place that computes it.  On a pencil row of
    the tridiagonal T (_tridiagonal_rows) whose eigenvalues counts
    prove, solved for its eigenvalues alone, it is their enclosures'
    B(lam) = r (2 |lam| + r + 2 ||t V||) (see the module docstring).
    Every other row (dense pencil, direct, or tridiagonal with a rung
    short, solved again) forms Z for the eigenpair backward errors
    ||Q(lam) x|| / ||x|| (eigenpair_residuals, Tisseur, LAA 309, 2000)
    and drops it: no stack keeps eigenvectors.
    """

    eigenvalues: np.ndarray
    signatures: np.ndarray = field(repr=False)
    pencil: np.ndarray
    is_real: np.ndarray
    witnesses: tuple = field(repr=False)
    pencil_factors: tuple = field(repr=False)
    residuals: np.ndarray | None = field(default=None, repr=False)

    @property
    def defective(self) -> np.ndarray:
        """Per row: whether a defective eigenvalue was found."""
        return np.array([w is not None for w in self.witnesses], dtype=bool)


def _cholesky(a):
    """Lower Cholesky factors of a stack, and which of its matrices have one.

    A matrix has one when its factorization runs to the end with every
    diagonal entry of the factor positive, which a nan fails (none is
    +inf: no matrix factored here has a diagonal entry above U^2's).  One
    stacked factorization (numpy's), with None for "all of them"; when it
    raises, as it does for the whole stack when one matrix is not
    positive definite, the matrices are factored again one at a time by
    LAPACK's dpotrf, which raises no exception.  A stack of one goes to
    dpotrf directly: at small orders numpy's stacked calls cost several
    times the solve itself.
    """
    if len(a) == 1:
        m, info = lapack.dpotrf(a[0], lower=1, clean=1)
        factored = info == 0 and m.diagonal().min() > 0.0
        return m[None], None if factored else np.zeros(1, dtype=bool)
    try:
        factors = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    else:
        factored = np.diagonal(factors, axis1=-2, axis2=-1).min(axis=-1) > 0.0
        return factors, None if factored.all() else factored
    factors, info = np.empty_like(a), np.empty(len(a), dtype=np.intc)
    for k, m in enumerate(a):
        factors[k], info[k] = lapack.dpotrf(m, lower=1, clean=1)
    factored = (info == 0) & (np.diagonal(factors, axis1=-2, axis2=-1).min(axis=-1) > 0.0)
    return factors, None if factored.all() else factored


def _tridiagonal_rows(spec: ModelSpec) -> bool:
    """Whether spec's pencil rows take the tridiagonal T (_k_frame_eigensolve):
    those of a tridiagonal spec from order n = _TRIDIAGONAL_MIN_ORDER up."""
    return spec.tridiagonal and spec.order >= _TRIDIAGONAL_MIN_ORDER


def _pencil_matrix(m, w):
    """T = [[0, M^T], [M, 2W]] per row, in Fortran order and its lower
    triangle alone, from dense factors M and W; or, for one row's band M
    and the diagonal w of its W, the diagonal (2 w_0, 0, 2 w_1, 0, ...)
    and off-diagonal (M_00, M_10, M_11, M_21, ...) of the tridiagonal T
    of the unknowns ordered (y_2[0], y_1[0], y_2[1], y_1[1], ...)."""
    if w.ndim == 1:
        diagonal, off = np.zeros(2 * len(w)), np.empty(2 * len(w) - 1)
        diagonal[::2] = 2.0 * w
        off[::2], off[1::2] = m[0], m[1, :-1]
        return diagonal, off
    n = w.shape[-1]
    t = np.zeros((len(w), 2 * n, 2 * n)).swapaxes(-1, -2)   # Fortran order
    t[:, n:, :n] = m
    t[:, n:, n:] = 2.0 * w
    return t


def _pencil_eigenvectors(spec: ModelSpec, m, w, columns=slice(None)):
    """sigma and the columns Z[..., columns] of the eigenvectors of pencil rows.

    ``m`` and ``w`` are _k_frame_eigensolve's factors M and W.  Each T
    (_pencil_matrix) is solved with its orthogonal Y, and the columns
    asked for are turned into Z = [x; y_2 - W x], x = M^(-T) y_1 (see the
    module docstring).  A dense T is reduced (dsyevd, in place for a
    stack of one) and Z written over those columns of Y (a view of Y is
    returned), with x from one triangular solve; a tridiagonal T takes
    dstevd and one banded solve per row, into one stack allocated once
    the first dstevd has returned (and freed its workspace).
    """
    n = spec.order
    if not _tridiagonal_rows(spec):
        t = _pencil_matrix(m, w)
        if len(t) == 1:   # LAPACK itself, in place (see _cholesky)
            sigma, y, info = lapack.dsyevd(t[0], compute_v=1, lower=1, overwrite_a=1)
            if info != 0:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            sigma, z = sigma[None], y[None, :, columns]
            x = lapack.dtrtrs(m[0], z[0, :n], lower=1, trans=1)[0][None]
        else:
            sigma, y = np.linalg.eigh(t)
            z = y[..., columns]
            x = np.linalg.solve(m.swapaxes(-1, -2), z[:, :n])   # M^(-T) y_1
        z[:, n:] -= w @ x
        z[:, :n] = x
        return sigma, z
    sigma, z = np.empty((len(w), 2 * n)), None
    for row, (band, wk) in enumerate(zip(m, w)):
        sigma[row], y, info = lapack.dstevd(*_pencil_matrix(band, wk))
        if info != 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        y = y[:, columns]
        if z is None:
            z = np.empty((len(w), 2 * n, y.shape[1]))
        x = lapack.dtbtrs(band, y[1::2], uplo="L", trans="T")[0]   # M^(-T) y_1
        z[row, :n] = x
        bottom = np.multiply(wk[:, None], x, out=z[row, n:])
        np.subtract(y[::2], bottom, out=bottom)   # y_2 - W x
    return sigma, z


def _k_frame_eigensolve(spec: ModelSpec, w, nearest: int | None, dense=None):
    """Factors M and eigenvalues sigma = lam - shift of the K-frame pencil rows.

    ``w`` holds W = V_k - shift*I, (k, n, n), with ``dense`` _cholesky's
    factors of their -Q(shift) = U^2 - W W = M M^T, or for
    _tridiagonal_rows(spec) the diagonals (k, n) of those diagonal W,
    factored here.  Solves T y = sigma y (see the module docstring), sigma
    ascending, and returns (sigma, Z, M, factored) for the rows whose
    factorization succeeded (``factored``, None when all did).  With
    ``nearest`` = k only T's eigenvalues n-k+1 .. n+k, the k nearest the
    shift on each side, are solved for, by bisection (core._eigenvalues,
    or dstebz on the tridiagonal T); without, a dense T with its Z
    (_pencil_eigenvectors) for the eigenpair residuals, a tridiagonal one
    for its eigenvalues alone (dsterf), which counts prove.  On the
    tridiagonal route dpttrf factors -Q(shift) = L D L^T in O(n), M =
    L D^(1/2) is kept in LAPACK's lower band storage, (2, n), and each
    row is solved as it is factored; Z is None there.
    """
    n = spec.order
    k = n if nearest is None else min(nearest, n)
    middle = ((n - k + 1, n + k),)
    if not _tridiagonal_rows(spec):
        m, factored = dense
        if factored is not None:
            w, m = w[factored], m[factored]
        if nearest is None:
            return (*_pencil_eigenvectors(spec, m, w), m, factored)
        sigma = _eigenvalues(_pencil_matrix(m, w), middle, overwrite=True)
        return sigma, None, m, factored
    u2_diagonal, u2_off = spec.u2_bands
    factored = np.ones(len(w), dtype=bool)
    sigma, bands = np.empty((len(w), 2 * k)), []
    for row, wk in enumerate(w):
        d, multipliers, info = lapack.dpttrf(u2_diagonal - wk * wk, u2_off)
        if info != 0:
            factored[row] = False
            continue
        band = np.zeros((2, n))   # M: its diagonal, then its subdiagonal
        band[0] = np.sqrt(d)
        band[1, :-1] = multipliers * band[0, :-1]
        diagonal, off = _pencil_matrix(band, wk)
        slot = len(bands)   # this row's place in sigma and M
        bands.append(band)
        if nearest is not None:
            sigma[slot] = _tridiagonal_eigenvalues(diagonal, off, middle)
            continue
        sigma[slot], info = lapack.dsterf(diagonal, off, overwrite_d=1)
        if info != 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return sigma[: len(bands)], None, bands, None if factored.all() else factored


def _sturm_counts(spec: ModelSpec, shifts, couplings, signs):
    """Negative counts of Q(s) + sign beta(s) I, per shift s, for a tridiagonal spec.

    Q(s) = (s - t V)^2 - U^2 for the potential t V of the shift's
    coupling t, formed with t V as eigen_spectra forms it, and beta(s)
    the recurrence's backward error bound (see the module docstring):
    a count with sign +1 is at most, and one with sign -1 at least, the
    number of negative eigenvalues of Q(s) itself.  Returns (counts,
    certain, beta): ``certain`` is False for a count whose pivots
    overflowed or turned nan (after a zero or nearly zero pivot), the
    one case the error bound does not cover.  s and t V are first
    scaled by 2^-k and U^2 by 4^-k, the largest of |s|, ||t V|| and
    ||U|| then below one, which changes no count; beta is returned
    scaled back.  The recurrence runs over the positions, each step one
    division and one subtraction on every shift at once, its diagonals
    formed a block of positions at a time (_COUNT_BLOCK entries, so at
    most _COUNT_BLOCK positions, and a block's count fits an int16).
    """
    s, t = np.asarray(shifts, dtype=float), np.asarray(couplings, dtype=float)
    v = spec.v_band
    # rounding is monotone: max_i |fl(t v_i)| = fl(|t| max_i |v_i|)
    tv_norm = np.abs(t) * np.abs(v).max()
    k = math.frexp(max(spec.u_max, np.abs(s).max(), tv_norm.max()))[1]
    s, tv_norm, v = np.ldexp(s, -k), np.ldexp(tv_norm, -k), np.ldexp(v, -k)
    d, e = (np.ldexp(band, -2 * k) for band in spec.u2_bands)
    beta = (np.abs(s) + tv_norm) ** 2 + (d.max() + np.abs(e).max())
    beta = 4.0 * np.finfo(float).eps * beta + _UNDERFLOW_SLACK
    diagonal_shift = signs * beta
    e2 = np.square(e).tolist()
    n, width = spec.order, max(1, _COUNT_BLOCK // s.size)
    block = np.empty((min(width, n), s.size))
    negative = np.empty(block.shape, dtype=bool)
    counts, total = np.zeros(s.size, dtype=np.intp), np.zeros(s.size)
    carried, quotient = np.empty(s.size), np.empty(s.size)
    with np.errstate(all="ignore"):
        for start in range(0, n, width):
            a = block[: min(width, n - start)]
            np.multiply(v[start : start + len(a), None], t, out=a)   # t v_i
            np.subtract(s, a, out=a)
            a *= a
            a += diagonal_shift
            a -= d[start : start + len(a), None]   # the diagonal of Q(s) + shift
            for i, pivot in enumerate(a, start):
                if i:
                    np.divide(e2[i - 1], previous, out=quotient)
                    pivot -= quotient
                previous = pivot
            np.less(a, 0.0, out=negative[: len(a)])
            counts += negative[: len(a)].sum(axis=0, dtype=np.int16)
            total += a.sum(axis=0)   # inf or nan once a pivot is
            np.copyto(carried, previous)   # the block is written over next
            previous = carried
        return counts, np.isfinite(total), np.ldexp(beta, 2 * k)


def _count_enclosures(spec: ModelSpec, lam, couplings, shift: float):
    """Half-widths r of the enclosures [lam - r, lam + r] that counts prove.

    One per eigenvalue: ``lam`` holds rows (k, 2n) of the ascending
    eigenvalues of pencil rows at ``shift``, row i of the potential
    t_i V, t_i = couplings[i].  Each lam_j is tried on the rungs delta of
    _ENCLOSURE_LADDER in turn: the ends lam_j -+ delta |lam_j - shift|
    are counted (_sturm_counts, the end nearer the shift with sign +1,
    the farther with -1), and the first rung whose counts prove the
    exact j-th eigenvalue between them (see the module docstring) gives
    r, the larger distance of an end from lam_j, rounded up; nan where
    no rung proves it.
    """
    n = lam.shape[-1] // 2
    index = np.arange(2 * n)
    side = np.where(index >= n, 1.0, -1.0)   # of the shift
    place = np.where(index >= n, 2 * n - index, index + 1)   # from the far end
    radius = np.full(lam.shape, np.nan)
    for delta in _ENCLOSURE_LADDER:
        rows, cols = np.isnan(radius).nonzero()
        if not rows.size:
            break
        x, toward, m = lam[rows, cols], side[cols], rows.size
        r = delta * np.abs(x - shift)
        near, far = x - toward * r, x + toward * r
        counts, certain, _ = _sturm_counts(
            spec,
            np.concatenate((near, far)),
            np.tile(couplings[rows], 2),
            np.repeat((1.0, -1.0), m),
        )
        j = place[cols]
        proven = certain[:m] & certain[m:] & (toward * (near - shift) >= 0.0)
        proven &= (counts[:m] >= j) & (counts[m:] < j)
        r = np.maximum(np.abs(x - near), np.abs(far - x)) * (1.0 + _ROUND_UP)
        radius[rows[proven], cols[proven]] = r[proven]
    return radius


def _moved_residuals(rho, s, r, tv_norm):
    """rho + r (2 |s| + r + 2 ||t V||) >= sigma_min(Q(s)), rounded up (see the
    module docstring); nan where r or the bound lies outside
    [_BOUND_FLOOR, inf), where their roundings are not relative."""
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (rho + r * (2.0 * np.abs(s) + r + 2.0 * tv_norm)) * (1.0 + _ROUND_UP)
        valid = (_BOUND_FLOOR <= r) & (_BOUND_FLOOR <= bound) & (bound < np.inf)
    return np.where(valid, bound, np.nan)


def _residual_bounds(spec: ModelSpec, lam, couplings, shift: float):
    """B(lam) = _moved_residuals(0, lam, r, ||t V||) per eigenvalue, r its
    _count_enclosures half-width; nan where no rung certifies lam."""
    r = _count_enclosures(spec, lam, couplings, shift)
    tv_norm = (np.abs(couplings) * np.abs(spec.v_band).max())[:, None]
    return _moved_residuals(0.0, lam, r, tv_norm)


def _real_part_residuals(report: SpectrumReport):
    """Bounds on sigma_min(Q(Re lam)) for a certified report's eigenvalues lam:
    a non-real lam's residual moved to Re lam by |Im lam| (_moved_residuals,
    ||V|| the gate's core._symmetric_norm), a real one's as it is."""
    lam, rho = report.eigenvalues, report.residuals
    if report.is_real_spectrum:
        return rho
    r = np.abs(lam.imag)
    moved = _moved_residuals(rho, lam.real, r, _symmetric_norm(report.spec.v_stored))
    return np.where(r == 0.0, rho, moved)


def _signatures(eigenvectors):
    """s_k = (J x_k, x_k) / (x_k, x_k) of eigenvectors of H, per column.

    s_k = 2 Re(a_k^H b_k) / ||x_k||^2 for x_k = [a_k; b_k]; a stack
    (..., 2n, 2n) gives (..., 2n).
    """
    n = eigenvectors.shape[-2] // 2
    top, bottom = eigenvectors[..., :n, :], eigenvectors[..., n:, :]
    if np.iscomplexobj(eigenvectors):
        top = top.conj()
        sq = np.einsum("...ij,...ij->...j", eigenvectors.conj(), eigenvectors).real
    else:
        sq = np.einsum("...ij,...ij->...j", eigenvectors, eigenvectors)
    return 2.0 * np.einsum("...ij,...ij->...j", top, bottom).real / sq


def _sign_types(signatures, tol: float) -> tuple:
    """The class of each signature: 'positive' above tol, 'negative' below -tol,
    'neutral' otherwise."""
    return tuple(
        "positive" if s > tol else "negative" if s < -tol else "neutral"
        for s in signatures.tolist()
    )


def _cluster_defects(eigenvalues, lg, scale):
    """Witnesses for repeated eigenvalues with too few eigenvectors.

    One SVD of L_g - center*I per cluster gives both the geometric
    multiplicity and the witness null vector.
    """
    tol = MULT_RTOL * scale
    order = np.argsort(np.real(eigenvalues))
    lam = np.asarray(eigenvalues)[order]
    witnesses = []
    start = 0
    for k in range(1, lam.size + 1):
        if k < lam.size and abs(lam[k] - lam[k - 1]) <= tol:
            continue
        cluster = lam[start:k]
        start = k
        if cluster.size < 2:
            continue
        center = cluster.mean()
        shifted = lg - center * np.eye(lg.shape[0])
        _, sv, vh = np.linalg.svd(shifted)
        geometric = int(np.sum(sv < tol))
        if geometric < cluster.size:
            witnesses.append(
                DefectWitness(complex(center), vh[-1].conj(), "multiplicity-defect")
            )
    return witnesses


def _direct_eigensolve(spec: ModelSpec, couplings):
    """The general dense eigensolver on the companion form L_g(t), per coupling t.

    L_g(t) = [[t V, g I], [U^2 / g, t V]], g = ||U||, is root-free and
    has the spectrum of H(t): [x; y] is an eigenvector exactly when
    Q(lam) x = 0 for the potential t V and g y = (lam - t V) x.  Returns
    (lam, Z, signatures, is_real, witnesses) per row: lam sorted by real
    part, then imaginary part, and real on the rows whose imaginary
    parts stay within REAL_RTOL * ||L_g||; Z = [x; g y] from the unit
    eigenvectors [x; y] that eig returns (real parts on a real row);
    their signatures (J [x; y], [x; y]); and the first eigenvalue of
    each row, of those real to REAL_RTOL * ||L_g||, with a neutral
    eigenvector (against NEUTRAL_TOL) or, on a real row without one,
    with a multiplicity cluster short of eigenvectors, with its unit L_g
    eigenvector (see DefectWitness).

    KGError when ||L_g|| is not below DIRECT_NORM_LIMIT = 2^510.  Below
    it the eigensolve itself stays in range: t V and g I are blocks of
    L_g and |lam| <= ||L_g|| to rounding, so g^2 = ||U^2||, ||t V||^2
    and |lam|^2 are each below 2^1020 (eigenpair_residuals and the
    residual gate scale their terms on either path).
    """
    n, g = spec.order, spec.u_max
    t = np.asarray(couplings, dtype=float)
    lg = np.zeros((t.size, 2 * n, 2 * n))
    with np.errstate(over="ignore"):
        lg[:, :n, :n] = np.multiply.outer(t, spec.v)
    lg[:, n:, n:] = lg[:, :n, :n]
    lg[:, :n, n:] = g * np.eye(n)
    lg[:, n:, :n] = spec.u_squared / g
    scale = spectral_norm(lg)
    if not (scale < DIRECT_NORM_LIMIT).all():
        raise KGError(
            "the direct eigensolver's companion form is out of range: "
            f"||L_g|| = {scale.max():.6e} is not below 2^510"
        )
    lam, vecs = np.linalg.eig(lg)
    rows, order = np.arange(len(lg))[:, None], np.lexsort((lam.imag, lam.real))
    lam, vecs = lam[rows, order], vecs.swapaxes(-1, -2)[rows, order].swapaxes(-1, -2)
    is_real = np.abs(lam.imag).max(axis=-1, initial=0.0) <= REAL_RTOL * scale
    if np.iscomplexobj(lam):
        # a double eigenvalue split into a complex pair by rounding keeps
        # the real part of the pair's eigenvector, an eigenvector of it
        if is_real.all():
            lam, vecs = lam.real, vecs.real
        else:
            lam = np.where(is_real[:, None], lam.real, lam)
            vecs = np.where(is_real[:, None, None], vecs.real, vecs)
    signatures = _signatures(vecs)
    neutral = ~((signatures > NEUTRAL_TOL) | (signatures < -NEUTRAL_TOL))
    # a non-real eigenvalue's eigenvectors are J-neutral whether or not it
    # is defective: only the eigenvalues real to is_real's threshold count
    neutral &= np.abs(lam.imag) <= REAL_RTOL * scale[:, None]
    has_neutral = neutral.any(axis=-1)
    witnesses = [None] * len(lam)
    for k in has_neutral.nonzero()[0]:
        j = int(np.argmax(neutral[k]))
        witnesses[k] = DefectWitness(
            complex(lam[k, j]), vecs[k, :, j], "neutral-eigenvector"
        )
    # the pencil route certifies a symmetric-similar, hence semisimple,
    # operator; multiplicity defects can only arise here, on real rows
    # with no neutral eigenvector and a close pair, one comparison for all
    close = (np.diff(lam.real, axis=-1) <= MULT_RTOL * scale[:, None]).any(axis=-1)
    for k in (is_real & ~has_neutral & close).nonzero()[0]:
        found = _cluster_defects(lam[k].real, lg[k], scale[k])
        witnesses[k] = found[0] if found else None
    z = np.concatenate([vecs[:, :n], g * vecs[:, n:]], axis=1)
    return lam, z, signatures, is_real, witnesses


def eigen_spectra(
    spec: ModelSpec,
    couplings,
    shift: float = 0.0,
    nearest: int | None = None,
) -> SpectrumStack:
    """The spectra of the potentials t V of spec, one per coupling t.

    The stacked solver behind every spectrum: each row for which
    -Q(shift) > 0 is proven (_proven_definite) takes the definite pencil
    in the K frame, all such rows in one stacked solve
    (_k_frame_eigensolve); a row whose Cholesky factorization fails, and
    every unproven row, goes to the general eigensolver on the root-free
    companion form L_g(t) (_direct_eigensolve).  Neither path forms H or
    a root of U, and no contraction b is computed.  A _tridiagonal_rows
    spec's rows are proven by one dpttrf each; a dense row forms its
    -Q(shift) = U^2 - W W once, proves it by one shifted Cholesky
    factorization and factors it for M.  Without ``nearest`` every row is a
    whole spectrum with its residuals (see SpectrumStack).  With ``nearest`` = k each row
    holds the 2k eigenvalues in the middle of its ascending order alone,
    and the stack no residuals: on a pencil row, which has n eigenvalues
    on each side of the shift, they are the k nearest it on each side,
    solved for alone (their signatures theta need no vectors); the
    direct rows still compute every eigenpair, with the vectors that
    classify them.
    """
    t = np.asarray(couplings, dtype=float)
    if _tridiagonal_rows(spec):
        w = np.multiply.outer(t, spec.v_band) - shift   # the diagonals of W
        pencil, dense = _proven_definite(spec, w), None
    else:
        w = shifted_potential(spec, shift, t)
        # -Q(shift), formed once; an entry beyond the float range is proven nowhere
        with np.errstate(over="ignore", invalid="ignore"):
            neg_q = spec.u_squared - w @ w.swapaxes(-1, -2)
            pencil = _proven_definite(spec, neg_q)
        # M factors a proven -Q(shift), freed before T or L_g is formed
        dense = _cholesky(neg_q[pencil]) if pencil.any() else None
        del neg_q
    whole = nearest is None
    # (rows, lam, signatures, is_real, witnesses, residuals) per path
    solved = []
    factors = [None] * t.size
    rows = pencil.nonzero()[0]
    if rows.size:
        sigma, z, m, factored = _k_frame_eigensolve(spec, w[rows], nearest, dense)
        if factored is not None:
            pencil[rows] = factored
            rows = rows[factored]
        for row, factor in zip(rows.tolist(), m):
            factors[row] = factor
        if rows.size:
            lam, residuals = shift + sigma, None
            if whole and z is None:   # the tridiagonal T's eigenvalues: counted
                residuals = _residual_bounds(spec, lam, t[rows], shift)
                again = np.isnan(residuals).any(axis=1).nonzero()[0]
                if again.size:
                    # solved again, with the eigenvectors its residuals need
                    redo = rows[again]
                    sigma[again], z = _pencil_eigenvectors(
                        spec, [m[k] for k in again], w[redo]
                    )
                    lam[again] = shift + sigma[again]
                    residuals[again] = eigenpair_residuals(spec, lam[again], z, t[redo])
            elif whole:
                residuals = eigenpair_residuals(spec, lam, z, t[rows])
            # (J z, z) = theta = 1/(lam - mu) for the pencil eigenvectors;
            # certified real and semisimple
            real, none = np.ones(rows.size, dtype=bool), (None,) * rows.size
            solved.append((rows, lam, 1.0 / sigma, real, none, residuals))
    if rows.size < t.size:
        rows = (~pencil).nonzero()[0]
        lam, vecs, signatures, is_real, witnesses = _direct_eigensolve(spec, t[rows])
        if whole:
            residuals = eigenpair_residuals(spec, lam, vecs, t[rows])
        else:
            n = spec.order
            middle = slice(n - min(nearest, n), n + min(nearest, n))
            lam, signatures, residuals = lam[:, middle], signatures[:, middle], None
        solved.append((rows, lam, signatures, is_real, witnesses, residuals))
    if len(solved) == 1:
        _, lam, signatures, is_real, witnesses, residuals = solved[0]
    else:
        # rows of both paths: scatter them into one stack
        k, width = t.size, solved[0][1].shape[-1]
        lam = np.empty((k, width), np.result_type(*(p[1] for p in solved)))
        signatures, is_real = np.empty((k, width)), np.empty(k, dtype=bool)
        residuals = np.empty((k, width)) if whole else None
        witnesses = [None] * k
        for rows, lam_p, signatures_p, real_p, witnesses_p, res_p in solved:
            lam[rows], signatures[rows], is_real[rows] = lam_p, signatures_p, real_p
            for row, witness in zip(rows, witnesses_p):
                witnesses[row] = witness
            if whole:
                residuals[rows] = res_p
    return SpectrumStack(
        eigenvalues=lam,
        signatures=signatures,
        pencil=pencil,
        is_real=is_real,
        witnesses=tuple(witnesses),
        pencil_factors=tuple(factors),
        residuals=residuals,
    )


def eigen_spectrum(
    system: KleinGordonSystem, nearest: int | None = None
) -> SpectrumReport:
    """Compute and classify the spectrum of the assembled Hamiltonian.

    The one row of eigen_spectra for the system's own potential at its
    shift, which reads no contraction: the definite pencil in the K frame
    when -Q(mu) = U^2 - (V - mu)^2 > 0 is proven and factors, so that
    G - mu*J is positive definite (a certified real, semisimple spectrum
    and sign types), else the
    general eigensolver on L_g, which flags non-real pairs and defective
    eigenvalues.  With ``nearest`` = k the report holds the 2k middle
    eigenvalues alone, on the pencil path the k nearest the shift on
    each side, which give the same central gap, and no residuals (see
    eigen_spectra).
    """
    mu, spec = system.shift, system.spec
    stack = eigen_spectra(spec, (1.0,), mu, nearest)
    lam, signatures = stack.eigenvalues[0], stack.signatures[0]
    pencil = bool(stack.pencil[0])
    # the pencil's signatures theta are never zero: its sign types need no tolerance
    signs = _sign_types(signatures, 0.0 if pencil else NEUTRAL_TOL)
    witness = stack.witnesses[0]

    # both paths order lam ascending by real part
    re = np.real(lam)
    below, above = re[re < mu], re[re > mu]
    lo = float(below[-1]) if below.size else -np.inf
    hi = float(above[0]) if above.size else np.inf
    return SpectrumReport(
        eigenvalues=lam,
        signatures=signatures,
        sign_types=signs,
        central_gap=(lo, hi),
        defective=witness is not None,
        is_real_spectrum=bool(stack.is_real[0]),
        shift=mu,
        solver_path="similarity" if pencil else "direct",
        spec=spec,
        witness=witness,
        pencil_factor=stack.pencil_factors[0],
        residuals=None if stack.residuals is None else stack.residuals[0],
    )


def sign_operator(report: SpectrumReport) -> float:
    """||J1||, J1 = sign(H - mu*I), of a pencil-route report, whole or nearest-k.

    ||J1|| = (1 + ||Gamma||) / (1 - ||Gamma||), with Gamma = Q P^(-1)
    the angular operator of the positive columns of Z (see the module
    docstring), which are solved for here from the report's factor M
    (_pencil_eigenvectors), with no second factorization of -Q(mu).
    Then one n x n solve and one n x n norm, in which the column scales
    and the 1/sqrt(2) cancel.  P and Q are taken in U^2's eigenbasis E,
    which leaves ||Gamma|| as it is, Y is freed once they are formed,
    and the solve (dgesv) overwrites them.  NotCertified for a report of
    the direct path: G - mu*J was not certified positive definite, or
    the Cholesky factorization of U^2 - (V - mu)^2 failed.
    """
    if report.solver_path != "similarity":
        raise NotCertified(
            "gram - shift*J is not certified positive definite: "
            f"the spectrum at shift {report.shift:.17g} took the direct path"
        )
    spec, mu = report.spec, report.shift
    n = spec.order
    w = spec.v_band - mu if _tridiagonal_rows(spec) else shifted_potential(spec, mu)
    # T has n eigenvalues on each side of the shift, ascending: the last
    # n columns are the positive ones; in the basis E, [P; Q] = [a + b; a - b]
    m = report.pencil_factor[None]
    z = _pencil_eigenvectors(spec, m, w[None], slice(n, None))[1][0]
    d, e = spec.u2_eigenbasis
    p = d[:, None] * (e.T @ z[:n])
    b = (e.T @ z[n:]) / d[:, None]
    del z   # and with it Y
    q = p - b
    p += b
    del b
    # Gamma^T = P^(-T) Q^T has the norm of Gamma; dgesv overwrites P and Q
    _, _, gamma_t, info = lapack.dgesv(p.T, q.T, overwrite_a=1, overwrite_b=1)
    del p
    # a singular P, like ||Gamma|| >= 1, can only come of rounding, and
    # then no finite norm is certified
    g = spectral_norm(gamma_t) if info == 0 else math.inf
    return (1.0 + g) / (1.0 - g) if g < 1.0 else math.inf


def _overflow_exponent(largest) -> int:
    """k with largest / 2^k below 1 when largest is beyond core._GRAM_RANGE, else 0.

    Below 2^500 a number's square and a few sums of such squares stay
    in the float range, so nothing there needs scaling.
    """
    return int(np.frexp(largest)[1]) if largest > _GRAM_RANGE[1] else 0


def eigenpair_residuals(spec: ModelSpec, eigenvalues, eigenvectors, couplings=None):
    """Backward errors ||Q(lam_k) x_k|| / ||x_k|| of Q(lam) = (lam - V)^2 - U^2.

    ``eigenvectors`` holds K-frame columns [x_k; (lam_k - V) x_k] (as in
    SpectrumReport), whose top block x_k is the quadratic eigenvector.
    Each value is the normwise backward error of the pair (lam_k, x_k)
    (Tisseur, LAA 309, 2000) and, as sigma_min(Q) = min_x ||Q x|| / ||x||,
    never below pencil_residual(spec, lam_k).  Real and complex pairs;
    the columns passed in are not written to.  Stacks (..., 2n) of
    eigenvalues and (..., 2n, 2n) of eigenvectors take the ``couplings``
    t (...,) of their rows, whose potential t V replaces spec.v.  For
    _tridiagonal_rows(spec) Q(lam) x is (lam - V)^2 x - U^2 x from V's
    diagonal and U^2's two diagonals, with two n x 2n temporaries and no
    matrix product; otherwise it takes three n x n by n x 2n products.
    Either way x is first copied in C order, so that a residual does not
    depend on the memory order of the columns passed in.

    When the largest of ||U||, the entries of V and |lam| is 2^k beyond
    2^500 (_overflow_exponent), where lam^2 or a sum of Q(lam) x could
    overflow, each pair is scaled by powers of two before Q(lam) x is
    formed: x_k by 2^-e_k to a largest entry in [1/2, 1), and the model
    to lam / 2^k, V / 2^k and U^2 / 2^(2k).  Q(lam) x then comes out
    divided by 2^(2k + e_k), exactly wherever nothing underflows, and
    the backward errors are scaled back (inf only where one is beyond
    the float range).  A column of Q(lam_k) x_k whose squares leave the
    float range is scaled by a power of two, exactly, before its norm
    is taken.
    """
    lam = np.asarray(eigenvalues)[..., None, :]
    banded = _tridiagonal_rows(spec)
    v = spec.v_band if banded else spec.v
    if couplings is not None:
        v = np.multiply.outer(couplings, v)
    u_squared = spec.u2_bands if banded else [spec.u_squared]
    # a copy in C order whatever the columns' order, so that every norm
    # below sums as on C-ordered columns (the dense route forms Q(lam) x in it)
    x = eigenvectors[..., : spec.order, :]
    x = x.astype(np.result_type(x, lam), order="C")
    k = _overflow_exponent(
        max(spec.u_max, np.abs(v).max(initial=0.0), np.abs(lam).max(initial=0.0))
    )
    if k:
        x = x * np.ldexp(1.0, -np.frexp(np.abs(x).max(axis=-2))[1])[..., None, :]
        lam, v = lam * np.ldexp(1.0, -k), np.ldexp(v, -k)
        u_squared = [np.ldexp(a, -2 * k) for a in u_squared]
    x_norm = np.linalg.norm(x, axis=-2)
    if banded:
        d, e = u_squared
        r = np.subtract(lam, v[..., None], dtype=np.result_type(x, lam))   # lam - v_i
        q = r * x
        q *= r
        # U^2 x row by row, each band into r
        np.multiply(d[:, None], x, out=r)
        q -= r
        np.multiply(e[:, None], x[..., 1:, :], out=r[..., 1:, :])
        q[..., :-1, :] -= r[..., 1:, :]
        np.multiply(e[:, None], x[..., :-1, :], out=r[..., 1:, :])
        q[..., 1:, :] -= r[..., 1:, :]
    else:
        vx = v @ x
        q = v @ vx
        q -= u_squared[0] @ x
        vx *= 2.0 * lam
        q -= vx
        x *= lam * lam
        q += x
    with np.errstate(over="ignore"):
        q_norm = np.linalg.norm(q, axis=-2)
        if not np.isfinite(q_norm).all():
            exponent = np.frexp(np.abs(q).max(axis=-2))[1]
            scaled = q * np.ldexp(1.0, -exponent)[..., None, :]
            q_norm = np.ldexp(np.linalg.norm(scaled, axis=-2), exponent)
        residuals = q_norm / x_norm
        return np.ldexp(residuals, 2 * k) if k else residuals


def pencil_residual(spec: ModelSpec, lam) -> float:
    """Smallest singular value of (lam*I - V)^2 - U^2.

    Vanishes exactly at the eigenvalues of H, so this is an independent
    cross-check on any eigensolver output; accepts complex lam.  The
    tests' oracle for eigenpair_residuals.
    """
    n = spec.order
    shifted = complex(lam) * np.eye(n) - spec.v
    q = shifted @ shifted - spec.u_squared
    return float(np.linalg.svd(q, compute_uv=False)[-1])
