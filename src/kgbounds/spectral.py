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

    C y = theta y,    C = F^(-1) J F^(-T)
                        = [[-2 M^(-1) W M^(-T), M^(-1)], [M^(-T), 0]]

of order 2n.  The reported eigenvectors are the pencil's own

    Z = F^(-T) Y = [X; (Lam - V) X],    Z^T (K - mu*J) Z = I,

with the quadratic eigenvectors X = M^(-T) Y_1, (lam - V)^2 x = U^2 x,
so no root of U is taken.  Each column has the J-signature
(J z, z) = theta, whose sign is the side of the shift its eigenvalue
lies on: the sign types are certified, with no tolerance.  The pencil
is used exactly when a closed-form bound certifies G - mu*J positive
definite and the Cholesky factorization succeeds; every other system
goes to a general dense eigensolver on the root-free companion form

    L_g = [[V, g I], [U^2 / g, V]],    g = ||U||,

similar to H through diag(U^(1/2), U^(-1/2)) diag(I, g), which flags
non-real pairs instead of hiding them.  Its unit eigenvectors [x; y]
give z = [x; g y] = [x; (lam - V) x], and their signatures
(J [x; y], [x; y]), of the sign of the H frame's, are classified
against NEUTRAL_TOL.

Every solve is stacked.  eigen_spectra takes the potentials t V of one
model, one per coupling t, at one shift: the certified rows go through
one stacked Cholesky factorization, inverse of the factor, eigh and a
few stacked products (numpy's gufuncs), the other rows through one stacked
eig, and the per-row work after the solve (ordering, signatures,
witnesses) is stacked too; only a multiplicity cluster takes an SVD of
its own.  A stack of one calls LAPACK's dpotrf, dtrtri and dsyevd
directly, which at small orders cost a fifth of numpy's stacked calls.
eigen_spectrum is the stack of one of a system's own potential, and the
coupling sweep solves its steps in blocks.  A caller that reads a few
eigenvalues alone (the oscillator table of example 1) asks for the k
nearest the shift on each side: since lam - mu = 1/theta, they are the
k smallest and k largest eigenvalues of C, which the pencil rows then
compute alone (core._extreme_eigenvalues), and neither X nor Z is
formed, since the signatures theta are the eigenvalues of C themselves.

The same solve gives the sign operator, which alone here forms a root
of U (ModelSpec.half_roots): the H-frame pencil eigenvectors are D Z,
D = diag(U^(1/2), U^(-1/2)), so with Y = D Z |Theta|^(-1/2)

    J1 = sign(H - mu*I) = Y (J Y)^T,    ||J1|| = ||Y||^2,

which measures how far the similarity is from an isometry
(1 <= ||J1|| <= 1/(1-b)).  The norm is taken at order n: in the
eigenbasis of J the positive columns [a; b] of D Z become
[P; Q] = [a + b; a - b] / sqrt(2), whose span is the graph of the
angular operator Gamma = Q P^(-1), ||Gamma|| < 1, and

    ||J1|| = (1 + ||Gamma||) / (1 - ||Gamma||).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .core import (
    PD_RTOL,
    _extreme_eigenvalues,
    KleinGordonSystem,
    ModelSpec,
    apply_j,
    shifted_potential,
    spectral_norm,
)
from .exceptions import KGError, NotCertified

__all__ = [
    "SpectrumReport",
    "SpectrumStack",
    "SignOperator",
    "DefectWitness",
    "eigen_spectrum",
    "eigen_spectra",
    "sign_operator",
    "eigenpair_residuals",
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

@dataclass(frozen=True)
class SpectrumReport:
    """Classified spectrum of one assembled system.

    ``eigenvalues`` is sorted ascending (by real part when non-real) and
    aligned column-wise with ``eigenvectors``, the K-frame eigenvectors
    z_k = [x_k; (lam_k - V) x_k] of the pencil (J, K - mu*J), x_k the
    quadratic eigenvector: on the pencil path normalized by
    Z^T (K - mu*J) Z = I, on the direct path [x_k; g y_k] from the unit
    eigenvector [x_k; y_k] of the companion form L_g, g = ||U||.
    ``signatures`` holds theta_k = (J z_k, z_k) = 1/(lam_k - mu) on the
    pencil path, and on the direct path (J [x_k; y_k], [x_k; y_k]), of
    the sign of (J z_k, z_k) and of the H-frame signature.
    ``sign_types`` is its class, 'positive' / 'negative' / 'neutral';
    only the direct path, which has no certificate, tests it against
    NEUTRAL_TOL.  ``positive_ordered`` / ``negative_ordered`` list the
    eigenvalues right/left of the shift, ordered away from it.
    ``central_gap`` is (largest eigenvalue below the shift, smallest
    above it), with -inf/+inf on an empty side; an eigenvalue exactly
    at the shift belongs to neither side.  ``witness`` is the first
    defective eigenvalue found, or None; ``defective`` says whether
    there is one.  ``spec`` is the model solved.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)
    signatures: np.ndarray = field(repr=False)
    sign_types: tuple
    positive_ordered: np.ndarray
    negative_ordered: np.ndarray
    central_gap: tuple
    defective: bool
    is_real_spectrum: bool
    shift: float
    solver_path: str  # 'similarity' (the definite pencil) or 'direct'
    spec: ModelSpec = field(repr=False, compare=False)
    witness: DefectWitness | None = field(default=None, repr=False)


@dataclass(frozen=True)
class SignOperator:
    """J1 = sign(H - mu*I) of a pencil-route spectrum, and its norm.

    ``norm_j1`` = ||J1|| = (1 + g) / (1 - g), g = ||Gamma|| the norm of
    the angular operator (see sign_operator).  ``y`` forms the factor Y,
    the H-frame pencil eigenvectors scaled to J-signature +-1, and
    ``j1`` the product J1 = Y (J Y)^T, both anew on every access.
    """

    report: SpectrumReport = field(repr=False)
    norm_j1: float

    @property
    def y(self):
        """Y = D Z |Theta|^(-1/2), D = diag(U^(1/2), U^(-1/2)); ||Y||^2 = ||J1||."""
        y = _h_frame(self.report.spec, self.report.eigenvectors)
        y /= np.sqrt(np.abs(self.report.signatures))
        return y

    @property
    def j1(self):
        """J1 = Y (J Y)^T."""
        y = self.y
        return y @ apply_j(y).T


@dataclass(frozen=True)
class DefectWitness:
    """An eigenvalue flagged as defective and the offending unit eigenvector of L_g.

    The direct path alone flags defects (_direct_eigensolve); the vector
    is J-neutral exactly when the corresponding eigenvector of H is.
    """

    eigenvalue: complex
    vector: np.ndarray = field(repr=False)
    reason: str


def _certified_definite(spec: ModelSpec, contractions):
    """Closed-form certificate that G - mu*J is safely positive definite, per b.

    The congruence G - mu*J = diag(U,U)^(1/2) [[I, A^T], [A, I]]
    diag(U,U)^(1/2), A = (V - mu) U^(-1) with the singular values of
    core's A, gives lambda_min(G - mu*J) >= (1 - b) u_min and
    ||G - mu*J|| <= (1 + b) u_max, so a True entry implies
    lambda_min(G - mu*J) > PD_RTOL * ||G - mu*J|| for that contraction
    b without factorizing.
    """
    b = contractions
    return (1.0 - b) * spec.u_min > PD_RTOL * (1.0 + b) * spec.u_max


@dataclass(frozen=True)
class SpectrumStack:
    """Spectra of the potentials t V of one model at one shift, one row per t.

    Row k holds, for the potential t_k V of the k-th coupling, what a
    SpectrumReport holds: ``eigenvalues`` sorted ascending by real part
    (a complex array when some row is non-real, the imaginary parts of
    real rows being zero), the K-frame ``eigenvectors`` z_k as columns
    (None for a nearest-k request), their ``signatures``
    (J z_k, z_k), whether the row took the definite ``pencil``,
    ``is_real`` and the first defective eigenvalue of the row, or None,
    in ``witnesses``.  ``contractions`` holds the b(t) each row was
    routed on.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = field(repr=False)
    signatures: np.ndarray = field(repr=False)
    pencil: np.ndarray
    is_real: np.ndarray
    witnesses: tuple = field(repr=False)
    contractions: np.ndarray

    @property
    def defective(self) -> np.ndarray:
        """Per row: whether a defective eigenvalue was found."""
        return np.array([w is not None for w in self.witnesses], dtype=bool)


def _cholesky(a):
    """Lower Cholesky factors of a stack, and which of its matrices have one.

    One stacked factorization, with None for "all of them"; when it
    fails, as it does for the whole stack when one matrix is not
    positive definite, the matrices are factored again one at a time,
    so only the failing ones are marked.  A stack of one goes to LAPACK's
    dpotrf directly (see _eigh).
    """
    if len(a) == 1:
        m, info = lapack.dpotrf(a[0], lower=1, clean=1)
        return m[None], None if info == 0 else np.zeros(1, dtype=bool)
    try:
        return np.linalg.cholesky(a), None
    except np.linalg.LinAlgError:
        pass
    factors, factored = np.zeros_like(a), np.zeros(len(a), dtype=bool)
    for k, m in enumerate(a):
        try:
            factors[k] = np.linalg.cholesky(m)
            factored[k] = True
        except np.linalg.LinAlgError:
            pass
    return factors, factored


def _lower_inverse(m):
    """Inverse of each lower triangular matrix of a stack.

    A stack of one goes to LAPACK's dtrtri directly (see _eigh); a
    larger stack, which the block budget keeps to small orders, to one
    stacked general inverse.
    """
    if len(m) == 1:
        return lapack.dtrtri(m[0], lower=1)[0][None]
    return np.linalg.inv(m)


def _eigh(c):
    """Ascending eigenvalues and eigenvectors of each symmetric matrix of a stack.

    Only the lower triangles are read.  A stack of one goes to LAPACK's
    dsyevd directly: at small orders numpy's stacked call costs several
    times the solve itself.
    """
    if len(c) == 1:
        theta, y, info = lapack.dsyevd(c[0], compute_v=1, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return theta[None], y[None]
    return np.linalg.eigh(c)


def _k_frame_eigensolve(spec: ModelSpec, w, nearest: int | None):
    """Eigenpairs of the K-frame pencils (J, K - shift*J) of a stack of W.

    ``w`` holds W = V_k - shift*I, shape (k, n, n).  Factors each
    -Q(shift) = U^2 - W W = M M^T, solves the standard symmetric
    C y = theta y (see the module docstring) and returns
    (theta, Z = [x; y_2 - W x], factored): ``factored`` marks the rows
    whose Cholesky factorization succeeded (None when all did), and
    theta and Z hold those rows alone, each ordered by ascending
    1/theta = lam - shift, with x = M^(-T) y_1 and
    Z^T (K - shift*J) Z = I.  With ``nearest`` = k, C is solved for its
    k smallest and k largest eigenvalues alone, the k eigenvalues
    nearest the shift on each side, and Z is None.  Only the lower
    triangles of -Q(shift) and C are read.
    """
    n = spec.order
    m, factored = _cholesky(spec.u_squared - w @ w.swapaxes(-1, -2))
    if factored is not None:
        w, m = w[factored], m[factored]
    m_inv = _lower_inverse(m)
    m_inv_t = m_inv.swapaxes(-1, -2)
    c = np.zeros((len(w), 2 * n, 2 * n))
    c[:, :n, :n] = (-2.0 * m_inv) @ w @ m_inv_t   # -2 M^(-1) W M^(-T)
    c[:, n:, :n] = m_inv_t
    if nearest is not None:
        theta, y = _extreme_eigenvalues(c, nearest, nearest), None
    else:
        theta, y = _eigh(c)
    rows, order = np.arange(len(c))[:, None], np.argsort(1.0 / theta, axis=-1)
    theta = theta[rows, order]
    if y is None:
        return theta, None, factored
    y = y.swapaxes(-1, -2)[rows, order].swapaxes(-1, -2)
    x = m_inv_t @ y[:, :n]                                  # M^(-T) y_1
    return theta, np.concatenate([x, y[:, n:] - w @ x], axis=1), factored


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
    each row with a neutral eigenvector (against NEUTRAL_TOL) or, on a
    real row without one, with a multiplicity cluster short of
    eigenvectors, with its unit L_g eigenvector.

    KGError when ||L_g|| is not below DIRECT_NORM_LIMIT = 2^510.  Below
    it every term of eigenpair_residuals and of the residual gate is
    finite: t V and g I are blocks of L_g and |lam| <= ||L_g|| to
    rounding, so g^2 = ||U^2||, ||t V||^2 and |lam|^2 are each below
    2^1020; with ||x|| <= 1, each term of Q(lam) x = t V (t V x) - U^2 x
    - 2 lam t V x + lam^2 x, and each partial sum of its products
    (Cauchy-Schwarz on a row), is below 2^1021, and Q(lam) x below
    5 * 2^1020 < 2^1023, whose norm eigenpair_residuals takes scaled.
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
    has_neutral = neutral.any(axis=-1)
    witnesses = [None] * len(lam)
    for k in has_neutral.nonzero()[0]:
        j = int(np.argmax(neutral[k]))
        witnesses[k] = DefectWitness(
            complex(lam[k, j]), vecs[k, :, j], "neutral-eigenvector"
        )
    # the pencil route certifies a symmetric-similar, hence semisimple,
    # operator; multiplicity defects can only arise here, on real rows
    # with no neutral eigenvector
    for k in (is_real & ~has_neutral).nonzero()[0]:
        re = lam[k].real
        if np.any(np.diff(re) <= MULT_RTOL * scale[k]):
            found = _cluster_defects(re, lg[k], scale[k])
            witnesses[k] = found[0] if found else None
    z = np.concatenate([vecs[:, :n], g * vecs[:, n:]], axis=1)
    return lam, z, signatures, is_real, witnesses


def eigen_spectra(
    spec: ModelSpec,
    couplings,
    shift: float = 0.0,
    contractions=None,
    nearest: int | None = None,
) -> SpectrumStack:
    """The spectra of the potentials t V of spec, one per coupling t.

    The stacked solver behind every spectrum: each row with contraction
    b(t) = ||L^(-1) (t V - shift)|| = ||(t V - shift) U^(-1)|| certified
    by the closed-form bound (see _certified_definite) takes the
    definite pencil in the K frame, all such rows in one stacked solve
    (_k_frame_eigensolve); a row whose Cholesky factorization fails, and
    every uncertified row, goes to the general eigensolver on the
    root-free companion form L_g(t) (_direct_eigensolve).  Neither path
    forms H or a root of U.  ``contractions`` are the rows' b when
    the caller has them; otherwise they are measured here, and either
    way the stack keeps them.  With ``nearest`` = k each row holds the
    2k eigenvalues in the middle of its ascending order alone, and the
    stack's eigenvectors are None: on a pencil row, which has n
    eigenvalues on each side of the shift, they are the k nearest it on
    each side, solved for alone (their signatures theta need no
    vectors); the direct rows still compute every eigenpair, with the
    vectors that classify them.
    """
    t = np.asarray(couplings, dtype=float)
    w = shifted_potential(spec, shift, t)
    if contractions is None:
        # as operator_a: ||L^(-1) W|| = ||W L^(-T)||, inf or nan on overflow
        contractions = spectral_norm(spec.l_solve(w))
    contractions = np.asarray(contractions, dtype=float)
    pencil = _certified_definite(spec, contractions)
    solved = []   # (rows, lam, Z, signatures, is_real, witnesses) per path
    rows = pencil.nonzero()[0]
    if rows.size:
        theta, z, factored = _k_frame_eigensolve(spec, w[rows], nearest)
        if factored is not None:
            pencil[rows] = factored
            rows = rows[factored]
        if rows.size:
            # (J z, z) = theta = 1/(lam - mu) for the pencil eigenvectors;
            # certified real and semisimple
            real, none = np.ones(rows.size, dtype=bool), (None,) * rows.size
            solved.append((rows, shift + 1.0 / theta, z, theta, real, none))
    if rows.size < t.size:
        rows = (~pencil).nonzero()[0]
        lam, vecs, signatures, is_real, witnesses = _direct_eigensolve(spec, t[rows])
        if nearest is not None:
            n = spec.order
            middle = slice(n - min(nearest, n), n + min(nearest, n))
            lam, vecs, signatures = lam[:, middle], None, signatures[:, middle]
        solved.append((rows, lam, vecs, signatures, is_real, witnesses))
    k = t.size
    if len(solved) == 1:
        _, lam, vecs, signatures, is_real, witnesses = solved[0]
    else:
        # rows of both paths: scatter them into one stack
        width = solved[0][1].shape[-1]
        lam = np.empty((k, width), np.result_type(*(p[1] for p in solved)))
        if nearest is None:
            vecs = np.empty(
                (k, width, width), np.result_type(*(p[2] for p in solved))
            )
        signatures, is_real = np.empty((k, width)), np.empty(k, dtype=bool)
        witnesses = [None] * k
        for rows, lam_p, vecs_p, signatures_p, real_p, witnesses_p in solved:
            lam[rows], signatures[rows], is_real[rows] = lam_p, signatures_p, real_p
            if nearest is None:
                vecs[rows] = vecs_p
            for row, witness in zip(rows, witnesses_p):
                witnesses[row] = witness
    return SpectrumStack(
        eigenvalues=lam,
        eigenvectors=vecs if nearest is None else None,
        signatures=signatures,
        pencil=pencil,
        is_real=is_real,
        witnesses=tuple(witnesses),
        contractions=contractions,
    )


def eigen_spectrum(system: KleinGordonSystem) -> SpectrumReport:
    """Compute and classify the spectrum of the assembled Hamiltonian.

    The one row of eigen_spectra for the system's own potential at its
    shift and contraction: solves the definite pencil in the K frame
    when G - mu*J is certified positive definite (so the spectrum is
    certified real and semisimple, and so are the sign types);
    otherwise, or when the n x n Cholesky factorization of
    U^2 - (V - mu)^2 fails, falls back to a dense general eigensolver
    on the companion form L_g, similar to H, and flags non-real pairs
    and defective eigenvalues.  Neither path forms H or a root of U.
    """
    mu, spec = system.shift, system.spec
    stack = eigen_spectra(spec, (1.0,), mu, (system.contraction,))
    lam, signatures = stack.eigenvalues[0], stack.signatures[0]
    pencil = bool(stack.pencil[0])
    # the pencil's signatures theta are never zero: its sign types need no tolerance
    signs = _sign_types(signatures, 0.0 if pencil else NEUTRAL_TOL)
    witness = stack.witnesses[0]

    # both paths order lam ascending by real part
    re = np.real(lam)
    pos = re[re > mu]
    neg = re[re < mu][::-1]
    lo = float(neg[0]) if neg.size else -np.inf
    hi = float(pos[0]) if pos.size else np.inf
    return SpectrumReport(
        eigenvalues=lam,
        eigenvectors=stack.eigenvectors[0],
        signatures=signatures,
        sign_types=signs,
        positive_ordered=pos,
        negative_ordered=neg,
        central_gap=(lo, hi),
        defective=witness is not None,
        is_real_spectrum=bool(stack.is_real[0]),
        shift=mu,
        solver_path="similarity" if pencil else "direct",
        spec=spec,
        witness=witness,
    )


def _h_frame(spec: ModelSpec, z):
    """D z = [U^(1/2) z_1; U^(-1/2) z_2] of K-frame columns z = [z_1; z_2]."""
    n = spec.order
    root, inverse_root = spec.half_roots()
    return np.concatenate([root @ z[:n], inverse_root @ z[n:]])


def sign_operator(report: SpectrumReport) -> SignOperator:
    """J1 = sign(H - mu*I) and its norm from a pencil-route report.

    The report's K-frame eigenvectors Z have (J z_k, z_k) = theta_k, and
    D Z, D = diag(U^(1/2), U^(-1/2)), are the H-frame ones, so
    J1 = Y (J Y)^T and ||J1|| = ||Y||^2 with Y = D Z |Theta|^(-1/2): no
    second solve is needed.  The norm is taken at order n: in J's
    eigenbasis the n positive columns [a; b] of D Z become
    [P; Q] = [a + b; a - b] / sqrt(2), whose span, the positive
    spectral subspace, is the graph of the angular operator
    Gamma = Q P^(-1), a strict contraction; then

        ||J1|| = (1 + ||Gamma||) / (1 - ||Gamma||),

    one n x n solve and one n x n norm, and the column scales and the
    1/sqrt(2) cancel in Gamma.  Y itself is formed only when the
    operator's ``y`` or ``j1`` is read.  Raises NotCertified when the
    report came from the direct path, that is when G - mu*J was not
    certified positive definite or the Cholesky factorization of
    U^2 - (V - mu)^2 failed.
    """
    if report.solver_path != "similarity":
        raise NotCertified(
            "gram - shift*J is not certified positive definite: "
            f"the spectrum at shift {report.shift:.17g} took the direct path"
        )
    n = report.spec.order
    # the pencil orders lam ascending, with n eigenvalues on each side of
    # the shift: the last n columns are the positive ones
    dz = _h_frame(report.spec, report.eigenvectors[:, n:])
    a, b = dz[:n], dz[n:]
    # Gamma^T = P^(-T) Q^T has the norm of Gamma
    _, _, gamma_t, info = lapack.dgesv((a + b).T, (a - b).T)
    # a singular P, like ||Gamma|| >= 1, can only come of rounding, and
    # then no finite norm is certified
    g = spectral_norm(gamma_t) if info == 0 else math.inf
    norm_j1 = (1.0 + g) / (1.0 - g) if g < 1.0 else math.inf
    return SignOperator(report=report, norm_j1=norm_j1)


def eigenpair_residuals(spec: ModelSpec, eigenvalues, eigenvectors, potentials=None):
    """Backward errors ||Q(lam_k) x_k|| / ||x_k|| of Q(lam) = (lam - V)^2 - U^2.

    ``eigenvectors`` holds K-frame columns [x_k; (lam_k - V) x_k] (as in
    SpectrumReport), whose top block x_k is the quadratic eigenvector.
    Each value is the normwise backward error of the pair (lam_k, x_k)
    (Tisseur, LAA 309, 2000) and, as sigma_min(Q) = min_x ||Q x|| / ||x||,
    never below pencil_residual(spec, lam_k).  Real and complex pairs;
    three n x n by n x 2n products in all, and the columns passed in
    are not written to.  Stacks (..., 2n) of eigenvalues and
    (..., 2n, 2n) of eigenvectors take a stack (..., n, n) of
    ``potentials`` in place of spec.v, one per row.  A column of
    Q(lam_k) x_k whose squares leave the float range is scaled by a
    power of two, exactly, before its norm is taken.
    """
    lam = np.asarray(eigenvalues)[..., None, :]
    v = spec.v if potentials is None else potentials
    x = eigenvectors[..., : spec.order, :].astype(np.result_type(eigenvectors, lam))
    x_norm = np.linalg.norm(x, axis=-2)
    vx = v @ x
    q = v @ vx
    q -= spec.u_squared @ x
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
    return q_norm / x_norm


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
