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
goes to a general dense eigensolver on H, which flags non-real pairs
instead of hiding them, classifies the unit eigenvectors [a; b] of H
against NEUTRAL_TOL and reports z = E [a; b], E = diag(U^(-1/2), U^(1/2)),
which keeps (J z, z) because E J E = J.

Every solve is stacked.  eigen_spectra takes the potentials t V of one
model, one per coupling t, at one shift: the certified rows go through
one stacked Cholesky factorization, inverse of the factor, eigh and a
few stacked products (numpy's gufuncs), the other rows through one stacked
eig, and the per-row work after the solve (ordering, signatures,
witnesses) is stacked too; only a multiplicity cluster takes an SVD of
its own.  A stack of one calls LAPACK's dpotrf, dtrtri and dsyevd
directly, which at small orders cost a fifth of numpy's stacked calls.
eigen_spectrum is the stack of one of a system's own potential, and the
coupling sweep solves its steps in blocks.  A caller that reads the
eigenvalues alone (the oscillator table of example 1) asks for no
vectors: the pencil rows then take LAPACK's eigenvalue-only dsyevr, and
neither X nor Z is formed, since the signatures theta are the
eigenvalues of C themselves.

The same solve gives the sign operator: the H-frame pencil
eigenvectors are D Z, D = diag(U^(1/2), U^(-1/2)), so with
Y = D Z |Theta|^(-1/2)

    J1 = sign(H - mu*I) = Y (J Y)^T,    ||J1|| = ||Y||^2,

which measures how far the similarity is from an isometry
(1 <= ||J1|| <= 1/(1-b)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .core import (
    PD_RTOL,
    KleinGordonSystem,
    ModelSpec,
    apply_j,
    hamiltonians,
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

#: |imag| above REAL_RTOL * ||H|| marks the spectrum as non-real
REAL_RTOL = 1e-8

#: eigenvalues within MULT_RTOL * ||H|| form one multiplicity cluster
MULT_RTOL = 1e-8

#: on the direct path, |(Jx, x)| / ||x||^2 below this marks an
#: eigenvector of H as neutral
NEUTRAL_TOL = 1e-6

@dataclass(frozen=True)
class SpectrumReport:
    """Classified spectrum of one assembled system.

    ``eigenvalues`` is sorted ascending (by real part when non-real) and
    aligned column-wise with ``eigenvectors``, the K-frame eigenvectors
    z_k = [x_k; (lam_k - V) x_k] of the pencil (J, K - mu*J), x_k the
    quadratic eigenvector: on the pencil path normalized by
    Z^T (K - mu*J) Z = I, on the direct path the image
    [U^(-1/2) a_k; U^(1/2) b_k] of the unit eigenvector [a_k; b_k] of H.
    ``signatures`` holds (J z_k, z_k): theta_k = 1/(lam_k - mu) on the
    pencil path, the unit H-frame signature on the direct path.
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
    """J1 = sign(H - mu*I) through its factor Y.

    ``y`` holds the H-frame pencil eigenvectors scaled to J-signature
    +-1, so that J1 = Y (J Y)^T; ``j1`` forms that 2n x 2n product anew
    on every access.  ``norm_j1`` = ||Y||^2 = ||J1|| needs no product.
    """

    y: np.ndarray = field(repr=False)
    norm_j1: float

    @property
    def j1(self):
        """J1 = Y (J Y)^T."""
        return self.y @ apply_j(self.y).T


@dataclass(frozen=True)
class DefectWitness:
    """An eigenvalue flagged as defective and the offending eigenvector of H."""

    eigenvalue: complex
    vector: np.ndarray = field(repr=False)
    reason: str


def _certified_definite(spec: ModelSpec, contractions):
    """Closed-form certificate that G - mu*J is safely positive definite, per b.

    The congruence G - mu*J = diag(U,U)^(1/2) [[I, A^T], [A, I]]
    diag(U,U)^(1/2) gives lambda_min(G - mu*J) >= (1 - b) u_min and
    ||G - mu*J|| <= (1 + b) u_max, so a True entry implies
    lambda_min(G - mu*J) > PD_RTOL * ||G - mu*J|| for that contraction
    b without factorizing.
    """
    u_min = math.sqrt(spec.u2_eigenvalues[0])
    u_max = math.sqrt(spec.u2_eigenvalues[-1])
    b = contractions
    return (1.0 - b) * u_min > PD_RTOL * (1.0 + b) * u_max


@dataclass(frozen=True)
class SpectrumStack:
    """Spectra of the potentials t V of one model at one shift, one row per t.

    Row k holds, for the potential t_k V of the k-th coupling, what a
    SpectrumReport holds: ``eigenvalues`` sorted ascending by real part
    (a complex array when some row is non-real, the imaginary parts of
    real rows being zero), the K-frame ``eigenvectors`` z_k as columns
    (None for a solve without vectors), their ``signatures``
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


def _ham_scale(h):
    """Spectral norm of each H of a stack, or a cheap upper estimate at large orders."""
    if h.shape[-1] <= 256:
        return spectral_norm(h)
    one = np.abs(h).sum(axis=-2).max(axis=-1)
    inf = np.abs(h).sum(axis=-1).max(axis=-1)
    return np.sqrt(one * inf)


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


def _eigh(c, vectors: bool = True):
    """Ascending eigenvalues and eigenvectors of each symmetric matrix of a stack.

    Only the lower triangles are read.  A stack of one goes to LAPACK
    directly, dsyevd with vectors and dsyevr without: at small orders
    numpy's stacked call costs several times the solve itself, and at
    order 2000 dsyevr without vectors takes about half the time of
    dsyevd, with or without them.  With ``vectors=False`` the
    eigenvectors are None.
    """
    if len(c) == 1:
        if vectors:
            theta, y, info = lapack.dsyevd(c[0], compute_v=1, lower=1)
        else:
            theta, y, _, _, info = lapack.dsyevr(c[0], compute_v=0, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return theta[None], y[None] if vectors else None
    if vectors:
        return np.linalg.eigh(c)
    return np.linalg.eigvalsh(c), None


def _k_frame_eigensolve(spec: ModelSpec, w, vectors: bool = True):
    """Eigenpairs of the K-frame pencils (J, K - shift*J) of a stack of W.

    ``w`` holds W = V_k - shift*I, shape (k, n, n).  Factors each
    -Q(shift) = U^2 - W W = M M^T, solves the standard symmetric
    C y = theta y (see the module docstring) and returns
    (theta, Z = [x; y_2 - W x], factored): ``factored`` marks the rows
    whose Cholesky factorization succeeded (None when all did), and
    theta and Z hold those rows alone, each ordered by ascending
    1/theta = lam - shift, with x = M^(-T) y_1 and
    Z^T (K - shift*J) Z = I.  With ``vectors=False`` C is solved for
    its eigenvalues alone and Z is None.  Only the lower triangles of
    -Q(shift) and C are read.
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
    theta, y = _eigh(c, vectors)
    rows, order = np.arange(len(c))[:, None], np.argsort(1.0 / theta, axis=-1)
    theta = theta[rows, order]
    if not vectors:
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


def _cluster_defects(eigenvalues, hamiltonian, scale):
    """Witnesses for repeated eigenvalues with too few eigenvectors.

    One SVD of H - center*I per cluster gives both the geometric
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
        shifted = hamiltonian - center * np.eye(hamiltonian.shape[0])
        _, sv, vh = np.linalg.svd(shifted)
        geometric = int(np.sum(sv < tol))
        if geometric < cluster.size:
            witnesses.append(
                DefectWitness(complex(center), vh[-1].conj(), "multiplicity-defect")
            )
    return witnesses


def _direct_eigensolve(spec: ModelSpec, couplings):
    """The general dense eigensolver on H(t) for each coupling t.

    Returns (lam, Z, signatures, is_real, witnesses) per row: lam sorted
    by real part, then imaginary part, and real on the rows whose
    imaginary parts stay within REAL_RTOL * ||H||; Z = E [a; b],
    E = diag(U^(-1/2), U^(1/2)), from the unit eigenvectors [a; b] of H
    that eig returns; their H-frame signatures; and the first eigenvalue
    of each row with a neutral eigenvector (against NEUTRAL_TOL) or, on
    a real row without one, with a multiplicity cluster short of
    eigenvectors.  Raises KGError when an entry of H is beyond the float
    range, as U^(1/2) V U^(-1/2) can be for a finite potential.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h = hamiltonians(spec, couplings)
    if not np.isfinite(h).all():
        raise KGError(
            "the Hamiltonian H = JG is beyond the float range: "
            "U^(1/2) V U^(-1/2) has a non-finite entry"
        )
    lam, vecs = np.linalg.eig(h)
    rows, order = np.arange(len(h))[:, None], np.lexsort((lam.imag, lam.real))
    lam, vecs = lam[rows, order], vecs.swapaxes(-1, -2)[rows, order].swapaxes(-1, -2)
    scale = _ham_scale(h)
    is_real = np.abs(lam.imag).max(axis=-1, initial=0.0) <= REAL_RTOL * scale
    if np.iscomplexobj(lam):
        lam = lam.real if is_real.all() else np.where(is_real[:, None], lam.real, lam)
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
            found = _cluster_defects(re, h[k], scale[k])
            witnesses[k] = found[0] if found else None
    n = spec.order
    vecs = np.concatenate(
        [spec.u_power(-0.5) @ vecs[:, :n], spec.u_power(0.5) @ vecs[:, n:]], axis=1
    )
    return lam, vecs, signatures, is_real, witnesses


def eigen_spectra(
    spec: ModelSpec,
    couplings,
    shift: float = 0.0,
    contractions=None,
    vectors: bool = True,
) -> SpectrumStack:
    """The spectra of the potentials t V of spec, one per coupling t.

    The stacked solver behind every spectrum: each row with contraction
    b(t) = ||(t V - shift) U^(-1)|| certified by the closed-form bound
    (see _certified_definite) takes the definite pencil in the K frame,
    all such rows in one stacked solve (_k_frame_eigensolve); a row
    whose Cholesky factorization fails, and every uncertified row, goes
    to the general eigensolver on H(t) (_direct_eigensolve), which
    alone forms H or a root of U.  ``contractions`` are the rows' b when
    the caller has them; otherwise they are measured here, and either
    way the stack keeps them.  With ``vectors=False`` the pencil rows
    are solved for their eigenvalues alone (their signatures theta need
    no vectors) and the stack's eigenvectors are None; the direct rows
    still compute the vectors that classify them.
    """
    t = np.asarray(couplings, dtype=float)
    w = shifted_potential(spec, shift, t)
    if contractions is None:
        with np.errstate(over="ignore"):   # as operator_a: b = inf on overflow
            contractions = spectral_norm(w @ spec.u_power(-1))
    contractions = np.asarray(contractions, dtype=float)
    pencil = _certified_definite(spec, contractions)
    solved = []   # (rows, lam, Z, signatures, is_real, witnesses) per path
    rows = pencil.nonzero()[0]
    if rows.size:
        theta, z, factored = _k_frame_eigensolve(spec, w[rows], vectors)
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
        solved.append((rows, *_direct_eigensolve(spec, t[rows])))
    k = t.size
    if len(solved) == 1:
        _, lam, vecs, signatures, is_real, witnesses = solved[0]
    else:
        # rows of both paths: scatter them into one stack
        two_n = 2 * spec.order
        lam = np.empty((k, two_n), np.result_type(*(p[1] for p in solved)))
        if vectors:
            vecs = np.empty(
                (k, two_n, two_n), np.result_type(*(p[2] for p in solved))
            )
        signatures, is_real = np.empty((k, two_n)), np.empty(k, dtype=bool)
        witnesses = [None] * k
        for rows, lam_p, vecs_p, signatures_p, real_p, witnesses_p in solved:
            lam[rows], signatures[rows], is_real[rows] = lam_p, signatures_p, real_p
            if vectors:
                vecs[rows] = vecs_p
            for row, witness in zip(rows, witnesses_p):
                witnesses[row] = witness
    return SpectrumStack(
        eigenvalues=lam,
        eigenvectors=vecs if vectors else None,
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
    on H and flags non-real pairs and defective eigenvalues.  Only the
    fallback forms H or a root of U.
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


def sign_operator(report: SpectrumReport) -> SignOperator:
    """J1 = sign(H - mu*I) from the eigenvectors of a pencil-route report.

    The report's K-frame eigenvectors Z have (J z_k, z_k) = theta_k, and
    D Z, D = diag(U^(1/2), U^(-1/2)), are the H-frame ones, so
    J1 = Y (J Y)^T and ||J1|| = ||Y||^2 with Y = D Z |Theta|^(-1/2): no
    second solve is needed, only the factor Y and its norm.  Raises
    NotCertified when the report came from the direct path, that is
    when G - mu*J was not certified positive definite or the Cholesky
    factorization of U^2 - (V - mu)^2 failed.
    """
    if report.solver_path != "similarity":
        raise NotCertified(
            "gram - shift*J is not certified positive definite: "
            f"the spectrum at shift {report.shift:.17g} took the direct path"
        )
    spec, z = report.spec, report.eigenvectors
    n = spec.order
    y = np.concatenate([spec.u_power(0.5) @ z[:n], spec.u_power(-0.5) @ z[n:]])
    y /= np.sqrt(np.abs(report.signatures))
    return SignOperator(y=y, norm_j1=spectral_norm(y) ** 2)


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
    ``potentials`` in place of spec.v, one per row.
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
    return np.linalg.norm(q, axis=-2) / x_norm


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
