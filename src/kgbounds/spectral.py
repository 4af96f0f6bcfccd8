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

of order 2n.  Its eigenvectors give the quadratic eigenvectors
x = M^(-T) y_1, (lam - V)^2 x = U^2 x, and (lam - V) x = y_2 - W x;
the reported eigenvectors of H are the unit columns of
[U^(1/2) x; U^(-1/2) (lam - V) x].  The pencil is used exactly when a
closed-form bound certifies G - mu*J positive definite and the
Cholesky factorization succeeds; every other system goes to a general
dense eigensolver on H, which flags non-real pairs instead of hiding
them.

The same solve gives the sign operator: the unit eigenvectors x_k have
J-signatures s_k = (J x_k, x_k) = theta_k / ||z_k||^2, hence

    J1 = sign(H - mu*I) = X |S|^(-1) X^T J = Z |Theta|^(-1) Z^T J,
    ||J1|| = ||X |S|^(-1/2)||^2,

which measures how far the similarity is from an isometry
(1 <= ||J1|| <= 1/(1-b)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .core import (
    PD_RTOL,
    KleinGordonSystem,
    ModelSpec,
    apply_j,
    j_matrix,
    shifted_gram,
    shifted_potential,
    spectral_norm,
)
from .exceptions import NotPositiveDefinite

__all__ = [
    "SpectrumReport",
    "SignOperator",
    "DefectWitness",
    "eigen_spectrum",
    "similarity_eigensolve",
    "sign_operator",
    "eigenpair_residuals",
    "pencil_residual",
]

#: |imag| above REAL_RTOL * ||H|| marks the spectrum as non-real
REAL_RTOL = 1e-8

#: eigenvalues within MULT_RTOL * ||H|| form one multiplicity cluster
MULT_RTOL = 1e-8

#: |(Jx, x)| / ||x||^2 below this marks an eigenvector as neutral
NEUTRAL_TOL = 1e-6


@dataclass(frozen=True)
class SpectrumReport:
    """Classified spectrum of one assembled system.

    ``eigenvalues`` is sorted ascending (by real part when non-real) and
    aligned column-wise with ``eigenvectors`` (unit 2-norm columns).
    ``offsets`` holds lam_k - mu as the solve produced it: 1/theta_k on
    the pencil path, where mu + offsets rounds to ``eigenvalues``, and
    eigenvalues - mu on the direct path.
    ``signatures`` holds s_k = (Jx_k, x_k) / (x_k, x_k) and ``sign_types``
    its class, 'positive' / 'negative' / 'neutral'.  ``positive_ordered``
    / ``negative_ordered`` list the eigenvalues right/left of the shift,
    ordered away from it.  ``central_gap`` is (largest eigenvalue below
    the shift, smallest above it), with -inf/+inf on an empty side; an
    eigenvalue exactly at the shift belongs to neither side.
    ``witness`` is the first defective eigenvalue found, or None;
    ``defective`` says whether there is one.
    """

    eigenvalues: np.ndarray
    offsets: np.ndarray = field(repr=False)
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
    witness: DefectWitness | None = field(default=None, repr=False)


@dataclass(frozen=True)
class SignOperator:
    """J1 = sign(H - mu*I) through its factor Y = X |S|^(-1/2).

    ``y`` holds the unit eigenvectors X scaled by their J-signatures S,
    so that J1 = Y (J Y)^T; ``j1`` forms that 2n x 2n product anew on
    every access.  ``norm_j1`` = ||Y||^2 = ||J1|| needs no product.
    """

    y: np.ndarray = field(repr=False)
    norm_j1: float

    @property
    def j1(self):
        """J1 = Y (J Y)^T = X |S|^(-1) X^T J."""
        return self.y @ apply_j(self.y).T


@dataclass(frozen=True)
class DefectWitness:
    """An eigenvalue flagged as defective and the offending eigenvector."""

    eigenvalue: complex
    vector: np.ndarray = field(repr=False)
    reason: str


def _ham_scale(h) -> float:
    """Spectral norm of H, or a cheap upper estimate for large orders."""
    h = np.asarray(h)
    if h.shape[0] <= 256:
        return spectral_norm(h)
    one = np.abs(h).sum(axis=0).max()
    inf = np.abs(h).sum(axis=1).max()
    return float(np.sqrt(one * inf))


def _certified_definite(system: KleinGordonSystem) -> bool:
    """Closed-form certificate that G - mu*J is safely positive definite.

    The congruence G - mu*J = diag(U,U)^(1/2) [[I, A^T], [A, I]]
    diag(U,U)^(1/2) gives lambda_min(G - mu*J) >= (1 - b) u_min and
    ||G - mu*J|| <= (1 + b) u_max, so a True result implies
    lambda_min(G - mu*J) > PD_RTOL * ||G - mu*J|| without factorizing.
    """
    b = system.contraction
    return (1.0 - b) * system.u_min() > PD_RTOL * (1.0 + b) * system.u_max()


def _definite_pencil(gram, shift: float):
    """Eigenpairs (theta, Z) of J z = theta (G - shift*J) z.

    theta ascends and Z^T (G - shift*J) Z = I.  Raises NotPositiveDefinite
    when the Cholesky factorization of G - shift*J fails.  The tests'
    H-frame oracle for the K-frame solve.
    """
    g = shifted_gram(gram, shift)
    try:
        return scipy.linalg.eigh(j_matrix(g.shape[0] // 2), g)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"gram - shift*J is not positive definite: {exc}"
        ) from exc


def similarity_eigensolve(gram, shift: float = 0.0):
    """Eigenpairs of J G from the definite pencil (J, G - shift*J).

    Returns (eigenvalues ascending, eigenvectors as unit columns), with
    lam = shift + 1/theta.  Raises NotPositiveDefinite when G - shift*J
    is not positive definite.  Kept as the tests' oracle.
    """
    theta, z = _definite_pencil(gram, shift)
    order = np.argsort(1.0 / theta)
    vecs = z[:, order]
    return shift + 1.0 / theta[order], vecs / np.linalg.norm(vecs, axis=0)


def _k_frame_eigensolve(spec: ModelSpec, shift: float):
    """Eigenpairs of H from the K-frame pencil (J, K - shift*J).

    Factors -Q(shift) = U^2 - W W = M M^T, W = V - shift*I, solves the
    standard symmetric C y = theta y (see the module docstring) and
    returns (the offsets lam - shift = 1/theta ascending, unit H-frame
    eigenvectors).  Raises NotPositiveDefinite when the Cholesky
    factorization fails.  Only the lower triangles of -Q(shift), W and C
    are read.
    """
    n = spec.order
    w = shifted_potential(spec, shift)
    m, info = lapack.dpotrf(spec.u_squared - w @ w.T, lower=1, clean=1)
    if info != 0:
        raise NotPositiveDefinite(
            "U^2 - (V - shift*I)^2 is not positive definite: leading minor "
            f"{info} of {n} at shift {shift:.6g}"
        )
    m_inv, _ = lapack.dtrtri(m, lower=1)
    p, _ = lapack.dsygst(w, m, itype=1, lower=1)   # M^(-1) W M^(-T)
    c = np.zeros((2 * n, 2 * n))
    c[:n, :n] = p
    c[:n, :n] *= -2.0
    c[n:, :n] = m_inv.T
    theta, y = np.linalg.eigh(c)
    offsets = 1.0 / theta
    order = np.argsort(offsets)
    offsets, y = offsets[order], y[:, order]
    x = blas.dtrmm(1.0, m_inv, y[:n], lower=1, trans_a=1)   # M^(-T) y_1
    lam_minus_v_x = y[n:] - w @ x                         # (lam - V) x
    vecs = np.concatenate(
        [spec.u_power(0.5) @ x, spec.u_power(-0.5) @ lam_minus_v_x]
    )
    vecs /= np.linalg.norm(vecs, axis=0)
    return offsets, vecs


def _classify(eigenvalues, eigenvectors, shift):
    # s_k = (J x_k, x_k) / (x_k, x_k) = 2 Re(a_k^H b_k) / ||x_k||^2, x_k = [a_k; b_k]
    n = eigenvectors.shape[0] // 2
    top, bottom = eigenvectors[:n], eigenvectors[n:]
    if np.iscomplexobj(eigenvectors):
        top = top.conj()
        sq = np.einsum("ij,ij->j", eigenvectors.conj(), eigenvectors).real
    else:
        sq = np.einsum("ij,ij->j", eigenvectors, eigenvectors)
    signatures = 2.0 * np.einsum("ij,ij->j", top, bottom).real / sq
    signs = tuple(
        "positive" if s > NEUTRAL_TOL else "negative" if s < -NEUTRAL_TOL else "neutral"
        for s in signatures.tolist()
    )
    re = np.real(eigenvalues)
    pos = np.sort(re[re > shift])
    neg = np.sort(re[re < shift])[::-1]
    lo = float(neg[0]) if neg.size else -np.inf
    hi = float(pos[0]) if pos.size else np.inf
    return signatures, signs, pos, neg, (lo, hi)


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


def eigen_spectrum(system: KleinGordonSystem) -> SpectrumReport:
    """Compute and classify the spectrum of the assembled Hamiltonian.

    Solves the definite pencil in the K frame when G - mu*J is
    certified positive definite (so the spectrum is certified real and
    semisimple); otherwise, or when the n x n Cholesky factorization of
    U^2 - (V - mu)^2 fails, falls back to a dense general eigensolver on
    H and flags non-real pairs.  Only the fallback forms H.
    """
    mu = system.shift
    path = "direct"
    is_real = True
    if _certified_definite(system):
        try:
            offsets, vecs = _k_frame_eigensolve(system.spec, mu)
            lam = mu + offsets
            path = "similarity"
        except NotPositiveDefinite:
            pass
    if path == "direct":
        h = system.hamiltonian
        lam_c, vecs = np.linalg.eig(h)
        order = np.lexsort((lam_c.imag, lam_c.real))
        lam_c = lam_c[order]
        vecs = vecs[:, order]
        vecs /= np.linalg.norm(vecs, axis=0)
        scale = _ham_scale(h)
        is_real = bool(np.abs(lam_c.imag).max(initial=0.0) <= REAL_RTOL * scale)
        lam = lam_c.real if is_real else lam_c
        offsets = lam - mu

    signatures, signs, pos, neg, gap = _classify(lam, vecs, mu)

    witnesses = [
        DefectWitness(complex(lam[k]), vecs[:, k], "neutral-eigenvector")
        for k, tag in enumerate(signs)
        if tag == "neutral"
    ]
    # the pencil route certifies a symmetric-similar, hence semisimple,
    # operator; multiplicity defects can only arise on the direct path
    if not witnesses and is_real and path == "direct":
        if np.any(np.diff(np.sort(lam)) <= MULT_RTOL * scale):
            witnesses = _cluster_defects(lam, h, scale)
    witness = witnesses[0] if witnesses else None

    return SpectrumReport(
        eigenvalues=lam,
        offsets=offsets,
        eigenvectors=vecs,
        signatures=signatures,
        sign_types=signs,
        positive_ordered=pos,
        negative_ordered=neg,
        central_gap=gap,
        defective=witness is not None,
        is_real_spectrum=is_real,
        shift=mu,
        solver_path=path,
        witness=witness,
    )


def sign_operator(report: SpectrumReport) -> SignOperator:
    """J1 = sign(H - mu*I) from the eigenvectors of a pencil-route report.

    With unit eigenvectors X and J-signatures S of a report solved on the
    definite pencil, J1 = X |S|^(-1) X^T J and ||J1|| = ||X |S|^(-1/2)||^2,
    so no second solve is needed; only the factor Y = X |S|^(-1/2) and
    its norm are computed here.  Raises NotPositiveDefinite when the
    report came from the direct path, that is when G - mu*J was not
    certified positive definite or the Cholesky factorization of
    U^2 - (V - mu)^2 failed.
    """
    if report.solver_path != "similarity":
        raise NotPositiveDefinite(
            "gram - shift*J is not certified positive definite: "
            f"the spectrum at shift {report.shift:.6g} took the direct path"
        )
    y = report.eigenvectors / np.sqrt(np.abs(report.signatures))
    return SignOperator(y=y, norm_j1=spectral_norm(y) ** 2)


def eigenpair_residuals(spec: ModelSpec, eigenvalues, eigenvectors):
    """Backward errors ||Q(lam_k) x_k|| / ||x_k|| of Q(lam) = (lam - V)^2 - U^2.

    ``eigenvectors`` holds H-frame columns [a_k; b_k] (as in
    SpectrumReport); x_k = U^(-1/2) a_k is the matching quadratic
    eigenvector, since H [a; b] = lam [a; b] gives Q(lam) U^(-1/2) a = 0.
    Each value is the normwise backward error of the pair (lam_k, x_k)
    (Tisseur, LAA 309, 2000) and, as sigma_min(Q) = min_x ||Q x|| / ||x||,
    never below pencil_residual(spec, lam_k).  Real and complex pairs;
    one U^(-1/2) product and three n x n by n x 2n products in all.
    """
    lam = np.asarray(eigenvalues)
    x = spec.u_power(-0.5) @ eigenvectors[: spec.order]
    x = x.astype(np.result_type(x, lam), copy=False)
    x_norm = np.linalg.norm(x, axis=0)
    vx = spec.v @ x
    q = spec.v @ vx
    q -= spec.u_squared @ x
    vx *= 2.0 * lam
    q -= vx
    x *= lam * lam
    q += x
    return np.linalg.norm(q, axis=0) / x_norm


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
