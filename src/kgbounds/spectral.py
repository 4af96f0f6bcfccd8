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

The same solve gives the sign operator: the H-frame pencil
eigenvectors are D Z, D = diag(U^(1/2), U^(-1/2)), so with
Y = D Z |Theta|^(-1/2)

    J1 = sign(H - mu*I) = Y (J Y)^T,    ||J1|| = ||Y||^2,

which measures how far the similarity is from an isometry
(1 <= ||J1|| <= 1/(1-b)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .core import (
    PD_RTOL,
    KleinGordonSystem,
    ModelSpec,
    apply_j,
    shifted_potential,
    spectral_norm,
)
from .exceptions import NotCertified

__all__ = [
    "SpectrumReport",
    "SignOperator",
    "DefectWitness",
    "eigen_spectrum",
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


def _k_frame_eigensolve(spec: ModelSpec, shift: float):
    """Eigenpairs of the K-frame pencil (J, K - shift*J).

    Factors -Q(shift) = U^2 - W W = M M^T, W = V - shift*I, solves the
    standard symmetric C y = theta y (see the module docstring) and
    returns (theta, Z = [x; y_2 - W x]) ordered by ascending
    1/theta = lam - shift, with x = M^(-T) y_1 and
    Z^T (K - shift*J) Z = I.  Raises NotCertified when the Cholesky
    factorization fails.  Only the lower triangles of -Q(shift), W and
    C are read.
    """
    n = spec.order
    w = shifted_potential(spec, shift)
    m, info = lapack.dpotrf(spec.u_squared - w @ w.T, lower=1, clean=1)
    if info != 0:
        raise NotCertified(
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
    order = np.argsort(1.0 / theta)
    theta, y = theta[order], y[:, order]
    x = blas.dtrmm(1.0, m_inv, y[:n], lower=1, trans_a=1)   # M^(-T) y_1
    return theta, np.concatenate([x, y[n:] - w @ x])      # [x; (lam - V) x]


def _classify(eigenvectors):
    """(signatures, sign types) of eigenvectors of H against NEUTRAL_TOL.

    s_k = (J x_k, x_k) / (x_k, x_k) = 2 Re(a_k^H b_k) / ||x_k||^2,
    x_k = [a_k; b_k]; the direct path's test, with no certificate.
    """
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
    return signatures, signs


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
    semisimple, and so are the sign types); otherwise, or when the
    n x n Cholesky factorization of U^2 - (V - mu)^2 fails, falls back
    to a dense general eigensolver on H and flags non-real pairs and
    defective eigenvalues.  Only the fallback forms H or a root of U.
    """
    mu, spec = system.shift, system.spec
    path, is_real, witness = "direct", True, None
    if _certified_definite(system):
        try:
            signatures, vecs = _k_frame_eigensolve(spec, mu)
            path = "similarity"
        except NotCertified:
            pass
    if path == "similarity":
        # (J z, z) = theta = 1/(lam - mu) for the pencil eigenvectors
        lam = mu + 1.0 / signatures
        signs = tuple(
            "positive" if t > 0.0 else "negative" for t in signatures.tolist()
        )
    else:
        h = system.hamiltonian
        lam_c, vecs = np.linalg.eig(h)
        order = np.lexsort((lam_c.imag, lam_c.real))
        lam_c = lam_c[order]
        vecs = vecs[:, order]
        vecs /= np.linalg.norm(vecs, axis=0)
        scale = _ham_scale(h)
        is_real = bool(np.abs(lam_c.imag).max(initial=0.0) <= REAL_RTOL * scale)
        lam = lam_c.real if is_real else lam_c
        signatures, signs = _classify(vecs)
        witnesses = [
            DefectWitness(complex(lam[k]), vecs[:, k], "neutral-eigenvector")
            for k, tag in enumerate(signs)
            if tag == "neutral"
        ]
        # the pencil route certifies a symmetric-similar, hence semisimple,
        # operator; multiplicity defects can only arise here
        if not witnesses and is_real:
            if np.any(np.diff(lam) <= MULT_RTOL * scale):
                witnesses = _cluster_defects(lam, h, scale)
        witness = witnesses[0] if witnesses else None
        n = spec.order
        vecs = np.concatenate(
            [spec.u_power(-0.5) @ vecs[:n], spec.u_power(0.5) @ vecs[n:]]
        )

    # both paths order lam ascending by real part
    re = np.real(lam)
    pos = re[re > mu]
    neg = re[re < mu][::-1]
    lo = float(neg[0]) if neg.size else -np.inf
    hi = float(pos[0]) if pos.size else np.inf
    return SpectrumReport(
        eigenvalues=lam,
        eigenvectors=vecs,
        signatures=signatures,
        sign_types=signs,
        positive_ordered=pos,
        negative_ordered=neg,
        central_gap=(lo, hi),
        defective=witness is not None,
        is_real_spectrum=is_real,
        shift=mu,
        solver_path=path,
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


def eigenpair_residuals(spec: ModelSpec, eigenvalues, eigenvectors):
    """Backward errors ||Q(lam_k) x_k|| / ||x_k|| of Q(lam) = (lam - V)^2 - U^2.

    ``eigenvectors`` holds K-frame columns [x_k; (lam_k - V) x_k] (as in
    SpectrumReport), whose top block x_k is the quadratic eigenvector.
    Each value is the normwise backward error of the pair (lam_k, x_k)
    (Tisseur, LAA 309, 2000) and, as sigma_min(Q) = min_x ||Q x|| / ||x||,
    never below pencil_residual(spec, lam_k).  Real and complex pairs;
    three n x n by n x 2n products in all, and the columns passed in
    are not written to.
    """
    lam = np.asarray(eigenvalues)
    x = eigenvectors[: spec.order].astype(np.result_type(eigenvectors, lam))
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
