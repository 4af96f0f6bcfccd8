"""Independent H-frame oracles for the tests.

The library works with the Cholesky factor L L^T = U^2: it solves the
definite pencil in the frame K = [[U^2, V], [V, I]], the direct path on
the root-free companion form L_g, and never forms G, H or a power of U
(two H-frame rows of ``kg bounds`` read U^2's eigenbasis).  These routines work in the
frame of G = J H instead, with powers of U from the eigendecomposition
of U^2, generalized eigensolves and matrix square roots, so the tests
can hold the library's numbers against a second, independent route.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from kgbounds import ContractionNotLessThanOne, NotPositiveDefinite, ValidationError
from kgbounds import spectral
from kgbounds.core import (
    PD_RTOL,
    check_symmetric,
    operator_a,
    shifted_potential,
    spectral_norm,
    symmetrize,
)
from kgbounds.spectral import (
    NEUTRAL_TOL,
    REAL_RTOL,
    _signatures,
    _sign_types,
    eigen_spectra,
)


def j_matrix(n: int):
    """The block swap symmetry [[0, I], [I, 0]] of order 2n."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def shifted_gram(gram, shift: float):
    """G - shift*J as a new array, for a 2n x 2n gram matrix G."""
    g = np.array(gram, dtype=float)
    n = g.shape[0] // 2
    idx = np.arange(n)
    g[idx, idx + n] -= shift
    g[idx + n, idx] -= shift
    return g


def _spd_eig(m, name: str = "matrix"):
    """Eigendecomposition of a symmetric positive definite matrix.

    Raises NotPositiveDefinite when the smallest eigenvalue does not
    clear PD_RTOL * ||m||, the test ModelSpec validates U^2 with.
    """
    w, p = np.linalg.eigh(m)
    norm = max(abs(w[0]), abs(w[-1]))
    if w[0] <= PD_RTOL * norm or w[0] <= 0.0:
        raise NotPositiveDefinite(
            f"{name} is not positive definite: min eigenvalue {w[0]:.3e} "
            f"(tolerance {PD_RTOL * norm:.3e})"
        )
    return w, p


def sqrt_spd(m, name: str = "matrix"):
    """Principal square root of a symmetric positive definite matrix.

    Computed from the full symmetric eigendecomposition; the result R is
    symmetric positive definite with R @ R = m to working accuracy.
    """
    w, p = _spd_eig(check_symmetric(m, name), name)
    return symmetrize((p * np.sqrt(w)) @ p.T)


def u_power(spec, exponent: float):
    """U^exponent, exponent in {+-1/2, +-1, +-2}, from the eigendecomposition of U^2."""
    w, p = _spd_eig(spec.u_squared, "u_squared")
    d = w ** (exponent / 2.0)
    return symmetrize((p * d) @ p.T)


def l_frame(spec, m):
    """m L^(-T), L L^T = U^2: the frame of the library's A and dA."""
    return scipy.linalg.solve_triangular(spec.cholesky, m, lower=True).T


def hamiltonian(spec, coupling: float = 1.0):
    """H = [[t X, U], [U, t X^T]], X = U^(1/2) V U^(-1/2), of the potential t V."""
    x = coupling * (u_power(spec, 0.5) @ spec.v @ u_power(spec, -0.5))
    u = u_power(spec, 1.0)
    return np.block([[x, u], [u, x.T]])


def gram(spec, coupling: float = 1.0):
    """G = J H = [[U, t X^T], [t X, U]], exactly symmetric."""
    h = hamiltonian(spec, coupling)
    n = spec.order
    return np.concatenate([h[n:], h[:n]])


def direct_h_frame(spec, coupling: float = 1.0):
    """(lam, sign_types, is_real) from a general eigensolve of H itself.

    lam sorted by real part, then imaginary part; is_real when every
    imaginary part is within REAL_RTOL * ||H||; the unit eigenvectors
    of H classified against NEUTRAL_TOL.
    """
    h = hamiltonian(spec, coupling)
    lam, vecs = np.linalg.eig(h)
    order = np.lexsort((lam.imag, lam.real))
    lam, vecs = lam[order], vecs[:, order]
    is_real = bool(np.abs(lam.imag).max() <= REAL_RTOL * spectral_norm(h))
    return lam, _sign_types(_signatures(vecs), NEUTRAL_TOL), is_real


def contraction_bound(spec, shift: float = 0.0) -> float:
    """b = ||(V - shift*I) U^(-1)||; may be >= 1."""
    return spectral_norm(operator_a(spec, shift))


def eigenpairs(spec, shift: float = 0.0, couplings=None):
    """(lam, Z) of the rows eigen_spectra(spec, couplings, shift) solves.

    The library's spectra carry no eigenvectors; these come from its own
    solvers on each row's route: the pencil rows' Z = [x; y_2 - W x]
    from spectral._pencil_eigenvectors and the rows' own factors M, the
    direct rows' [x; g y] from spectral._direct_eigensolve, each with
    the eigenvalues of that solve.  Without ``couplings`` the pair of
    spec's own potential, shapes (2n,) and (2n, 2n); with them a stack
    (k, 2n) and (k, 2n, 2n).
    """
    t = np.atleast_1d(np.asarray(1.0 if couplings is None else couplings, dtype=float))
    stack = eigen_spectra(spec, t, shift)
    lam = np.empty(stack.eigenvalues.shape, stack.eigenvalues.dtype)
    z = np.empty(lam.shape + lam.shape[-1:], lam.dtype)
    rows = stack.pencil.nonzero()[0]
    if rows.size:
        m = [stack.pencil_factors[k] for k in rows]
        if spectral._tridiagonal_rows(spec):
            w = np.multiply.outer(t[rows], spec.v_band) - shift
        else:
            w, m = shifted_potential(spec, shift, t[rows]), np.array(m)
        sigma, z[rows] = spectral._pencil_eigenvectors(spec, m, w)
        lam[rows] = shift + sigma
    rows = (~stack.pencil).nonzero()[0]
    if rows.size:
        lam[rows], z[rows] = spectral._direct_eigensolve(spec, t[rows])[:2]
    return (lam, z) if couplings is not None else (lam[0], z[0])


def h_frame(spec, z):
    """K-frame eigenvectors Z (eigenpairs) mapped to the H frame.

    D Z with D = diag(U^(1/2), U^(-1/2)): H-frame pencil eigenvectors on
    the pencil path, the unit eigenvectors of H (to rounding) on the
    direct path.
    """
    n = spec.order
    return np.concatenate([u_power(spec, 0.5) @ z[:n], u_power(spec, -0.5) @ z[n:]])


def _definite_pencil(gram, shift: float):
    """Eigenpairs (theta, Z) of J z = theta (G - shift*J) z.

    theta ascends and Z^T (G - shift*J) Z = I.  Raises NotPositiveDefinite
    when the Cholesky factorization of G - shift*J fails.
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
    is not positive definite.
    """
    theta, z = _definite_pencil(gram, shift)
    order = np.argsort(1.0 / theta)
    vecs = z[:, order]
    return shift + 1.0 / theta[order], vecs / np.linalg.norm(vecs, axis=0)


def factor_congruence(spec, shift: float, m, dv):
    """F^(-1) dK F^(-T) formed densely, F = [[M, W], [0, I]], W = V - shift*I.

    ``m`` is a dense lower triangular M with M M^T = U^2 - W W, so that
    K - shift*J = F F^T; dK = [[0, dV], [dV, 0]] is the potential change
    in the K frame.  F is inverted by two general dense solves.
    """
    n = spec.order
    w = spec.v - shift * np.eye(n)
    f = np.block([[m, w], [np.zeros((n, n)), np.eye(n)]])
    dk = np.block([[np.zeros((n, n)), dv], [dv, np.zeros((n, n))]])
    return np.linalg.solve(f, np.linalg.solve(f, dk).T)


def exact_kappa_pm(g, delta_g):
    """Extreme eigenvalues of the pencil dG x = lam G x (G positive definite).

    Equivalently the extreme eigenvalues of G^(-1/2) dG G^(-1/2): the
    exact range of dg(psi,psi) / g(psi,psi), hence the brute-force oracle
    every closed-form constant must dominate.
    """
    g = check_symmetric(g, "g")
    delta_g = check_symmetric(delta_g, "delta_g")
    if g.shape != delta_g.shape:
        raise ValidationError(
            f"g has order {g.shape[0]} but delta_g has order {delta_g.shape[0]}"
        )
    _spd_eig(g, "g")
    w = scipy.linalg.eigh(delta_g, g, eigvals_only=True)
    return float(w[0]), float(w[-1])


@dataclass(frozen=True)
class BlockStructure:
    """Constants from the block Cholesky factorization of [[I, A^T], [A, I]].

    a_minus / a_plus bound the (1,1) block of the congruence-transformed
    perturbation, norm_b is ||dA (I - A^T A)^(-1/2)|| and norm_b_bound its
    closed-form majorant ||dA|| / sqrt(1 - b^2).  kappa_minus / kappa_plus
    are the certified form-quotient extremes built from the actual norms.
    """

    a_minus: float
    a_plus: float
    norm_b: float
    norm_b_bound: float
    kappa_minus: float
    kappa_plus: float

    def t_bound(self, a: float) -> float:
        """Largest eigenvalue of the arrow matrix [[a*I, B^T], [B, 0]].

        Equals (a + sqrt(a^2 + 4 w^2)) / 2 with the conservative
        w = norm_b_bound >= ||B||; at a = 2 b ||dA|| / (1 - b^2) it
        reproduces ||dA|| / (1 - b) exactly.
        """
        w = self.norm_b_bound
        return 0.5 * (a + math.sqrt(a * a + 4.0 * w * w))


def block_structure_analysis(a_matrix, delta_a) -> BlockStructure:
    """Extreme bounds on dg/g exploiting the off-diagonal block structure.

    Forms M11 = -(I - A^T A)^(-1/2) (dA^T A + A^T dA) (I - A^T A)^(-1/2)
    and B = dA (I - A^T A)^(-1/2); the certified form-quotient range is
    [(a_minus - sqrt(a_minus^2 + 4||B||^2))/2,
     (a_plus + sqrt(a_plus^2 + 4||B||^2))/2].
    """
    a_matrix = np.asarray(a_matrix, dtype=float)
    delta_a = np.asarray(delta_a, dtype=float)
    b = spectral_norm(a_matrix)
    if b >= 1.0:
        raise ContractionNotLessThanOne(f"||A|| = {b} is not < 1")
    s = symmetrize(np.eye(a_matrix.shape[0]) - a_matrix.T @ a_matrix)
    w, p = np.linalg.eigh(s)
    inv_root = (p / np.sqrt(w)) @ p.T
    mixed = symmetrize(delta_a.T @ a_matrix + a_matrix.T @ delta_a)
    m11 = symmetrize(-inv_root @ mixed @ inv_root)
    eigs = np.linalg.eigvalsh(m11)
    a_minus, a_plus = float(eigs[0]), float(eigs[-1])
    norm_b = spectral_norm(delta_a @ inv_root)
    c = spectral_norm(delta_a)
    return BlockStructure(
        a_minus=a_minus,
        a_plus=a_plus,
        norm_b=norm_b,
        norm_b_bound=c / math.sqrt(1.0 - b * b),
        kappa_minus=0.5 * (a_minus - math.sqrt(a_minus**2 + 4.0 * norm_b**2)),
        kappa_plus=0.5 * (a_plus + math.sqrt(a_plus**2 + 4.0 * norm_b**2)),
    )
