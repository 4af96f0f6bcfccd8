import dataclasses
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgbounds import (
    HarmonicParams,
    ModelSpec,
    NotCertified,
    assemble_system,
    core,
    eigen_spectrum,
    gap_bound,
    harmonic_model,
    pencil_residual,
    sign_operator,
    spectral,
    spectral_norm,
    square_well_model,
)
from oracles import (
    direct_h_frame,
    eigenpairs,
    gram,
    h_frame,
    hamiltonian,
    j_matrix,
    similarity_eigensolve,
    u_power,
)
from conftest import random_model, random_orthogonal, random_spd
from test_core import square_well_pencil_roots

eigenpair_residuals = spectral.eigenpair_residuals


def free_spec(diag):
    n = len(diag)
    return ModelSpec(u_squared=np.diag(np.asarray(diag, dtype=float)), v=np.zeros((n, n)))


class TestEigenSpectrum:
    def test_free_case(self):
        report = eigen_spectrum(assemble_system(free_spec([1.0, 3.0]), 0.0))
        np.testing.assert_allclose(
            report.eigenvalues, [-np.sqrt(3), -1.0, 1.0, np.sqrt(3)], atol=1e-10
        )
        assert report.sign_types == ("negative", "negative", "positive", "positive")
        assert report.is_real_spectrum and not report.defective
        assert report.solver_path == "similarity"

    def test_square_well_tau_zero(self):
        report = eigen_spectrum(assemble_system(square_well_model(0.0), 0.0))
        np.testing.assert_allclose(
            report.eigenvalues, square_well_pencil_roots(0.0), atol=1e-10
        )

    def test_defective_coupling(self):
        # at tau = 2 the inner eigenvalues collide at -1 and the
        # eigenvector turns J-neutral
        system = assemble_system(square_well_model(2.0), -1.0)
        report = eigen_spectrum(system)
        assert report.solver_path == "direct"
        assert report.is_real_spectrum
        near = np.abs(np.real(report.eigenvalues) + 1.0) < 1e-6
        assert near.sum() == 2
        assert report.defective

    def test_nonreal_beyond_critical_coupling(self):
        report = eigen_spectrum(assemble_system(square_well_model(2.2), 0.0))
        assert not report.is_real_spectrum
        assert np.abs(np.imag(report.eigenvalues)).max() > 1e-3

    def test_residuals_small(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(5):
            spec, _ = random_model(rng)
            system = assemble_system(spec, 0.0)
            report = eigen_spectrum(system)
            h, vecs = hamiltonian(spec), h_frame(spec, eigenpairs(spec)[1])
            residual = np.linalg.norm(h @ vecs - vecs * report.eigenvalues, axis=0)
            assert residual.max() <= 1e-8 * spectral_norm(h)

    def test_similarity_agrees_with_direct_eigensolver(self):
        # up to b = 1 - 1e-6, where the certificate still holds, and with
        # U^2 scaled by 1e-4 .. 1e4 (V scaled along, which keeps b)
        rng = np.random.Generator(np.random.PCG64(10))
        for b_lo, b_hi in ((0.05, 0.9), (0.9, 0.999), (0.999, 1.0 - 1e-6)):
            for _ in range(15):
                base, _ = random_model(rng, b_lo=b_lo, b_hi=b_hi)
                for s in (1e-4, 1.0, 1e4):
                    spec = ModelSpec(s * base.u_squared, np.sqrt(s) * base.v)
                    system = assemble_system(spec, 0.0)
                    report = eigen_spectrum(system)
                    assert report.solver_path == "similarity"
                    direct = np.sort(np.linalg.eigvals(hamiltonian(system.spec)).real)
                    scale = spectral_norm(hamiltonian(system.spec))
                    err = np.abs(np.sort(report.eigenvalues) - direct).max()
                    assert err <= 1e-8 * scale

    def test_k_frame_matches_the_h_frame_pencil(self, corpus200):
        # the K-frame solve against the generalized eigensolve of
        # (J, G - mu*J): same eigenvalues, and the K-frame eigenvectors
        # mapped to the H frame are parallel to the oracle's
        for spec, _ in corpus200:
            for mu in (0.0, 0.1):
                system = assemble_system(spec, mu)
                report = eigen_spectrum(system)
                assert report.solver_path == "similarity"
                lam, vecs = similarity_eigensolve(gram(system.spec), mu)
                scale = np.abs(lam).max()
                assert np.abs(report.eigenvalues - lam).max() <= 1e-13 * scale
                mapped = h_frame(spec, eigenpairs(spec, mu)[1])
                mapped /= np.linalg.norm(mapped, axis=0)
                cosines = np.abs(np.einsum("ij,ij->j", mapped, vecs))
                assert np.abs(cosines - 1.0).max() <= 1e-10

    def test_route_follows_certificate(self):
        # at the paper shift the well has b = tau/2: every b < 1 is
        # certified and takes the pencil route, with a real, non-defective
        # spectrum; b = 1 is not certified and takes the direct path
        for tau in (1.95, 1.97, 1.99, 1.9999):
            system = assemble_system(square_well_model(tau), -tau / 2.0)
            report = eigen_spectrum(system)
            assert report.solver_path == "similarity"
            assert report.is_real_spectrum and not report.defective
            np.testing.assert_allclose(
                report.eigenvalues, square_well_pencil_roots(tau).real, atol=1e-8
            )
        report = eigen_spectrum(assemble_system(square_well_model(2.0), -1.0))
        assert report.solver_path == "direct"
        np.testing.assert_allclose(
            np.real(report.eigenvalues), square_well_pencil_roots(2.0).real, atol=1e-6
        )

    def test_sign_consistency(self):
        # with b < 1 every eigenvector is definitely signed, matching the
        # side of the shift its eigenvalue lies on
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(20):
            spec, _ = random_model(rng)
            system = assemble_system(spec, 0.0)
            report = eigen_spectrum(system)
            for lam, tag in zip(report.eigenvalues, report.sign_types):
                assert tag == ("positive" if lam > 0 else "negative")

    def test_pencil_sign_types_need_no_tolerance(self, corpus200, monkeypatch):
        # (J z, z) = theta on the pencil path, so the sign types are the
        # signs of theta: even NEUTRAL_TOL = 1 leaves them unchanged
        systems = [assemble_system(s, 0.0) for s, _ in corpus200[:50]]
        systems += [
            assemble_system(square_well_model(tau), -tau / 2.0)
            for tau in (1.0, 1.99, 1.9999)
        ]
        before = [eigen_spectrum(system) for system in systems]
        assert all(r.solver_path == "similarity" for r in before)
        monkeypatch.setattr(spectral, "NEUTRAL_TOL", 1.0)
        for system, report in zip(systems, before):
            after = eigen_spectrum(system)
            assert after.sign_types == report.sign_types
            np.testing.assert_array_equal(after.signatures, report.signatures)
            assert "neutral" not in after.sign_types

    def test_gap_exclusion(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(50):
            spec, _ = random_model(rng)
            system = assemble_system(spec, 0.0)
            alpha = gap_bound(system)
            report = eigen_spectrum(system)
            assert np.abs(report.eigenvalues).min() >= alpha * (1.0 - 1e-10)

    def test_pencil_consistency(self):
        rng = np.random.Generator(np.random.PCG64(12))
        for _ in range(10):
            spec, _ = random_model(rng)
            report = eigen_spectrum(assemble_system(spec, 0.0))
            scale = (
                spectral_norm(spec.u_squared) + spectral_norm(spec.v) ** 2
            )
            for lam in report.eigenvalues:
                assert pencil_residual(spec, lam) <= 1e-8 * (scale + abs(lam) ** 2)


def column_loop_signatures(eigenvectors):
    """The per-column reference: (J x, x) / (x, x) by vdot."""
    return np.array(
        [
            np.real(np.vdot(x, j_matrix(x.size // 2) @ x)) / np.real(np.vdot(x, x))
            for x in eigenvectors.T
        ]
    )


class TestClassify:
    def test_matches_the_column_loop(self, corpus200):
        # two column reductions against one vdot per column, on the
        # H-frame eigenvectors: the sums run in another order, so the
        # signatures agree to a few ulps of their unit scale and every
        # sign type is the same
        specs = [s for s, _ in corpus200[:50]]
        specs += [square_well_model(tau) for tau in (2.0, 2.2, 3.0)]   # direct path
        frames = [h_frame(spec, eigenpairs(spec)[1]) for spec in specs]
        assert any(np.iscomplexobj(vecs) for vecs in frames)
        for vecs in frames:
            loop = column_loop_signatures(vecs)
            signatures = spectral._signatures(vecs)
            signs = spectral._sign_types(signatures, spectral.NEUTRAL_TOL)
            assert np.abs(signatures - loop).max() <= 8 * np.finfo(float).eps
            assert signs == tuple(
                "positive" if s > spectral.NEUTRAL_TOL
                else "negative" if s < -spectral.NEUTRAL_TOL
                else "neutral"
                for s in loop
            )


def sign_factor(report):
    """(Y, J1) of a pencil-route report from the oracle H frame.

    Y = D Z |Theta|^(-1/2), the H-frame eigenvectors scaled to
    J-signature +-1, and J1 = sign(H - mu*I) = Y (J Y)^T.
    """
    spec = report.spec
    y = h_frame(spec, eigenpairs(spec, report.shift)[1])
    y /= np.sqrt(np.abs(report.signatures))
    return y, y @ (j_matrix(report.spec.order) @ y).T


class TestSignOperator:
    def test_free_case_returns_j(self):
        report = eigen_spectrum(assemble_system(free_spec([1.0, 3.0]), 0.0))
        np.testing.assert_allclose(sign_factor(report)[1], j_matrix(2), atol=1e-12)
        assert abs(sign_operator(report) - 1.0) <= 1e-12

    def test_j1_is_derived_from_the_factor(self):
        rng = np.random.Generator(np.random.PCG64(12))
        spec, _ = random_model(rng)
        report = eigen_spectrum(assemble_system(spec, 0.0))
        norm_j1 = sign_operator(report)
        y, _ = sign_factor(report)
        assert abs(norm_j1 - spectral_norm(y) ** 2) <= 1e-13 * norm_j1
        # the angular identity: in J's eigenbasis the positive columns of Y
        # are [P; Q] with P^T P - Q^T Q = I, and Gamma = Q P^(-1) has
        # ||J1|| = (1 + ||Gamma||) / (1 - ||Gamma||)
        n = spec.order
        y = y[:, report.signatures > 0.0]
        p = (y[:n] + y[n:]) / np.sqrt(2.0)
        q = (y[:n] - y[n:]) / np.sqrt(2.0)
        np.testing.assert_allclose(p.T @ p - q.T @ q, np.eye(n), atol=1e-12)
        g = np.linalg.norm(q @ np.linalg.inv(p), 2)
        assert g < 1.0
        assert abs(norm_j1 - (1.0 + g) / (1.0 - g)) <= 1e-13 * norm_j1

    def test_square_well_norm_window(self):
        system = assemble_system(square_well_model(1.0), -0.5)
        norm_j1 = sign_operator(eigen_spectrum(system))
        assert 1.0 - 1e-12 <= norm_j1 <= 2.0 + 1e-10  # 1/(1-b) = 2

    def test_involution_and_product_definiteness(self):
        rng = np.random.Generator(np.random.PCG64(11))
        spec, _ = random_model(rng)
        report = eigen_spectrum(assemble_system(spec, 0.0))
        _, j1 = sign_factor(report)
        two_n = 2 * spec.order
        assert spectral_norm(j1 @ j1 - np.eye(two_n)) <= 1e-8
        product = j_matrix(spec.order) @ j1
        assert np.abs(product - product.T).max() <= 1e-10
        eigs = np.linalg.eigvalsh(0.5 * (product + product.T))
        assert eigs[0] >= 1.0 / sign_operator(report) - 1e-9

    def test_matches_eigendecomposition_of_h(self):
        # J1 is the matrix function sign(. - mu) of H: X sign(Lambda - mu) X^-1
        rng = np.random.Generator(np.random.PCG64(15))
        for _ in range(20):
            spec, _ = random_model(rng)
            mu = float(rng.uniform(-0.2, 0.2))
            system = assemble_system(spec, mu)
            lam, x = np.linalg.eig(hamiltonian(system.spec))
            oracle = np.real((x * np.sign(lam.real - mu)) @ np.linalg.inv(x))
            _, j1 = sign_factor(eigen_spectrum(system))
            assert np.abs(j1 - oracle).max() <= 1e-9 * np.abs(oracle).max()

    def test_norm_bounded_by_contraction(self):
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(20):
            spec, _ = random_model(rng)
            system = assemble_system(spec, 0.0)
            norm_j1 = sign_operator(eigen_spectrum(system))
            assert 1.0 - 1e-12 <= norm_j1
            assert norm_j1 <= 1.0 / (1.0 - system.contraction) + 1e-10

    @pytest.mark.parametrize("case", ["well", "dense", "oscillator", "small oscillator"])
    def test_every_pencil_report(self, case):
        # sign_operator solves the positive half of T from the report's own
        # factor M: a whole spectrum and one of the two eigenvalues nearest
        # the shift give the same ||J1|| bit for bit, ||Y||^2 of the oracle
        # H frame's Y; on the tridiagonal T (N = 40) and on the dense T
        # with U^2's banded eigenbasis (N = 5)
        mu = 0.0
        if case == "well":
            spec, mu = square_well_model(1.0), -0.5
        elif case == "dense":
            spec, _ = random_model(np.random.Generator(np.random.PCG64(31)), n=6)
        else:
            grid_points = 40 if case == "oscillator" else 5
            spec = harmonic_model(HarmonicParams(alpha=0.985, grid_points=grid_points))
        system = assemble_system(spec, mu)
        whole, bare = eigen_spectrum(system), eigen_spectrum(system, nearest=1)
        assert whole.solver_path == bare.solver_path == "similarity"
        norm_j1 = sign_operator(whole)
        assert sign_operator(bare) == norm_j1
        y, _ = sign_factor(whole)
        assert abs(norm_j1 - spectral_norm(y) ** 2) <= 1e-12 * norm_j1

    def test_direct_path_report_rejected(self):
        # b = 1 at the paper shift: the report is not certified
        report = eigen_spectrum(assemble_system(square_well_model(2.0), -1.0))
        assert report.solver_path == "direct"
        with pytest.raises(NotCertified):
            sign_operator(report)

    def test_equivalent_scalar_product_window(self):
        # (psi, psi)/||J1|| <= (J J1 psi, psi) <= (psi, psi) ||J1||
        rng = np.random.Generator(np.random.PCG64(14))
        spec, _ = random_model(rng, n=4)
        report = eigen_spectrum(assemble_system(spec, 0.0))
        norm_j1 = sign_operator(report)
        product = 0.5 * (lambda m: m + m.T)(j_matrix(4) @ sign_factor(report)[1])
        for _ in range(20):
            psi = rng.normal(size=8)
            val = psi @ product @ psi
            norm2 = psi @ psi
            assert norm2 / norm_j1 - 1e-9 <= val <= norm2 * norm_j1 + 1e-9


class TestCentralGap:
    def test_free_case(self):
        report = eigen_spectrum(assemble_system(free_spec([1.0, 3.0]), 0.0))
        np.testing.assert_allclose(report.central_gap, (-1.0, 1.0), atol=1e-12)

    def test_square_well_contains_guaranteed_interval(self):
        system = assemble_system(square_well_model(1.0), -0.5)
        report = eigen_spectrum(system)
        lo, hi = report.central_gap
        alpha = gap_bound(system)  # (1 - 1/2) * 1 = 1/2
        assert abs(alpha - 0.5) <= 1e-12
        assert lo <= -0.5 - alpha + 1e-12 and -0.5 + alpha - 1e-12 <= hi
        assert hi - lo >= 2.0 * alpha - 1e-12

    def test_empty_side_gives_infinity(self):
        # all eigenvalues below the shift, then all above it
        report = eigen_spectrum(assemble_system(free_spec([1.0]), 5.0))
        assert report.central_gap == (1.0, np.inf)
        report = eigen_spectrum(assemble_system(free_spec([1.0]), -5.0))
        assert report.central_gap == (-np.inf, -1.0)


class TestPencilResidual:
    def test_defective_point_is_singular(self):
        assert pencil_residual(square_well_model(2.0), -1.0) < 1e-12

    def test_free_eigenvalue(self):
        spec = free_spec([2.0, 5.0])
        assert pencil_residual(spec, np.sqrt(2.0)) < 1e-12

    def test_solver_output_at_tau_one(self):
        spec = square_well_model(1.0)
        report = eigen_spectrum(assemble_system(spec, -0.5))
        for lam in report.eigenvalues:
            assert pencil_residual(spec, lam) < 1e-8

    def test_nonzero_away_from_spectrum(self):
        assert pencil_residual(square_well_model(1.0), 0.123) > 1e-3


EPS = np.finfo(float).eps


def gate_scale(spec, lam):
    """||U^2|| + ||V||^2 + |lam|^2, the scale of Q(lam) = (lam - V)^2 - U^2."""
    return spec.u_max**2 + spectral_norm(spec.v) ** 2 + abs(lam) ** 2


def residual_cases(corpus):
    """(spec, lam, Z) of eigenpairs over the corpus, the well, the
    oscillator, bad scaling."""
    for spec, _ in corpus:
        yield spec, *eigenpairs(spec)
    for tau in (0.0, 1.0, 1.7, 1.99, 2.0, 2.1):
        spec = square_well_model(tau)
        for mu in (0.0, -tau / 2.0):
            yield spec, *eigenpairs(spec, mu)
    # Q(lam) x from the diagonals; at alpha = 1.2 from a direct, non-real row
    for alpha in (0.3, 0.985, 1.2):
        spec = harmonic_model(HarmonicParams(alpha=alpha, grid_points=40))
        yield spec, *eigenpairs(spec)
    base = corpus[0][0]
    for s in (1e-8, 1e8):
        spec = ModelSpec(s * base.u_squared, np.sqrt(s) * base.v)
        yield spec, *eigenpairs(spec)


class TestEigenpairResiduals:
    def test_never_below_pencil_residual_and_far_below_the_gate(self, corpus200):
        # sigma_min(Q) = min_x ||Q x|| / ||x||, so the backward error is
        # never below the pencil residual, up to rounding in both
        for spec, lams, z in residual_cases(corpus200):
            new = eigenpair_residuals(spec, lams, z)
            for lam, r in zip(lams, new):
                scale = gate_scale(spec, lam)
                assert r >= pencil_residual(spec, lam) - 4.0 * EPS * scale
                assert r < 1e-10 * scale

    def test_never_below_pencil_residual_away_from_the_spectrum(self, corpus200):
        for spec, lams, z in residual_cases(corpus200):
            moved = lams + 1e-3 * (1.0 + np.abs(lams))
            new = eigenpair_residuals(spec, moved, z)
            for lam, r in zip(moved, new):
                assert r >= pencil_residual(spec, lam) * (1.0 - 1e-8)

    def test_exact_values_on_the_free_model(self):
        # free model U = diag(2, 3): H [e_1; e_1] = 2 [e_1; e_1] and
        # H [e_2; -e_2] = -3 [e_2; -e_2]; away from the spectrum the value
        # is |(lam - 0)^2 - 4| along e_1
        spec = free_spec([4.0, 9.0])
        lams = np.array([2.0, -3.0, 2.0 + 1.0j])
        vecs = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1], [0, -1, 0]], dtype=float)
        r = eigenpair_residuals(spec, lams, vecs)
        np.testing.assert_allclose(r[:2], 0.0, atol=1e-15)
        assert abs(r[2] - abs((2.0 + 1.0j) ** 2 - 4.0)) <= 1e-14

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        b=st.floats(0.0, 1.0 - 1e-6),
        log_scale=st.floats(-8.0, 8.0),
        mu_frac=st.floats(-1.0, 1.0),
    )
    def test_property_never_below_pencil_residual(self, n, seed, b, log_scale, mu_frac):
        # U^2 with entries scaled by 10^log_scale, V with (V - mu) U^-1 of
        # norm b, solved at the shift mu
        rng = np.random.Generator(np.random.PCG64(seed))
        s = 10.0**log_scale
        q = random_orthogonal(rng, n)
        u2 = (q * (s * rng.uniform(0.4, 4.0, size=n))) @ q.T
        u_inv = u_power(ModelSpec(u2, np.zeros((n, n))), -1)
        raw = rng.normal(size=(n, n))
        raw = raw + raw.T
        mu = mu_frac * np.sqrt(s)
        dv = raw * (b / max(spectral_norm(raw @ u_inv), 1e-300))
        spec = ModelSpec(u2, dv + mu * np.eye(n))
        lams, z = eigenpairs(spec, mu)
        new = eigenpair_residuals(spec, lams, z)
        for lam, r in zip(lams, new):
            assert r >= pencil_residual(spec, lam) - 4.0 * EPS * gate_scale(spec, lam)


    @pytest.mark.parametrize("k", [300, 506])
    def test_scaled_pairs_are_exact(self, k):
        # the model (2^(2k) U^2, 2^k V) has the pairs (2^k lam, x) and
        # backward errors 2^(2k) times those of (U^2, V): bit for bit,
        # computed as they are below 2^500 and scaled beyond it, up to
        # ||2^(2k) U^2|| = 2^1019; from the dense products (N = 6, below
        # spectral._TRIDIAGONAL_MIN_ORDER) and from the diagonals (N = 40,
        # the tridiagonal route)
        for grid_points in (6, 40):
            spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=grid_points))
            lam, z = eigenpairs(spec)
            large = ModelSpec(np.ldexp(spec.u_squared, 2 * k), np.ldexp(spec.v, k))
            assert spectral._tridiagonal_rows(large) == (grid_points == 40)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled = eigenpair_residuals(large, np.ldexp(lam, k), z)
            residuals = eigenpair_residuals(spec, lam, z)
            expected = np.ldexp(residuals, 2 * k)
            np.testing.assert_array_equal(scaled, expected)
            assert np.isfinite(scaled).all() and (scaled > 0.0).all()


def assert_real_parts_no_looser(spec, mu):
    """Check _real_part_residuals of spec's certified spectrum at mu against
    the gate it replaces; False (nothing checked) on a real spectrum.

    On each non-real eigenvalue the value is never below the eigenpair
    backward error of (Re lam, x), x from eigenpairs, nor below
    sigma_min(Q(Re lam)), up to rounding; each real one keeps its
    residual.
    """
    report = eigen_spectrum(assemble_system(spec, mu))
    if report.is_real_spectrum:
        return False
    lam_plain, z = eigenpairs(spec, mu)
    np.testing.assert_array_equal(report.eigenvalues, lam_plain)
    moved = spectral._real_part_residuals(report)
    lam = report.eigenvalues
    nonreal = lam.imag != 0.0
    np.testing.assert_array_equal(moved[~nonreal], report.residuals[~nonreal])
    z_based = eigenpair_residuals(spec, lam.real, z)
    assert (moved[nonreal] >= z_based[nonreal]).all()
    for k in nonreal.nonzero()[0]:
        s = lam[k].real
        assert moved[k] >= pencil_residual(spec, s) - 4.0 * EPS * gate_scale(spec, s)
    return True


class TestRealPartResiduals:
    """The residuals verify gates at the real parts of a non-real spectrum,
    rho + |Im lam| (2 |Re lam| + |Im lam| + 2 ||V||) from the residual rho
    of each complex eigenvalue: no looser than the eigenpair gate at Re lam."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        b=st.floats(1.2, 4.0),
        log_scale=st.floats(-6.0, 6.0),
        mu_frac=st.floats(-1.0, 1.0),
    )
    def test_property_random_models(self, n, seed, b, log_scale, mu_frac):
        # U^2 with entries scaled by 10^log_scale and V U^(-1) of norm b
        # beyond one, where the spectrum is mostly non-real
        rng = np.random.Generator(np.random.PCG64(seed))
        s = 10.0**log_scale
        u2 = s * random_spd(rng, n)
        u_inv = u_power(ModelSpec(u2, np.zeros((n, n))), -1)
        raw = rng.normal(size=(n, n))
        raw = raw + raw.T
        v = raw * (b / spectral_norm(raw @ u_inv))
        assume(assert_real_parts_no_looser(ModelSpec(u2, v), mu_frac * np.sqrt(s)))

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(tau=st.floats(2.0001, 2.6), mu=st.sampled_from([0.0, -1.0, 0.5]))
    def test_property_square_well(self, tau, mu):
        # the well's spectrum is non-real past tau = 2, at any shift
        assert assert_real_parts_no_looser(square_well_model(tau), mu)

    def test_real_spectrum_keeps_its_residuals(self):
        report = eigen_spectrum(assemble_system(square_well_model(1.7), 0.0))
        assert spectral._real_part_residuals(report) is report.residuals


class TestDefectCheck:
    def test_defective_at_critical_coupling(self):
        system = assemble_system(square_well_model(2.0), -1.0)
        report = eigen_spectrum(system)
        assert report.defective
        assert abs(complex(report.witness.eigenvalue).real + 1.0) < 1e-6
        x = report.witness.vector
        neutrality = abs(np.vdot(x, j_matrix(x.size // 2) @ x)) / np.vdot(x, x).real
        assert neutrality < 1e-6

    @pytest.mark.parametrize("tau", [2.1, 2.2, 3.0])
    def test_simple_non_real_spectrum_is_not_defective(self, tau):
        # past tau = 2 the well's four eigenvalues are simple; the
        # eigenvectors of its non-real pair are J-neutral, as those of any
        # non-real eigenvalue of the J-selfadjoint H are, which is no defect
        for mu in (0.0, -tau / 2.0):
            report = eigen_spectrum(assemble_system(square_well_model(tau), mu))
            assert report.solver_path == "direct" and not report.is_real_spectrum
            assert not report.defective and report.witness is None

    @pytest.mark.parametrize("tau", [2.0, 2.0 - 1e-13])
    def test_split_double_eigenvalue_stays_defective(self, tau):
        # on the direct path the defective double eigenvalue near -1, split
        # by rounding within REAL_RTOL * ||L_g||, is still tested, and still
        # neutral; below tau = 2 the paper shift -tau/2 proves -Q(mu) > 0
        # and takes the pencil (test_near_critical_well_takes_the_pencil)
        for mu in (0.0, -1.0) if tau == 2.0 else (0.0,):
            report = eigen_spectrum(assemble_system(square_well_model(tau), mu))
            assert report.is_real_spectrum and report.defective
            assert report.witness.reason == "neutral-eigenvector"
            assert abs(report.witness.eigenvalue.real + 1.0) < 1e-6

    def test_near_critical_well_takes_the_pencil(self):
        # tau = 2 - 1e-13 at the paper shift: b = 1 - 5e-14 and
        # lambda_min(-Q(mu)) = 1.0e-13 at 40 digits, which the dense
        # certificate proves; the direct path called two of its
        # eigenvectors neutral (NEUTRAL_TOL) and the spectrum defective
        tau = 2.0 - 1e-13
        spec = square_well_model(tau)
        system = assemble_system(spec, -tau / 2.0)
        assert 4e-14 < 1.0 - system.contraction < 6e-14
        with mpmath.workdps(40):
            u2 = mpmath.matrix(spec.u_squared.tolist())
            w = mpmath.matrix(spec.v.tolist()) + mpmath.mpf(tau) / 2 * mpmath.eye(2)
            lowest = min(mpmath.eigsy(u2 - w * w, eigvals_only=True))
        assert abs(lowest / mpmath.mpf("1e-13") - 1) < 0.01
        report = eigen_spectrum(system)
        assert report.solver_path == "similarity"
        assert report.is_real_spectrum and not report.defective and report.witness is None
        assert report.sign_types == ("negative",) * 2 + ("positive",) * 2
        # the pair near -1, 3.7e-7 apart, against a 40-digit companion solve
        exact = (-1.0000001825011575394, -0.99999981749874254052)
        np.testing.assert_allclose(report.eigenvalues[1:3], exact, rtol=1e-15)

    def test_one_svd_per_cluster(self, svd_calls):
        # a Jordan block: one cluster, and one SVD gives both its
        # geometric multiplicity and the witness null vector e1
        h = np.array([[1.0, 1.0], [0.0, 1.0]])
        (witness,) = spectral._cluster_defects(np.array([1.0, 1.0]), h, 1.0)
        assert len(svd_calls) == 1
        assert witness.reason == "multiplicity-defect"
        assert witness.eigenvalue == 1.0
        np.testing.assert_allclose(np.abs(witness.vector), [1.0, 0.0], atol=1e-15)

    def test_semisimple_clusters_one_svd_each(self, svd_calls):
        # U^2 = I, V = 1.5 I: b = 1.5 sends the spectrum to the direct
        # path, with the double eigenvalues 0.5 and 2.5, both semisimple
        spec = ModelSpec(u_squared=np.eye(2), v=1.5 * np.eye(2))
        report = eigen_spectrum(assemble_system(spec, 0.0))
        assert report.solver_path == "direct" and not report.defective
        np.testing.assert_allclose(report.eigenvalues, [0.5, 0.5, 2.5, 2.5])
        assert len(svd_calls) == 2

    def test_clean_below_critical(self):
        system = assemble_system(square_well_model(1.0), -0.5)
        report = eigen_spectrum(system)
        assert not report.defective and report.witness is None

    def test_free_case_clean(self):
        system = assemble_system(free_spec([1.0, 3.0]), 0.0)
        assert not eigen_spectrum(system).defective


def direct_path_models():
    """24 seeded models of order n <= 4 with b = ||V U^(-1)|| in [1, 3]:
    U^2 scaled by 10^e, e uniform in [-3, 3], so V spans about 1e+-2."""
    rng = np.random.Generator(np.random.PCG64(2016))
    models = []
    for _ in range(24):
        n = int(rng.integers(1, 5))
        u2 = 10.0 ** rng.uniform(-3.0, 3.0) * random_spd(rng, n)
        raw = rng.normal(size=(n, n))
        raw = raw + raw.T
        b = rng.uniform(1.0, 3.0)
        v = raw * (b / spectral_norm(raw @ u_power(ModelSpec(u2, raw), -1)))
        models.append(ModelSpec(u2, v))
    return models


def companion_eigenvalues(spec, dps=50):
    """Eigenvalues of [[0, I], [U^2 - V^2, 2 V]], the companion form of
    Q(lam) = (lam - V)^2 - U^2, by a dps-digit mpmath eigensolve."""
    n = spec.order
    with mpmath.workdps(dps):
        u2, v = mpmath.matrix(spec.u_squared.tolist()), mpmath.matrix(spec.v.tolist())
        comp = mpmath.zeros(2 * n, 2 * n)
        lower = u2 - v * v
        for i in range(n):
            comp[i, n + i] = 1
            for j in range(n):
                comp[n + i, j] = lower[i, j]
                comp[n + i, n + j] = 2 * v[i, j]
        lam = mpmath.eig(comp, left=False, right=False)
        return np.array([complex(x) for x in lam])


class TestDirectPath:
    """The root-free L_g against a 50-digit reference and the H-frame eig."""

    def test_eigenvalues_match_a_50_digit_companion_solve(self):
        for spec in direct_path_models():
            report = eigen_spectrum(assemble_system(spec, 0.0))
            assert report.solver_path == "direct"
            reference = list(companion_eigenvalues(spec))
            lam = np.asarray(report.eigenvalues, dtype=complex)
            scale = np.abs(lam).max()
            for value in lam:
                k = int(np.argmin([abs(value - r) for r in reference]))
                assert abs(value - reference.pop(k)) <= 1e-13 * scale

    def test_eigenvectors_are_k_frame_columns(self):
        # Z = [x; (lam - V) x]: the lower block of the unit L_g eigenvector
        # scaled by g, to rounding of ||L_g|| <= ||V|| + ||U||
        specs = direct_path_models()
        specs += [square_well_model(tau) for tau in (1.5, 2.0, 2.2)]
        for spec in specs:
            report = eigen_spectrum(assemble_system(spec, 0.0))
            n, (lam, z) = spec.order, eigenpairs(spec)
            np.testing.assert_array_equal(lam, report.eigenvalues)
            lower = z[:n] * lam - spec.v @ z[:n]
            scale = spectral_norm(spec.v) + spec.u_max
            assert np.abs(z[n:] - lower).max() <= 1e-13 * scale

    def test_sign_types_and_reality_match_the_h_frame(self):
        specs = direct_path_models()
        specs += [square_well_model(tau) for tau in np.linspace(1.25, 2.2, 40)]
        for spec in specs:
            report = eigen_spectrum(assemble_system(spec, 0.0))
            assert report.solver_path == "direct"
            _, signs, is_real = direct_h_frame(spec)
            assert report.sign_types == signs
            assert report.is_real_spectrum == is_real


class TestStackedSolve:
    """eigen_spectra: one stacked kernel, eigen_spectrum its stack of one."""

    @staticmethod
    def per_row(spec, couplings, shift):
        for t in couplings:
            system = assemble_system(spec.with_potential(t * spec.v, ""), shift)
            yield eigen_spectrum(system)

    def test_rows_match_stacks_of_one(self):
        # pencil rows, direct rows, a defective and non-real rows in one stack
        spec = square_well_model(1.0)
        couplings = np.array([0.0, 0.5, 1.1, 1.3, 2.0, 2.4])
        stack = spectral.eigen_spectra(spec, couplings, -0.25)
        reports = list(self.per_row(spec, couplings, -0.25))
        assert stack.pencil.tolist() == [
            r.solver_path == "similarity" for r in reports
        ]
        assert set(stack.pencil.tolist()) == {True, False}
        assert stack.defective.tolist() == [r.defective for r in reports]
        assert stack.is_real.tolist() == [r.is_real_spectrum for r in reports]
        assert not stack.is_real.all()
        for k, report in enumerate(reports):
            scale = 1.0 + np.abs(report.eigenvalues).max()
            moved = np.abs(stack.eigenvalues[k] - report.eigenvalues).max()
            assert moved <= 1e-12 * scale
            np.testing.assert_allclose(
                stack.signatures[k], report.signatures, rtol=1e-10, atol=1e-12
            )

    def test_failed_factorization_sends_only_its_row_direct(self, monkeypatch):
        # the stacked Cholesky raises for the whole stack when one matrix
        # fails: the stack is factored again row by row (dpotrf), and only
        # the failing row takes the direct path.  Every row's -Q(mu) is
        # proven, by its shifted copy, which differs from it by c > 1e-15
        # on the diagonal; the third row's own factorization, for M, fails
        spec = square_well_model(1.0)
        couplings = np.array([0.1, 0.2, 0.3, 0.4])
        w = core.shifted_potential(spec, 0.0, couplings[2:3])[0]
        failing = spec.u_squared - w @ w.T
        cholesky, dpotrf, calls = np.linalg.cholesky, spectral.lapack.dpotrf, []

        def hit(a):
            return np.any(np.abs(np.asarray(a) - failing).max(axis=(-2, -1)) <= 1e-15)

        def fail_one(a, *args, **kwargs):
            calls.append(np.shape(a))
            if hit(a):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a, *args, **kwargs)

        def fail_row(a, **kwargs):
            calls.append(("dpotrf", np.shape(a)))
            m, info = dpotrf(a, **kwargs)
            return m, 1 if hit(a) else info

        monkeypatch.setattr(np.linalg, "cholesky", fail_one)
        monkeypatch.setattr(spectral.lapack, "dpotrf", fail_row)
        stack = spectral.eigen_spectra(spec, couplings, 0.0)
        assert calls == [(4, 2, 2)] * 2 + [("dpotrf", (2, 2))] * 4
        assert stack.pencil.tolist() == [True, True, False, True]
        assert stack.is_real.all() and not stack.defective.any()
        _, z = eigenpairs(spec, 0.0, couplings)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        monkeypatch.setattr(spectral.lapack, "dpotrf", dpotrf)
        # the other rows are those of the stack that factors at once, bit
        # for bit, and every row matches its stack of one
        whole = spectral.eigen_spectra(spec, couplings, 0.0)
        _, z_whole = eigenpairs(spec, 0.0, couplings)
        for k, report in enumerate(self.per_row(spec, couplings, 0.0)):
            assert np.abs(stack.eigenvalues[k] - report.eigenvalues).max() <= 1e-12
            if k != 2:
                np.testing.assert_array_equal(z[k], z_whole[k])
                np.testing.assert_array_equal(stack.residuals[k], whole.residuals[k])

    def test_stack_straddling_the_certificate(self, monkeypatch):
        # the well at shift 0 has b = sqrt(2/3) t, one at t = 1.2247: the
        # stacked proof fails for the whole stack and is taken again row
        # by row (dpotrf), and each row's route, eigenvalues and residuals
        # are those of its stack of one, bit for bit
        spec = square_well_model(1.0)
        couplings = np.linspace(1.2, 1.25, 9)
        proofs, proven = [], spectral._proven_definite

        def count(spec, a):
            result = proven(spec, a)
            proofs.append(result.tolist())
            return result

        monkeypatch.setattr(spectral, "_proven_definite", count)
        stack = spectral.eigen_spectra(spec, couplings, 0.0)
        assert stack.pencil.tolist() == [True] * 4 + [False] * 5
        assert proofs == [stack.pencil.tolist()]
        for k, t in enumerate(couplings):
            row = spectral.eigen_spectra(spec, (t,), 0.0)
            assert row.pencil[0] == stack.pencil[k]
            np.testing.assert_array_equal(row.eigenvalues[0], stack.eigenvalues[k])
            np.testing.assert_array_equal(row.residuals[0], stack.residuals[k])

    def test_failed_factorization_of_a_stack_of_one(self, monkeypatch):
        # a stack of one is factored by LAPACK's dpotrf; when it fails,
        # the row takes the direct path
        system = assemble_system(square_well_model(1.0), 0.0)
        certified = eigen_spectrum(system)
        dpotrf = spectral.lapack.dpotrf
        monkeypatch.setattr(
            spectral.lapack, "dpotrf", lambda a, **kwargs: (dpotrf(a, **kwargs)[0], 1)
        )
        report = eigen_spectrum(system)
        assert certified.solver_path == "similarity"
        assert report.solver_path == "direct"
        assert report.is_real_spectrum and not report.defective
        assert np.abs(report.eigenvalues - certified.eigenvalues).max() <= 1e-12

    def test_stacked_residuals_match_rows(self):
        spec = square_well_model(1.0)
        couplings = np.array([0.3, 1.5, 2.2])
        stack = spectral.eigen_spectra(spec, couplings, 0.0)
        lam, z = eigenpairs(spec, 0.0, couplings)
        np.testing.assert_array_equal(lam, stack.eigenvalues)
        stacked = eigenpair_residuals(spec, lam, z, couplings)
        np.testing.assert_array_equal(stacked, stack.residuals)
        for k, t in enumerate(couplings):
            row_spec = spec.with_potential(t * spec.v, "")
            row = eigenpair_residuals(row_spec, lam[k], z[k])
            np.testing.assert_allclose(stacked[k], row, rtol=1e-12, atol=1e-15)


class TestEigenvaluesOnly:
    """eigen_spectra(..., nearest=k) against the solve with vectors."""

    @staticmethod
    def assert_same_rows(spec, couplings, shift=0.0, nearest=3):
        full = spectral.eigen_spectra(spec, couplings, shift)
        bare = spectral.eigen_spectra(spec, couplings, shift, nearest=nearest)
        n = spec.order
        middle = slice(n - min(nearest, n), n + min(nearest, n))
        assert bare.residuals is None and full.residuals is not None
        assert bare.pencil.tolist() == full.pencil.tolist()
        assert bare.is_real.tolist() == full.is_real.tolist()
        assert bare.defective.tolist() == full.defective.tolist()
        scale = np.abs(full.eigenvalues).max(axis=-1, keepdims=True)
        lam = full.eigenvalues[:, middle]
        assert (np.abs(bare.eigenvalues - lam) <= 1e-13 * scale).all()
        sig_scale = np.abs(full.signatures).max(axis=-1, keepdims=True)
        sig = full.signatures[:, middle]
        assert (np.abs(bare.signatures - sig) <= 1e-13 * sig_scale).all()
        return full, bare

    def test_random_certified_specs(self):
        rng = np.random.Generator(np.random.PCG64(1314))
        for _ in range(20):
            spec, _ = random_model(rng, n=int(rng.integers(2, 12)))
            t = rng.uniform(0.2, 1.4, size=int(rng.integers(1, 5)))
            full, _ = self.assert_same_rows(spec, t, float(rng.uniform(-0.1, 0.1)))
            assert full.pencil.all()

    def test_stacks_of_one(self):
        rng = np.random.Generator(np.random.PCG64(1315))
        for _ in range(10):
            spec, _ = random_model(rng, n=int(rng.integers(2, 12)))
            nearest = int(rng.integers(1, 4))
            full, _ = self.assert_same_rows(spec, (1.0,), nearest=nearest)
            assert full.pencil.all()

    def test_oscillator(self):
        # order 2n = 80: the tridiagonalization and bisection path
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=40))
        for nearest in (1, 3):
            full, bare = self.assert_same_rows(spec, (1.0,), nearest=nearest)
            assert full.pencil.all()
            assert bare.eigenvalues.shape == (1, 2 * nearest)

    def test_direct_rows_are_unchanged(self):
        # uncertified, defective and non-real rows still take the direct
        # path, with the vectors that classify them, and keep the middle
        # of their spectrum bit for bit
        spec = square_well_model(1.0)
        couplings = np.array([0.0, 0.5, 1.3, 2.0, 2.4])
        full, bare = self.assert_same_rows(spec, couplings, -0.25, nearest=1)
        direct = ~full.pencil
        assert direct.any() and full.pencil.any()
        np.testing.assert_array_equal(
            bare.eigenvalues[direct], full.eigenvalues[direct][:, 1:3]
        )
        np.testing.assert_array_equal(
            bare.signatures[direct], full.signatures[direct][:, 1:3]
        )

    def test_no_eigenvectors_are_formed(self, monkeypatch):
        # the oscillator's row is routed on a proven -Q(mu) > 0 (one
        # dpttrf, spectral._proven_definite) and reads no contraction.
        # Its T, of order 40, is tridiagonal: one bisection over its
        # middle indices (dstebz) and no reduction.  With a dense
        # potential the row is routed on a proven -Q(mu) > 0 too (one
        # shifted dpotrf), with no triangular solve and no Gram matrix,
        # and T is dense: one tridiagonalization (dsytrd) and one
        # bisection.  Neither solves for a vector
        calls = []

        def spy(name):
            routine = getattr(spectral.lapack, name)

            def record(a, *args, **kwargs):
                calls.append((name, kwargs.get("compute_v")))
                return routine(a, *args, **kwargs)

            monkeypatch.setattr(spectral.lapack, name, record)

        # built first: its validation takes the ends of the spectrum of U^2
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=20))
        dense = spec.with_potential(spec.v + 1e-3 * np.ones((20, 20)), "dense")
        names = ("dsyevd", "dsyevr", "dsytrd", "dstebz", "dstevd", "dtrtrs", "dtbtrs")
        for name in names:
            spy(name)
        spectral.eigen_spectra(spec, (1.0,), 0.0, nearest=3)
        reduction = [("dsytrd", None), ("dstebz", None)]
        assert calls == [("dstebz", None)]
        calls.clear()
        spectral.eigen_spectra(dense, (1.0,), 0.0, nearest=3)
        assert calls == reduction
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=64))
        dense = spec.with_potential(spec.v + 1e-3 * np.ones((64, 64)), "dense")
        calls.clear()
        spectral.eigen_spectra(spec, (1.0,), 0.0, nearest=3)
        assert calls == [("dstebz", None)]
        calls.clear()
        spectral.eigen_spectra(dense, (1.0,), 0.0, nearest=3)
        assert calls == reduction


class TestTridiagonalPencil:
    """The tridiagonal T of the oscillator against the dense T and the oracle.

    U^2 is tridiagonal and V diagonal, so from order
    n = spectral._TRIDIAGONAL_MIN_ORDER up the pencil rows take the
    tridiagonal T; raising that order sends them to the dense T instead.
    """

    @staticmethod
    def solve(spec, alpha, shift, nearest=None, dense=False):
        with pytest.MonkeyPatch.context() as patch:
            if dense:
                patch.setattr(spectral, "_TRIDIAGONAL_MIN_ORDER", 10**9)
            return spectral.eigen_spectra(spec, (alpha,), shift, nearest=nearest)

    @staticmethod
    def vectors(spec, alpha, shift, dense=False):
        """The row's Z (oracles.eigenpairs), on the route solve takes."""
        with pytest.MonkeyPatch.context() as patch:
            if dense:
                patch.setattr(spectral, "_TRIDIAGONAL_MIN_ORDER", 10**9)
            return eigenpairs(spec, shift, (alpha,))[1][0]

    @staticmethod
    def k_frame_identity_error(spec, alpha, shift, z):
        """max |Z^T (K - mu*J) Z - I|, K - mu*J = [[U^2, W], [W, I]], W = t V - mu."""
        n = spec.order
        w = alpha * spec.v - shift * np.eye(n)
        k = np.block([[spec.u_squared, w], [w, np.eye(n)]])
        return np.abs(z.T @ k @ z - np.eye(2 * n)).max()

    @pytest.mark.parametrize("grid_points", [16, 40])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_matches_the_dense_route(self, grid_points, beta):
        params = HarmonicParams(alpha=1.0, beta=beta, grid_points=grid_points)
        spec = harmonic_model(params)
        assert spec.tridiagonal
        for alpha in (0.3, 0.9, 0.985):
            optimized = core.optimize_shift(spec.with_potential(alpha * spec.v, ""))
            for shift in (0.0, 0.3, -0.3, optimized):
                tri = self.solve(spec, alpha, shift)
                dense = self.solve(spec, alpha, shift, dense=True)
                assert tri.pencil.tolist() == dense.pencil.tolist()
                lam, lam_dense = tri.eigenvalues[0], dense.eigenvalues[0]
                scale = np.abs(lam_dense).max()
                assert np.abs(lam - lam_dense).max() <= 1e-13 * scale
                signs = np.sign(tri.signatures[0])
                np.testing.assert_array_equal(signs, np.sign(dense.signatures[0]))
                if not tri.pencil[0]:
                    np.testing.assert_array_equal(lam, lam_dense)
                    continue
                for dense_t in (False, True):
                    z = self.vectors(spec, alpha, shift, dense_t)
                    assert self.k_frame_identity_error(spec, alpha, shift, z) <= 1e-13
                for nearest in (1, 3):
                    bare = self.solve(spec, alpha, shift, nearest)
                    bare_dense = self.solve(spec, alpha, shift, nearest, dense=True)
                    n = spec.order
                    middle = lam[n - nearest : n + nearest]
                    assert np.abs(bare.eigenvalues[0] - middle).max() <= 1e-13 * scale
                    moved = np.abs(bare.eigenvalues[0] - bare_dense.eigenvalues[0])
                    assert moved.max() <= 1e-13 * scale

    @pytest.mark.parametrize("grid_points", [150, 400])
    def test_large_order_matches_the_dense_route(self, grid_points):
        params = HarmonicParams(alpha=1.0, beta=1.0, grid_points=grid_points)
        spec = harmonic_model(params)
        tri = self.solve(spec, 0.985, 0.0)
        dense = self.solve(spec, 0.985, 0.0, dense=True)
        assert tri.pencil[0] and dense.pencil[0]
        lam, lam_dense = tri.eigenvalues[0], dense.eigenvalues[0]
        scale = np.abs(lam_dense).max()
        assert np.abs(lam - lam_dense).max() <= 1e-13 * scale
        z = self.vectors(spec, 0.985, 0.0)
        assert self.k_frame_identity_error(spec, 0.985, 0.0, z) <= 1e-13
        bare = self.solve(spec, 0.985, 0.0, nearest=3)
        n = spec.order
        assert np.abs(bare.eigenvalues[0] - lam[n - 3 : n + 3]).max() <= 1e-13 * scale

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_matches_the_h_frame_oracle(self, beta):
        spec = harmonic_model(HarmonicParams(alpha=1.0, beta=beta, grid_points=40))
        for alpha in (0.3, 0.985):
            model = spec.with_potential(alpha * spec.v, "")
            for shift in (0.0, 0.3, -0.3):
                report = eigen_spectrum(assemble_system(model, shift))
                if report.solver_path != "similarity":
                    continue
                lam, _ = similarity_eigensolve(gram(model), shift)
                scale = np.abs(lam).max()
                assert np.abs(report.eigenvalues - lam).max() <= 1e-13 * scale
                signs = ["positive" if x > shift else "negative" for x in lam]
                assert list(report.sign_types) == signs

    def test_failed_factorization_sends_its_row_direct(self, monkeypatch):
        # a row whose dpttrf fails takes the direct path, as a row whose
        # dense Cholesky factorization fails does: the same rows, bit for bit
        spec = harmonic_model(HarmonicParams(alpha=1.0, grid_points=20))
        couplings = np.array([0.3, 0.6, 0.9])
        w = core.shifted_potential(spec, 0.0, couplings[1:2])[0]
        failing = spec.u_squared - w @ w.T
        dpttrf, dpotrf, cholesky = spectral.lapack.dpttrf, spectral.lapack.dpotrf, np.linalg.cholesky

        def fail_pttrf(d, e, *args, **kwargs):
            factors = dpttrf(d, e, *args, **kwargs)
            hit = np.array_equal(d, failing.diagonal())
            return (*factors[:2], 1) if hit else factors

        def hit(a):
            return np.any(np.abs(np.asarray(a) - failing).max(axis=(-2, -1)) <= 1e-14)

        def fail_cholesky(a, *args, **kwargs):
            if hit(a):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a, *args, **kwargs)

        def fail_potrf(a, **kwargs):
            m, info = dpotrf(a, **kwargs)
            return m, 1 if hit(a) else info

        monkeypatch.setattr(spectral.lapack, "dpttrf", fail_pttrf)
        tri = spectral.eigen_spectra(spec, couplings, 0.0)
        tri_z = eigenpairs(spec, 0.0, couplings)[1]
        # the dense route proves every row (its shifted -Q(mu) is no hit),
        # and the one factorization for M, stacked and then row by row, fails
        monkeypatch.setattr(spectral, "_TRIDIAGONAL_MIN_ORDER", 10**9)
        monkeypatch.setattr(np.linalg, "cholesky", fail_cholesky)
        monkeypatch.setattr(spectral.lapack, "dpotrf", fail_potrf)
        dense = spectral.eigen_spectra(spec, couplings, 0.0)
        np.testing.assert_array_equal(tri_z[1], eigenpairs(spec, 0.0, couplings)[1][1])
        assert tri.pencil.tolist() == dense.pencil.tolist() == [True, False, True]
        assert tri.is_real.tolist() == dense.is_real.tolist()
        assert tri.defective.tolist() == dense.defective.tolist()
        for field in ("eigenvalues", "signatures"):
            direct_row = getattr(tri, field)[1]
            np.testing.assert_array_equal(direct_row, getattr(dense, field)[1])


def forbidden_dstevd(*args, **kwargs):
    raise AssertionError("dstevd forms an eigenvector matrix")


def dense_pencil_eigenvalues(spec, t, shift):
    """lam = shift + eigvalsh(T) of the dense T = [[0, M^T], [M, 2W]], from
    numpy's Cholesky M M^T = U^2 - W^2, W = t V - shift, and the first-order
    error bound 32 n eps (||T|| + ||A|| / sqrt(lambda_min(A))), A = M M^T,
    of those eigenvalues: eigvalsh's, and that of A's rounding, which moves
    a hyperbolic eigenvalue by at most ||dA|| / (2 sqrt(lambda_min(A)))."""
    n = spec.order
    w = np.diag(t * spec.v_band - shift)
    a = spec.u_squared - w @ w
    t_matrix = np.block([[np.zeros((n, n)), np.linalg.cholesky(a).T],
                         [np.linalg.cholesky(a), 2.0 * w]])
    ends = np.linalg.eigvalsh(a)[[0, -1]]
    t_norm = np.abs(t_matrix).sum(axis=1).max()
    tol = 32 * n * EPS * (t_norm + ends[1] / np.sqrt(ends[0]))
    return shift + np.linalg.eigvalsh(t_matrix), tol


def assert_counts_match_inertia(spec, shifts, t=1.0):
    """_sturm_counts at each shift with signs +1 and -1 against the inertia of
    the dense Q(s) from eigvalsh: rigorous bounds on it everywhere, and equal
    to it wherever no eigenvalue of Q(s) lies within 2 beta(s) plus
    eigvalsh's error of zero."""
    shifts = np.asarray(shifts, dtype=float)
    ones = np.full(shifts.size, t)
    signs = np.ones(shifts.size)
    up, up_certain, beta = spectral._sturm_counts(spec, shifts, ones, signs)
    down, down_certain, _ = spectral._sturm_counts(spec, shifts, ones, -signs)
    assert up_certain.all() and down_certain.all()
    n, decided = spec.order, 0
    for s, c_up, c_down, b in zip(shifts, up, down, beta):
        shifted = np.diag(s - t * spec.v_band)
        eigs = np.linalg.eigvalsh(shifted @ shifted - spec.u_squared)
        tol = 8 * n * EPS * np.abs(eigs).max()
        assert c_up <= np.sum(eigs < tol) and c_down >= np.sum(eigs < -tol)
        if np.abs(eigs).min() > 2.0 * b + tol:
            assert c_up == c_down == np.sum(eigs < 0.0)
            decided += 1
    return decided


class TestSturmCounts:
    """Counts of Q(s) certify the tridiagonal pencil rows' eigenvalues.

    Checked against independent oracles: the dense T's eigvalsh, the
    inertia of the dense Q(s), the tridiagonal T's MRRR eigenvalues
    (dstemr) and 50-digit mpmath eigenvalues.
    """

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(
        n=st.integers(8, 64),
        seed=st.integers(0, 2**32 - 1),
        b=st.floats(0.0, 1.0 - 1e-6),
        log_scale=st.floats(-8.0, 8.0),
        mu_frac=st.floats(-1.0, 1.0),
        clustered=st.booleans(),
    )
    def test_property_enclosures_and_counts(
        self, n, seed, b, log_scale, mu_frac, clustered
    ):
        # a diagonally dominant tridiagonal U^2 and a diagonal V with
        # ||(V - mu) U^(-1)|| = b, entries scaled by 10^log_scale (U^2)
        # and its root (V); clustered: U^2 near 3 I and V near two values,
        # so the quadratic's eigenvalues come in tight clusters
        rng = np.random.Generator(np.random.PCG64(seed))
        s = 10.0**log_scale
        off = rng.uniform(-1.0, 1.0, n - 1) * (1e-9 if clustered else 1.0)
        rows = np.abs(np.append(0.0, off)) + np.abs(np.append(off, 0.0))
        diagonal = rows + (3.0 + 1e-9 * rng.uniform(size=n) if clustered
                           else rng.uniform(0.4, 4.0, n))
        w = np.sign(rng.normal(size=n)) + 1e-9 * rng.normal(size=n) if clustered \
            else rng.normal(size=n)
        u2 = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
        u_inv = u_power(ModelSpec(u2, np.zeros((n, n))), -1)
        w *= b / max(spectral_norm(w[:, None] * u_inv), 1e-300)
        mu = mu_frac * np.sqrt(s)
        spec = ModelSpec.from_bands(s * diagonal, s * off, np.sqrt(s) * w + mu)
        stack = spectral.eigen_spectra(spec, (1.0,), mu)
        if not stack.pencil[0]:
            return   # b too near one for a proven -Q(mu) > 0
        lam = stack.eigenvalues[0]
        radius = spectral._count_enclosures(spec, lam[None], np.ones(1), mu)[0]
        residuals = stack.residuals[0]
        if np.array_equal(
            residuals, spectral._residual_bounds(spec, lam[None], np.ones(1), mu)[0]
        ):   # certified by counts
            assert np.isfinite(radius).all()
            for k in rng.choice(2 * n, 4, replace=False):
                assert residuals[k] >= pencil_residual(spec, lam[k]) * (1.0 - 1e-8)
        else:   # solved again, and gated on its eigenpairs
            lam_plain, z = eigenpairs(spec, mu, (1.0,))
            np.testing.assert_array_equal(lam, lam_plain[0])
            np.testing.assert_array_equal(
                residuals, eigenpair_residuals(spec, lam_plain, z, np.ones(1))[0]
            )
        reference, tol = dense_pencil_eigenvalues(spec, 1.0, mu)
        proven = np.isfinite(radius)
        assert (np.abs(reference - lam)[proven] <= radius[proven] + tol).all()
        picked = rng.choice(2 * n - 1, 3, replace=False)
        shifts = np.concatenate((lam[picked] - radius[picked],
                                 lam[picked] + radius[picked],
                                 0.5 * (lam[picked] + lam[picked + 1])))
        assert_counts_match_inertia(spec, shifts[np.isfinite(shifts)])

    @pytest.mark.parametrize("grid_points", [8, 40, 160, 400])
    def test_oscillators(self, grid_points, monkeypatch):
        # every eigenvalue certified wherever the pencil is, within its
        # enclosure of the tridiagonal T's MRRR eigenvalues (from numpy's
        # dense Cholesky below 160, so the dense T's) to their error
        decided = 0
        for alpha, shift in itertools.product((0.3, 0.985), (0.0, 0.2, -0.2)):
            spec = harmonic_model(HarmonicParams(alpha=alpha, grid_points=grid_points))
            if not spectral._proven_definite(spec, (spec.v_band - shift)[None])[0]:
                assert alpha == 0.985 and shift != 0.0
                continue
            with monkeypatch.context() as patch:   # certified by counts: no Z
                patch.setattr(spectral.lapack, "dstevd", forbidden_dstevd)
                stack = spectral.eigen_spectra(spec, (1.0,), shift)
            lam = stack.eigenvalues[0]
            radius = spectral._count_enclosures(spec, lam[None], np.ones(1), shift)[0]
            assert (radius <= 2.0**-27 * np.abs(lam - shift)).all()
            # B(lam) = r (2 |lam| + r + 2 ||V||), rounded up by a few eps
            v_norm = np.abs(spec.v_band).max()
            bound = radius * (2.0 * np.abs(lam) + radius + 2.0 * v_norm)
            assert (bound <= stack.residuals[0]).all()
            assert (stack.residuals[0] <= bound * (1.0 + 32 * EPS)).all()
            if grid_points < 160:
                reference, tol = dense_pencil_eigenvalues(spec, 1.0, shift)
            else:
                d, e = spec.u2_bands
                w = spec.v_band - shift
                m_diag, m_ratio, _ = scipy.linalg.lapack.dpttrf(d - w * w, e)
                m_diag = np.sqrt(m_diag)
                t_diag = np.zeros(2 * grid_points)
                t_diag[::2] = 2.0 * w
                t_off = np.empty(2 * grid_points - 1)
                t_off[::2], t_off[1::2] = m_diag, m_ratio * m_diag[:-1]
                sigma = scipy.linalg.eigvalsh_tridiagonal(
                    t_diag, t_off, lapack_driver="stemr"
                )
                reference = shift + sigma
                tol = 64 * grid_points * EPS * np.abs(sigma).max()
            assert (np.abs(reference - lam) <= radius + tol).all()
            if grid_points <= 40:
                # the ends of the outermost and innermost enclosures, and
                # the midpoints between neighbouring eigenvalues
                picked = [0, grid_points - 1, grid_points, 2 * grid_points - 1]
                shifts = np.concatenate((lam[picked] - radius[picked],
                                         lam[picked] + radius[picked],
                                         0.5 * (lam[1:] + lam[:-1])))
                decided += assert_counts_match_inertia(spec, shifts)
        assert grid_points > 40 or decided >= 2 * grid_points - 1

    @pytest.mark.parametrize("grid_points, alpha", [(8, 0.985), (12, 0.3)])
    def test_enclosures_hold_50_digit_eigenvalues(self, grid_points, alpha):
        # the eigenvalues of T from mpmath's Cholesky and symmetric
        # eigensolver at 50 digits, from the float data exactly
        spec = harmonic_model(HarmonicParams(alpha=alpha, grid_points=grid_points))
        stack = spectral.eigen_spectra(spec, (1.0,), 0.0)
        lam = stack.eigenvalues[0]
        radius = spectral._count_enclosures(spec, lam[None], np.ones(1), 0.0)[0]
        n = grid_points
        with mpmath.workdps(50):
            u2 = mpmath.matrix(spec.u_squared.tolist())
            v = mpmath.matrix(spec.v.tolist())
            m = mpmath.cholesky(u2 - v * v)
            t = mpmath.zeros(2 * n, 2 * n)
            for i in range(n):
                for j in range(n):
                    t[n + i, j] = t[j, n + i] = m[i, j]
                    t[n + i, n + j] = 2 * v[i, j]
            exact = sorted(mpmath.eigsy(t, eigvals_only=True))
            for k in range(2 * n):
                assert abs(exact[k] - mpmath.mpf(lam[k])) <= mpmath.mpf(radius[k])

    def test_fallback_rows_take_their_eigenpair_residuals(self, monkeypatch):
        # a row with an uncertain count is solved again with eigenvectors,
        # exactly as eigenpairs solves it, and its residuals are its
        # eigenpair residuals, however many rows were counted
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=24))
        t = np.linspace(0.0, 1.0, 5)
        counts = spectral._sturm_counts
        uncertain = [t[2]]

        def uncertain_rows(spec, shifts, couplings, signs):
            found, certain, beta = counts(spec, shifts, couplings, signs)
            return found, certain & ~np.isin(couplings, uncertain), beta

        monkeypatch.setattr(spectral, "_sturm_counts", uncertain_rows)
        stack = spectral.eigen_spectra(spec, t, 0.0)
        lam_plain, z = eigenpairs(spec, 0.0, t)
        np.testing.assert_array_equal(stack.eigenvalues[2], lam_plain[2])
        np.testing.assert_array_equal(stack.signatures[2], 1.0 / lam_plain[2])
        np.testing.assert_array_equal(
            stack.residuals[2:3],
            eigenpair_residuals(spec, lam_plain[2:3], z[2:3], t[2:3]),
        )
        counted = [0, 1, 3, 4]
        lam = stack.eigenvalues[counted]
        np.testing.assert_array_equal(
            stack.residuals[counted],
            spectral._residual_bounds(spec, lam, t[counted], 0.0),
        )
        assert np.isfinite(stack.residuals[counted]).all()

        uncertain[:] = t
        stack = spectral.eigen_spectra(spec, t, 0.0)
        np.testing.assert_array_equal(stack.eigenvalues, lam_plain)
        np.testing.assert_array_equal(
            stack.residuals, eigenpair_residuals(spec, lam_plain, z, t)
        )

    def test_mixed_block_residuals(self):
        # the alpha = 0.985 oscillator at N = 24 over couplings 0 .. 1.2:
        # eleven tridiagonal pencil rows that counts certify and, past
        # b = 1, two direct rows, the first of them non-real.  Each row's
        # residuals are its own route's, bit for bit: B(lam) on the
        # counted rows, the eigenpair residuals with Z on the direct rows
        spec = harmonic_model(HarmonicParams(alpha=0.985, grid_points=24))
        t = np.linspace(0.0, 1.2, 13)
        stack = spectral.eigen_spectra(spec, t, 0.0)
        assert stack.pencil.tolist() == [True] * 11 + [False] * 2
        assert stack.is_real.tolist() == [True] * 11 + [False, True]
        counted, direct = slice(0, 11), slice(11, 13)
        lam = stack.eigenvalues[counted].real
        np.testing.assert_array_equal(
            stack.residuals[counted],
            spectral._residual_bounds(spec, lam, t[counted], 0.0),
        )
        lam, z = spectral._direct_eigensolve(spec, t[direct])[:2]
        np.testing.assert_array_equal(stack.eigenvalues[direct], lam)
        np.testing.assert_array_equal(
            stack.residuals[direct], eigenpair_residuals(spec, lam, z, t[direct])
        )
        assert (stack.residuals < 1e-9).all()

    @pytest.mark.parametrize("route", ["dense pencil", "direct", "fallback", "mixed"])
    def test_certified_stacks_keep_no_eigenvectors(self, route, monkeypatch):
        # whichever route its rows take, and wherever they form Z for their
        # residuals, a whole stack (and report) carries its residuals and no
        # eigenvectors
        t = np.linspace(0.0, 1.0, 4)
        if route == "dense pencil":
            spec, _ = random_model(np.random.Generator(np.random.PCG64(7)), n=8)
        elif route == "direct":
            spec, t = square_well_model(2.1), np.array([1.0, 1.5])
        elif route == "fallback":
            counts = spectral._sturm_counts

            def uncertain(*args):
                found, certain, beta = counts(*args)
                return found, np.zeros_like(certain), beta

            monkeypatch.setattr(spectral, "_sturm_counts", uncertain)
            spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=24))
        else:
            spec = harmonic_model(HarmonicParams(alpha=0.985, grid_points=24))
            t = np.linspace(0.0, 1.2, 13)
        stack = spectral.eigen_spectra(spec, t, 0.0)
        pencil = {"dense pencil": [True] * 4, "direct": [False] * 2,
                  "fallback": [True] * 4, "mixed": [True] * 11 + [False] * 2}[route]
        assert stack.pencil.tolist() == pencil
        assert spectral._tridiagonal_rows(spec) == (route in ("fallback", "mixed"))
        assert stack.residuals.shape == stack.eigenvalues.shape
        assert np.isfinite(stack.residuals).all()
        report = eigen_spectrum(assemble_system(spec, 0.0))
        assert report.residuals is not None
        for record in (stack, report):
            assert "eigenvectors" not in {f.name for f in dataclasses.fields(record)}

    def test_residuals_only_with_certify(self):
        # residuals certify a whole spectrum: a nearest-k stack or report,
        # not a whole spectrum, carries none
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=24))
        assert spectral.eigen_spectra(spec, (1.0,)).residuals is not None
        assert spectral.eigen_spectra(spec, (1.0,), nearest=2).residuals is None
        system = assemble_system(spec, 0.0)
        assert eigen_spectrum(system, nearest=2).residuals is None


def lowest_eigenvalue_40(d, e, c, guess):
    """lambda_min of tridiag(d - c^2, e) to 40 digits: bisection on the
    signs of its L D L^T pivots, from a bracket 1e-9 around ``guess``."""
    with mpmath.workdps(40):
        d, e = [mpmath.mpf(x) for x in d], [mpmath.mpf(x) ** 2 for x in e]
        c2 = mpmath.mpf(c) ** 2

        def definite(s):   # whether tridiag(d - c^2 - s, e) > 0
            pivot = d[0] - c2 - s
            for di, e2 in zip(d[1:], e):
                if pivot <= 0:
                    return False
                pivot = di - c2 - s - e2 / pivot
            return pivot > 0

        lo, hi = mpmath.mpf(guess) - 1e-9, mpmath.mpf(guess) + 1e-9
        assert definite(lo) and not definite(hi)
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if definite(mid) else (lo, mid)
        return lo


def coupled_contraction(spec, shift, t):
    """b(t) = ||(t V - shift) U^(-1)|| of a diagonal V: core.contraction of the
    potential t V, formed as eigen_spectra forms it."""
    return core.contraction(spec.with_potential(t * spec.v_band, ""), shift)


def unit_coupling_at_one(spec, shift):
    """The coupling t > 0 with b(t) = 1, bisected on core.contraction to 1e-13
    relative."""
    lo, hi = 0.0, 1.0
    while coupled_contraction(spec, shift, hi) < 1.0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if coupled_contraction(spec, shift, mid) < 1.0 else (lo, mid)
    return 0.5 * (lo + hi)


class TestProvenDefinite:
    """spectral._proven_definite: one dpttrf of -Q(mu) - beta I routes a
    tridiagonal pencil row, with no contraction."""

    @staticmethod
    def beta(spec, c):
        d, e = spec.u2_bands
        return 4.0 * EPS * (c * c + d.max() + np.abs(e).max())

    @pytest.mark.parametrize("ratio, proven", [(2.0, True), (0.75, False), (0.5, False)])
    def test_margin_is_beta(self, ratio, proven):
        # W = c I: -Q(mu) = U^2 - c^2 I, lambda_min = lambda_min(U^2) - c^2,
        # set to ratio * beta from a 40-digit lambda_min(U^2); the order-80
        # oscillator's U^2, whose entries dominate c^2, so that rounding c
        # moves the ratio by under 1 %
        spec = harmonic_model(HarmonicParams(alpha=1.0, grid_points=80))
        d, e = spec.u2_bands
        lowest = lowest_eigenvalue_40(d, e, 0.0, spec.u_min**2)
        c = math.sqrt(float(lowest) - ratio * self.beta(spec, 0.9))
        c = math.sqrt(float(lowest) - ratio * self.beta(spec, c))
        margin = lowest_eigenvalue_40(d, e, c, float(lowest) - c * c)
        assert abs(float(margin) / self.beta(spec, c) - ratio) <= 0.01 * ratio
        w = np.full((1, spec.order), c)
        assert spectral._proven_definite(spec, w).tolist() == [proven]
        constant = spec.with_potential(np.full(spec.order, c), "")
        assert spectral.eigen_spectra(constant, (1.0,), 0.0, nearest=1).pencil[0] == proven

    def test_a_nan_pivot_is_not_proven(self):
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=24))
        w = np.stack([spec.v_band, spec.v_band])
        w[1, 5] = np.nan
        # LAPACK's trap: dpttrf reports success (info 0) past a nan pivot
        d, e = spec.u2_bands
        pivots, _, info = scipy.linalg.lapack.dpttrf(d - w[1] ** 2, e)
        assert info == 0 and np.isnan(pivots).any()
        assert spectral._proven_definite(spec, w).tolist() == [True, False]

    @pytest.mark.parametrize("grid_points", [8, 24, 80, 160, 1000])
    def test_every_contraction_below_one_is_proven(self, grid_points):
        # couplings on either side of b = 1, at least 1e-9 from it: a row
        # with b below one is proven and factored, so it takes the pencil,
        # and none above one is
        spec = harmonic_model(HarmonicParams(alpha=1.0, grid_points=grid_points))
        offsets = np.array([1e-8, 1e-6, 1e-3, 0.1, 0.5])
        for shift in (0.0, 0.3, -0.2):
            one = unit_coupling_at_one(spec, shift)
            t = one * np.concatenate([1.0 - offsets, 1.0 + offsets, [0.0]])
            b = np.array([coupled_contraction(spec, shift, tk) for tk in t])
            below = b <= 1.0 - 1e-9
            assert (below | (b >= 1.0 + 1e-9)).all() and below.sum() == 6
            w = np.multiply.outer(t, spec.v_band) - shift
            proven = spectral._proven_definite(spec, w)
            assert proven.tolist() == below.tolist()
            assert spectral._k_frame_eigensolve(spec, w[below], 1)[3] is None
            if grid_points <= 80:
                stack = spectral.eigen_spectra(spec, t, shift, nearest=1)
                assert stack.pencil.tolist() == below.tolist()

    def test_contraction_just_below_one_takes_the_pencil(self):
        # b = 1 - 1e-13, below any margin on b: the spectrum is real and
        # semisimple, and the pencil certifies it
        spec = harmonic_model(HarmonicParams(alpha=1.0, grid_points=24))
        t = 1.000386940043097
        b = coupled_contraction(spec, 0.0, t)
        assert 0.0 < 1.0 - b < 1e-12
        stack = spectral.eigen_spectra(spec, (t,), 0.0)
        assert stack.pencil.tolist() == [True] and stack.witnesses == (None,)
        assert stack.is_real.tolist() == [True] and np.isfinite(stack.residuals).all()
        report = eigen_spectrum(
            assemble_system(harmonic_model(HarmonicParams(alpha=t, grid_points=24)))
        )
        assert report.solver_path == "similarity" and not report.defective
        assert report.sign_types == ("negative",) * 24 + ("positive",) * 24

    def test_one_more_dpttrf_per_row(self, monkeypatch):
        # every row of a tridiagonal stack takes one dpttrf to be routed,
        # and a pencil row one more, its factor M: no contraction is
        # computed (at order 24 it would take a triangular solve and a
        # Gram matrix, from order 56 up a bisection on dpttrf)
        spec = harmonic_model(HarmonicParams(alpha=0.985, grid_points=24))
        t = np.linspace(0.0, 1.2, 13)   # the last two past b = 1
        calls, factors = [], []
        dpttrf, k_frame = spectral.lapack.dpttrf, spectral._k_frame_eigensolve

        def spy_dpttrf(*args, **kwargs):
            calls.append(len(args[0]))
            return dpttrf(*args, **kwargs)

        def spy_k_frame(*args, **kwargs):
            start = len(calls)
            result = k_frame(*args, **kwargs)
            factors.append(len(calls) - start)
            return result

        monkeypatch.setattr(spectral.lapack, "dpttrf", spy_dpttrf)
        monkeypatch.setattr(spectral, "_k_frame_eigensolve", spy_k_frame)
        monkeypatch.setattr(core, "contraction", None)   # never called
        for nearest in (None, 1):
            calls.clear()
            factors.clear()
            stack = spectral.eigen_spectra(spec, t, 0.0, nearest=nearest)
            assert stack.pencil.tolist() == [True] * 11 + [False] * 2
            assert calls == [24] * (13 + 11) and factors == [11]


def dense_shift(spec, a):
    """The shift c of the dense certificate (spectral._proven_dense) for the
    formed -Q(mu) = a, as its docstring states it."""
    n, u = spec.order, EPS / 2
    kappa = (n + 4) * u / (1 - 2 * (n + 4) * u)
    trace = np.trace(a)
    forming = kappa * (np.trace(spec.u_squared) - (1 - u) * trace)
    return kappa * trace + forming + 4 * n * (n + 1) * 2.0**-1074


def lowest_dense_40(spec, mu):
    """lambda_min(U^2 - (V - mu)^2) to 40 digits, from the float data exactly."""
    with mpmath.workdps(40):
        u2 = mpmath.matrix(spec.u_squared.tolist())
        w = mpmath.matrix(spec.v.tolist()) - mpmath.mpf(mu) * mpmath.eye(spec.order)
        return min(mpmath.eigsy(u2 - w * w, eigvals_only=True))


def dense_model_at(ratio, seed, n=8, mu=0.3):
    """A dense spec whose exact lambda_min(-Q(mu)) is ratio * c, and its formed
    -Q(mu): U^2 = (V - mu)^2 + X X^T + s I, X of rank n - 1, with s moved,
    from U^2's rounded entries, until the 40-digit lambda_min is ratio * c,
    to the rounding of U^2's diagonal."""
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.normal(size=(n, n))
    v = v + v.T
    x = rng.normal(size=(n, n - 1))
    w = v - mu * np.eye(n)
    base = w @ w + 0.5 * x @ x.T
    base = 0.5 * (base + base.T)
    s = 0.0
    for _ in range(8):
        spec = ModelSpec(base + s * np.eye(n), v)
        w_row = core.shifted_potential(spec, mu, (1.0,))
        a = spec.u_squared - w_row @ w_row.swapaxes(-1, -2)
        c = dense_shift(spec, a[0])
        lowest = lowest_dense_40(spec, mu)
        s += float(ratio * c - lowest)
    # U^2's diagonal moves by its rounding, about 2 % of c here
    assert abs(lowest / c - ratio) < 0.03 * ratio
    return spec, a, c


class TestProvenDense:
    """spectral._proven_definite's dense back end: one Cholesky factorization
    of fl(-Q(mu)) - cI, c of the docstring, routes a dense pencil row."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("ratio, proven", [(1.05, True), (0.95, False)])
    def test_margin_is_c(self, ratio, proven, seed):
        # lambda_min(-Q(mu)) about 5 % above and below c, at 40 digits: a c halved
        # proves the lower one, and so does a c without its forming term,
        # for the traces of A make under a third of tr U^2 here
        spec, a, c = dense_model_at(ratio, seed)
        assert np.trace(a[0]) < np.trace(spec.u_squared) / 3
        assert spectral._proven_definite(spec, a).tolist() == [proven]
        assert spectral.eigen_spectra(spec, (1.0,), 0.3, nearest=1).pencil[0] == proven

    def test_nan_or_inf_is_never_proven(self):
        # alone (dpotrf) and in a stack (numpy's Cholesky, then dpotrf per
        # row): a nan or inf entry, on the diagonal or off it, proves nothing
        spec, _ = random_model(np.random.Generator(np.random.PCG64(5)), n=4)
        w = core.shifted_potential(spec, 0.0, np.ones(6))
        a = spec.u_squared - w @ w.swapaxes(-1, -2)
        a[1, 0, 2] = a[1, 2, 0] = np.nan
        a[2, 3, 1] = a[2, 1, 3] = np.inf
        a[3, 2, 2] = np.nan
        a[4, 1, 1] = -np.inf
        a[5, 0, 3] = a[5, 3, 0] = -np.inf
        expected = [True] + [False] * 5
        with np.errstate(invalid="ignore"):
            assert spectral._proven_definite(spec, a).tolist() == expected
            assert [spectral._proven_definite(spec, m[None])[0] for m in a] == expected

    def test_rows_clear_of_one_are_proven(self):
        # 20 dense models of order 160 with b in [0.3, 0.98], and the coupling
        # giving each b = 1 - 1e-6: every row is proven, so it takes the
        # pencil, as the contraction's margin routed it before
        rng = np.random.Generator(np.random.PCG64(160))
        for _ in range(20):
            spec, _ = random_model(rng, n=160, b_lo=0.3, b_hi=0.98)
            b = core.contraction(spec, 0.0)
            assert 0.3 <= b <= 0.98 + 1e-12
            w = core.shifted_potential(spec, 0.0, [1.0, (1.0 - 1e-6) / b])
            a = spec.u_squared - w @ w.swapaxes(-1, -2)
            assert spectral._proven_definite(spec, a).all()
