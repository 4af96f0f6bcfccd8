import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgbounds import (
    HarmonicParams,
    ModelSpec,
    NotCertified,
    apply_j,
    assemble_system,
    core,
    eigen_spectrum,
    eigenpair_residuals,
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
    gram,
    h_frame,
    hamiltonian,
    j_matrix,
    similarity_eigensolve,
    u_power,
)
from conftest import random_model, random_orthogonal, random_spd
from test_core import square_well_pencil_roots


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
            h, vecs = hamiltonian(system.spec), h_frame(report)
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
                mapped = h_frame(report)
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
            np.real(np.vdot(x, apply_j(x))) / np.real(np.vdot(x, x))
            for x in eigenvectors.T
        ]
    )


class TestClassify:
    def test_matches_the_column_loop(self, corpus200):
        # two column reductions against one vdot per column, on the
        # H-frame eigenvectors: the sums run in another order, so the
        # signatures agree to a few ulps of their unit scale and every
        # sign type is the same
        reports = [eigen_spectrum(assemble_system(s, 0.0)) for s, _ in corpus200[:50]]
        reports += [
            eigen_spectrum(assemble_system(square_well_model(tau), 0.0))
            for tau in (2.0, 2.2, 3.0)   # direct path: neutral, complex
        ]
        assert any(np.iscomplexobj(r.eigenvectors) for r in reports)
        for report in reports:
            vecs = h_frame(report)
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


class TestSignOperator:
    def test_free_case_returns_j(self):
        system = assemble_system(free_spec([1.0, 3.0]), 0.0)
        so = sign_operator(eigen_spectrum(system))
        np.testing.assert_allclose(so.j1, j_matrix(2), atol=1e-12)
        assert abs(so.norm_j1 - 1.0) <= 1e-12

    def test_j1_is_derived_from_the_factor(self):
        rng = np.random.Generator(np.random.PCG64(12))
        spec, _ = random_model(rng)
        report = eigen_spectrum(assemble_system(spec, 0.0))
        so = sign_operator(report)
        np.testing.assert_array_equal(so.j1, so.y @ apply_j(so.y).T)
        assert abs(so.norm_j1 - spectral_norm(so.y) ** 2) <= 1e-13 * so.norm_j1
        # the angular identity: in J's eigenbasis the positive columns of Y
        # are [P; Q] with P^T P - Q^T Q = I, and Gamma = Q P^(-1) has
        # ||J1|| = (1 + ||Gamma||) / (1 - ||Gamma||)
        n = spec.order
        y = so.y[:, report.signatures > 0.0]
        p = (y[:n] + y[n:]) / np.sqrt(2.0)
        q = (y[:n] - y[n:]) / np.sqrt(2.0)
        np.testing.assert_allclose(p.T @ p - q.T @ q, np.eye(n), atol=1e-12)
        g = np.linalg.norm(q @ np.linalg.inv(p), 2)
        assert g < 1.0
        assert abs(so.norm_j1 - (1.0 + g) / (1.0 - g)) <= 1e-13 * so.norm_j1

    def test_square_well_norm_window(self):
        system = assemble_system(square_well_model(1.0), -0.5)
        so = sign_operator(eigen_spectrum(system))
        assert 1.0 - 1e-12 <= so.norm_j1 <= 2.0 + 1e-10  # 1/(1-b) = 2

    def test_involution_and_product_definiteness(self):
        rng = np.random.Generator(np.random.PCG64(11))
        spec, _ = random_model(rng)
        system = assemble_system(spec, 0.0)
        so = sign_operator(eigen_spectrum(system))
        two_n = 2 * system.n
        assert spectral_norm(so.j1 @ so.j1 - np.eye(two_n)) <= 1e-8
        product = j_matrix(system.n) @ so.j1
        assert np.abs(product - product.T).max() <= 1e-10
        eigs = np.linalg.eigvalsh(0.5 * (product + product.T))
        assert eigs[0] >= 1.0 / so.norm_j1 - 1e-9

    def test_matches_eigendecomposition_of_h(self):
        # J1 is the matrix function sign(. - mu) of H: X sign(Lambda - mu) X^-1
        rng = np.random.Generator(np.random.PCG64(15))
        for _ in range(20):
            spec, _ = random_model(rng)
            mu = float(rng.uniform(-0.2, 0.2))
            system = assemble_system(spec, mu)
            lam, x = np.linalg.eig(hamiltonian(system.spec))
            oracle = np.real((x * np.sign(lam.real - mu)) @ np.linalg.inv(x))
            j1 = sign_operator(eigen_spectrum(system)).j1
            assert np.abs(j1 - oracle).max() <= 1e-9 * np.abs(oracle).max()

    def test_norm_bounded_by_contraction(self):
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(20):
            spec, _ = random_model(rng)
            system = assemble_system(spec, 0.0)
            so = sign_operator(eigen_spectrum(system))
            assert 1.0 - 1e-12 <= so.norm_j1
            assert so.norm_j1 <= 1.0 / (1.0 - system.contraction) + 1e-10

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
        system = assemble_system(spec, 0.0)
        so = sign_operator(eigen_spectrum(system))
        product = 0.5 * (lambda m: m + m.T)(j_matrix(4) @ so.j1)
        for _ in range(20):
            psi = rng.normal(size=8)
            val = psi @ product @ psi
            norm2 = psi @ psi
            assert norm2 / so.norm_j1 - 1e-9 <= val <= norm2 * so.norm_j1 + 1e-9


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
    """(spec, report) over the corpus, the well, the oscillator, bad scaling."""
    for spec, _ in corpus:
        yield spec, eigen_spectrum(assemble_system(spec, 0.0))
    for tau in (0.0, 1.0, 1.7, 1.99, 2.0, 2.1):
        spec = square_well_model(tau)
        for mu in (0.0, -tau / 2.0):
            yield spec, eigen_spectrum(assemble_system(spec, mu))
    for alpha in (0.3, 0.985):
        spec = harmonic_model(HarmonicParams(alpha=alpha, grid_points=40))
        yield spec, eigen_spectrum(assemble_system(spec, 0.0))
    base = corpus[0][0]
    for s in (1e-8, 1e8):
        spec = ModelSpec(s * base.u_squared, np.sqrt(s) * base.v)
        yield spec, eigen_spectrum(assemble_system(spec, 0.0))


class TestEigenpairResiduals:
    def test_never_below_pencil_residual_and_far_below_the_gate(self, corpus200):
        # sigma_min(Q) = min_x ||Q x|| / ||x||, so the backward error is
        # never below the pencil residual, up to rounding in both
        for spec, report in residual_cases(corpus200):
            lams = report.eigenvalues
            new = eigenpair_residuals(spec, lams, report.eigenvectors)
            for lam, r in zip(lams, new):
                scale = gate_scale(spec, lam)
                assert r >= pencil_residual(spec, lam) - 4.0 * EPS * scale
                assert r < 1e-10 * scale

    def test_never_below_pencil_residual_away_from_the_spectrum(self, corpus200):
        for spec, report in residual_cases(corpus200):
            moved = report.eigenvalues + 1e-3 * (1.0 + np.abs(report.eigenvalues))
            new = eigenpair_residuals(spec, moved, report.eigenvectors)
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
        report = eigen_spectrum(assemble_system(spec, mu))
        lams = report.eigenvalues
        new = eigenpair_residuals(spec, lams, report.eigenvectors)
        for lam, r in zip(lams, new):
            assert r >= pencil_residual(spec, lam) - 4.0 * EPS * gate_scale(spec, lam)


class TestDefectCheck:
    def test_defective_at_critical_coupling(self):
        system = assemble_system(square_well_model(2.0), -1.0)
        report = eigen_spectrum(system)
        assert report.defective
        assert abs(complex(report.witness.eigenvalue).real + 1.0) < 1e-6
        x = report.witness.vector
        neutrality = abs(np.vdot(x, apply_j(x))) / np.vdot(x, x).real
        assert neutrality < 1e-6

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
            n, z, lam = spec.order, report.eigenvectors, report.eigenvalues
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
        # fails: the stack is factored again row by row, and only the
        # failing row takes the direct path
        spec = square_well_model(1.0)
        couplings = np.array([0.1, 0.2, 0.3, 0.4])
        w = core.shifted_potential(spec, 0.0, couplings[2:3])[0]
        failing = spec.u_squared - w @ w.T
        cholesky, calls = np.linalg.cholesky, []

        def fail_one(a, *args, **kwargs):
            calls.append(np.shape(a))
            hit = np.abs(np.asarray(a) - failing).max(axis=(-2, -1)) <= 1e-14
            if np.any(hit):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", fail_one)
        stack = spectral.eigen_spectra(spec, couplings, 0.0)
        assert calls == [(4, 2, 2)] + [(2, 2)] * 4
        assert stack.pencil.tolist() == [True, True, False, True]
        assert stack.is_real.all() and not stack.defective.any()
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        # the other rows are those of the stack that factors at once, bit
        # for bit, and every row matches its stack of one
        whole = spectral.eigen_spectra(spec, couplings, 0.0)
        for k, report in enumerate(self.per_row(spec, couplings, 0.0)):
            assert np.abs(stack.eigenvalues[k] - report.eigenvalues).max() <= 1e-12
            if k != 2:
                np.testing.assert_array_equal(
                    stack.eigenvectors[k], whole.eigenvectors[k]
                )

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
        potentials = np.multiply.outer(couplings, spec.v)
        stacked = eigenpair_residuals(
            spec, stack.eigenvalues, stack.eigenvectors, potentials
        )
        for k, t in enumerate(couplings):
            row_spec = spec.with_potential(t * spec.v, "")
            row = eigenpair_residuals(
                row_spec, stack.eigenvalues[k], stack.eigenvectors[k]
            )
            np.testing.assert_allclose(stacked[k], row, rtol=1e-12, atol=1e-15)


class TestEigenvaluesOnly:
    """eigen_spectra(..., nearest=k) against the solve with vectors."""

    @staticmethod
    def assert_same_rows(spec, couplings, shift=0.0, nearest=3):
        full = spectral.eigen_spectra(spec, couplings, shift)
        bare = spectral.eigen_spectra(spec, couplings, shift, nearest=nearest)
        n = spec.order
        middle = slice(n - min(nearest, n), n + min(nearest, n))
        assert bare.eigenvectors is None
        assert bare.pencil.tolist() == full.pencil.tolist()
        assert bare.is_real.tolist() == full.is_real.tolist()
        assert bare.defective.tolist() == full.defective.tolist()
        np.testing.assert_array_equal(bare.contractions, full.contractions)
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
        # from order 32 up a stack of one takes one tridiagonalization
        # (dsytrd) and one bisection per end (dstebz); the contraction's
        # Gram matrix, of order 20, takes dsyevd without vectors
        calls = []

        def spy(name):
            routine = getattr(spectral.lapack, name)

            def record(a, *args, **kwargs):
                calls.append((name, kwargs.get("compute_v")))
                return routine(a, *args, **kwargs)

            monkeypatch.setattr(spectral.lapack, name, record)

        # built first: its validation takes the ends of the spectrum of U^2
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=20))
        for name in ("dsyevd", "dsyevr", "dsytrd", "dstebz"):
            spy(name)
        spectral.eigen_spectra(spec, (1.0,), 0.0, nearest=3)
        assert calls == [
            ("dsyevd", 0), ("dsytrd", None), ("dstebz", None), ("dstebz", None)
        ]
