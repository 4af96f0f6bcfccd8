import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgbounds import bounds as bounds_module, core
from kgbounds.core import _spectrum_ends, symmetrize
from kgbounds.models import HarmonicParams, harmonic_model
from kgbounds import (
    ContractionNotLessThanOne,
    KappaMinusNotAboveMinusOne,
    KappaOutOfRange,
    ModelSpec,
    NotCertified,
    NotPositiveDefinite,
    PerturbationSpec,
    assemble_system,
    bounds_report,
    delta_gram,
    eigen_spectrum,
    gap_bound,
    gap_inclusion,
    improved_inclusion,
    kappa_disjoint,
    kappa_general,
    kappa_relative,
    kappa_signed_pair,
    kappa_sum,
    norm_bound_interval,
    operator_a,
    optimize_shift,
    perturbation_constants,
    random_perturbation,
    rescale_kappa,
    sign_operator,
    spectral_norm,
    square_well_model,
    square_well_perturbation,
    verify_bounds,
)
from oracles import (
    block_structure_analysis,
    eigenpairs,
    exact_kappa_pm,
    factor_congruence,
    gram,
    l_frame,
    shifted_gram,
    similarity_eigensolve,
    sqrt_spd,
    u_power,
)
from conftest import (
    constants_of,
    random_model,
    random_model_and_perturbation,
    random_orthogonal,
    random_spd,
)

EPS = np.finfo(float).eps


def mp_kappa_pair(spec, dv, shift=0.0, dps=60):
    """Extreme eigenvalues of the pencil (dK, K - shift*J) in dps digits.

    K = [[U^2, V], [V, I]] and dK = [[0, dV], [dV, 0]] are congruent to G
    and dG, so this is the exact pair of the float data, computed
    without a matrix root: L^(-1) dK L^(-T) with K - shift*J = L L^T.
    """
    mp = mpmath.mp
    with mpmath.workdps(dps):
        n = spec.order
        k, dk = mp.zeros(2 * n, 2 * n), mp.zeros(2 * n, 2 * n)
        for i in range(n):
            k[n + i, n + i] = 1
            for j in range(n):
                k[i, j] = mp.mpf(spec.u_squared[i, j])
                w = mp.mpf(spec.v[i, j]) - (mp.mpf(shift) if i == j else 0)
                k[i, n + j] = k[n + i, j] = w
                dk[i, n + j] = dk[n + i, j] = mp.mpf(dv[i, j])
        l_inv = mp.inverse(mp.cholesky(k))
        w = mp.eigsy(l_inv * dk * l_inv.T, eigvals_only=True)
        return float(min(w)), float(max(w))


class TestGapBound:
    def test_zero_potential(self):
        spec = ModelSpec(u_squared=np.diag([4.0, 9.0]), v=np.zeros((2, 2)))
        assert abs(gap_bound(assemble_system(spec, 0.0)) - 2.0) <= 1e-12

    def test_square_well_half_shift(self):
        system = assemble_system(square_well_model(1.0), -0.5)
        assert abs(gap_bound(system) - 0.5) <= 1e-12

    def test_no_eigenvalue_inside(self):
        rng = np.random.Generator(np.random.PCG64(5))
        spec, _ = random_model(rng)
        system = assemble_system(spec, 0.0)
        alpha = gap_bound(system)
        report = eigen_spectrum(system)
        assert np.abs(report.eigenvalues).min() >= alpha * (1 - 1e-12)

    def test_requires_contraction_below_one(self):
        with pytest.raises(ContractionNotLessThanOne):
            gap_bound(assemble_system(square_well_model(2.5), -1.25))

    def test_nan_contraction_is_rejected(self, monkeypatch):
        # b = nan, as an overflowing A with entries inf - inf gives, is no
        # contraction: neither the gap nor any kappa may be formed from it.
        # A system computes its b when first read, from core.contraction
        monkeypatch.setattr(core, "contraction", lambda spec, shift: math.nan)
        system = assemble_system(square_well_model(1.0), 0.0)
        assert math.isnan(system.contraction)
        with pytest.raises(ContractionNotLessThanOne, match="b = nan"):
            gap_bound(system)
        for kappa in (kappa_general, kappa_relative, kappa_disjoint, kappa_signed_pair):
            with pytest.raises(ContractionNotLessThanOne, match="b = nan"):
                kappa(0.1, math.nan)


class TestScalarFormulas:
    def test_table_values(self):
        assert abs(kappa_general(0.1, 0.5) - 0.2) <= 1e-15
        assert abs(kappa_general(0.001, 0.85) - 6.6667e-03) <= 5e-8

    def test_collapse_at_zero_contraction(self):
        c = 0.37
        assert kappa_general(c, 0.0) == c
        assert kappa_sum(c, 0.0) == c
        assert kappa_disjoint(c, 0.0) == c

    def test_formula_ordering(self):
        # disjoint <= general and c <= general on a (b, c) sample
        for b in np.linspace(0.0, 0.95, 12):
            for c in np.linspace(0.0, 0.8, 9):
                assert kappa_disjoint(c, b) <= kappa_general(c, b) + 1e-15
                assert c <= kappa_general(c, b) + 1e-15

    def test_general_tighter_than_sum_below_one(self):
        for b in np.linspace(0.05, 0.9, 9):
            for c in np.linspace(0.01, 0.9, 9):
                if c + b < 1.0:
                    assert kappa_general(c, b) <= kappa_sum(c, b) + 1e-15


class TestExactKappa:
    def test_zero_perturbation(self):
        g = random_spd(np.random.Generator(np.random.PCG64(1)), 4)
        km, kp = exact_kappa_pm(g, np.zeros((4, 4)))
        assert abs(km) <= 1e-12 and abs(kp) <= 1e-12

    def test_proportional_forms(self):
        g = random_spd(np.random.Generator(np.random.PCG64(2)), 5)
        km, kp = exact_kappa_pm(g, 0.3 * g)
        assert abs(km - 0.3) <= 1e-10 and abs(kp - 0.3) <= 1e-10

    def test_square_well_bounded_by_table_constant(self):
        system = assemble_system(square_well_model(1.0), -0.5)
        pert = PerturbationSpec(delta_v=np.diag([-0.1, 0.0]))
        g = shifted_gram(gram(system.spec), system.shift)
        km, kp = exact_kappa_pm(g, delta_gram(system, pert))
        assert max(abs(km), abs(kp)) <= 0.2 + 1e-12

    def test_requires_positive_definite_g(self):
        with pytest.raises(NotPositiveDefinite):
            exact_kappa_pm(np.diag([1.0, -1.0]), np.eye(2))

    def test_matches_congruence_quotient_oracle(self):
        # brute force: extreme Rayleigh quotients of dG against G over a
        # random vector sample never exceed the computed extremes
        rng = np.random.Generator(np.random.PCG64(21))
        g = random_spd(rng, 5)
        dg = 0.5 * (lambda m: m + m.T)(rng.normal(size=(5, 5)))
        km, kp = exact_kappa_pm(g, dg)
        quotients = []
        for _ in range(500):
            psi = rng.normal(size=5)
            quotients.append((psi @ dg @ psi) / (psi @ g @ psi))
        assert km <= min(quotients) + 1e-12
        assert max(quotients) <= kp + 1e-12


class TestRescaleKappa:
    def test_symmetric_pair(self):
        assert rescale_kappa(-0.4, 0.4) == (0.0, 0.4)

    def test_direct_evaluation(self):
        k0, kp = rescale_kappa(0.0, 1.0)
        assert abs(k0 - 0.5) <= 1e-15 and abs(kp - 1.0 / 3.0) <= 1e-15

    def test_large_upper_still_below_one(self):
        _, kp = rescale_kappa(-0.9, 100.0)
        assert abs(kp - 100.9 / 101.1) <= 1e-12
        assert kp < 1.0

    def test_never_hurts(self):
        rng = np.random.Generator(np.random.PCG64(15))
        for _ in range(200):
            km = float(rng.uniform(-0.99, 2.0))
            kp = float(rng.uniform(km, km + 3.0))
            k0, kph = rescale_kappa(km, kp)
            kappa = max(abs(km), abs(kp))
            assert kph <= kappa + 1e-12
            if abs(km + kp) <= 1e-12:
                assert abs(kph - kappa) <= 1e-12
            elif abs(km + kp) > 1e-9:
                assert kph < kappa

    def test_rejects_lower_bound_at_minus_one(self):
        with pytest.raises(KappaMinusNotAboveMinusOne):
            rescale_kappa(-1.0, 0.5)
        with pytest.raises(ValueError):
            rescale_kappa(0.5, 0.1)


class TestGapInclusion:
    def test_straddling(self):
        np.testing.assert_allclose(gap_inclusion((-1.0, 1.0), 0.2), (-0.8, 0.8))

    def test_positive_gap(self):
        np.testing.assert_allclose(gap_inclusion((2.0, 4.0), 0.25), (2.5, 3.0))

    def test_negative_gap(self):
        np.testing.assert_allclose(gap_inclusion((-4.0, -2.0), 0.25), (-3.0, -2.5))

    def test_kappa_range(self):
        with pytest.raises(KappaOutOfRange):
            gap_inclusion((-1.0, 1.0), 1.0)
        with pytest.raises(KappaOutOfRange):
            gap_inclusion((-1.0, 1.0), -0.1)

    def test_empty_result_when_endpoints_cross(self):
        lo, hi = gap_inclusion((2.0, 2.2), 0.5)
        assert not lo < hi

    def test_predicted_inside_original_for_straddling(self):
        lo, hi = gap_inclusion((-2.0, 3.0), 0.4)
        assert -2.0 <= lo <= hi <= 3.0


class TestImprovedInclusion:
    def test_symmetric_pair_reduces_to_plain(self):
        improved = improved_inclusion((-1.0, 1.0), -0.3, 0.3)
        plain = gap_inclusion((-1.0, 1.0), 0.3)
        np.testing.assert_allclose(improved, plain)
        np.testing.assert_allclose(improved, (-0.7, 0.7))

    def test_pure_stretch(self):
        # equal bounds mean dg = 0.3 g exactly: the gap just scales
        np.testing.assert_allclose(
            improved_inclusion((-1.0, 1.0), 0.3, 0.3), (-1.3, 1.3)
        )

    def test_one_sided_growth(self):
        # kappa_minus = 0: nothing can move toward the gap, so it is kept
        np.testing.assert_allclose(
            improved_inclusion((-1.0, 1.0), 0.0, 0.5), (-1.0, 1.0), atol=1e-15
        )

    def test_contains_plain_inclusion(self):
        rng = np.random.Generator(np.random.PCG64(16))
        for _ in range(100):
            km = float(rng.uniform(-0.9, 0.9))
            kp = float(rng.uniform(km, 1.5))
            gap = (-float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0)))
            kappa = max(abs(km), abs(kp))
            if kappa >= 1.0:
                continue
            plain = gap_inclusion(gap, kappa)
            improved = improved_inclusion(gap, km, kp)
            assert improved[0] <= plain[0] + 1e-12
            assert plain[1] <= improved[1] + 1e-12

    def test_requires_straddling_gap(self):
        with pytest.raises(Exception):
            improved_inclusion((1.0, 2.0), -0.1, 0.1)


class TestNormBoundInterval:
    def test_zero_perturbation(self):
        assert norm_bound_interval((-1.0, 2.0), 0.0, 1.7) == (-1.0, 2.0)

    def test_far_gap(self):
        assert norm_bound_interval((10.0, 20.0), 1.0, 2.0) == (12.0, 18.0)

    def test_square_well_exclusion(self):
        # dV = diag(0.1, 0) on the well at tau = 1: the uniform interval
        # excludes every eigenvalue of the perturbed Hamiltonian
        spec = square_well_model(1.0)
        system = assemble_system(spec, -0.5)
        report = eigen_spectrum(system)
        gap = report.central_gap
        nj1 = sign_operator(report)
        lo, hi = norm_bound_interval(gap, 0.1, nj1)
        report_p = eigen_spectrum(
            assemble_system(spec.perturbed(np.diag([0.1, 0.0])), -0.5)
        )
        for lam in report_p.eigenvalues:
            assert lam <= lo + 1e-12 or lam >= hi - 1e-12

    def test_soundness_with_true_norm(self):
        # a = ||dG|| = ||S||: no perturbed eigenvalue enters the interval
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(20):
            spec, dv = random_model_and_perturbation(rng)
            system = assemble_system(spec, 0.0)
            report = eigen_spectrum(system)
            gap = report.central_gap
            a = spectral_norm(delta_gram(system, PerturbationSpec(delta_v=dv)))
            lo, hi = norm_bound_interval(gap, a, sign_operator(report))
            if lo >= hi:
                continue
            report_p = eigen_spectrum(assemble_system(spec.perturbed(dv), 0.0))
            for lam in np.real(report_p.eigenvalues):
                assert lam <= lo + 1e-10 or lam >= hi - 1e-10


class TestBlockStructure:
    def test_zero_perturbation(self):
        rng = np.random.Generator(np.random.PCG64(18))
        a = rng.normal(size=(4, 4))
        a *= 0.6 / spectral_norm(a)
        bs = block_structure_analysis(a, np.zeros((4, 4)))
        assert bs.a_minus == bs.a_plus == 0.0
        assert bs.norm_b == 0.0
        assert bs.kappa_minus == bs.kappa_plus == 0.0

    def test_disjoint_diagonal_supports(self):
        # diagonal A, dA on complementary indices: the (1,1) block
        # vanishes and the quotient range is +-||B||
        a = np.diag([0.5, 0.3, 0.0, 0.0])
        da = np.diag([0.0, 0.0, 0.2, 0.1])
        bs = block_structure_analysis(a, da)
        assert abs(bs.a_minus) <= 1e-14 and abs(bs.a_plus) <= 1e-14
        assert abs(bs.kappa_plus - bs.norm_b) <= 1e-14
        assert abs(bs.kappa_minus + bs.norm_b) <= 1e-14
        assert bs.norm_b <= bs.norm_b_bound + 1e-14

    def test_retrieval_of_general_constant(self):
        # t_bound at a = 2 b ||dA|| / (1 - b^2) recovers ||dA|| / (1 - b)
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            a *= 0.5 / spectral_norm(a)
            da = rng.normal(size=(5, 5))
            da *= float(rng.uniform(0.01, 0.3)) / spectral_norm(da)
            b, c = spectral_norm(a), spectral_norm(da)
            bs = block_structure_analysis(a, da)
            t = bs.t_bound(2.0 * b * c / (1.0 - b * b))
            assert t >= c / (1.0 - b) - 1e-12

    def test_certified_pair_matches_exact_quotient_range(self):
        # the congruence chain reproduces the generalized eigenproblem:
        # extremes of L* dA_block L equal the exact dg/g extremes
        rng = np.random.Generator(np.random.PCG64(19))
        spec, dv = random_model_and_perturbation(rng, n=5)
        system = assemble_system(spec, 0.0)
        a, da = operator_a(spec, 0.0), l_frame(spec, dv)
        n = 5
        s_inv_root = np.linalg.inv(sqrt_spd(np.eye(n) - a.T @ a))
        upper = np.block([[s_inv_root, np.zeros((n, n))], [-a @ s_inv_root, np.eye(n)]])
        da_block = np.block([[np.zeros((n, n)), da.T], [da, np.zeros((n, n))]])
        transformed = upper.T @ da_block @ upper
        eigs = np.linalg.eigvalsh(0.5 * (transformed + transformed.T))
        km, kp = exact_kappa_pm(
            shifted_gram(gram(system.spec), system.shift),
            delta_gram(system, PerturbationSpec(delta_v=dv)),
        )
        assert abs(eigs[0] - km) <= 1e-9
        assert abs(eigs[-1] - kp) <= 1e-9
        # and the closed-form pair brackets them
        bs = block_structure_analysis(a, da)
        assert bs.kappa_minus <= km + 1e-10
        assert kp <= bs.kappa_plus + 1e-10

    def test_requires_contraction_below_one(self):
        with pytest.raises(ContractionNotLessThanOne):
            block_structure_analysis(np.eye(3), np.zeros((3, 3)))


class TestPerturbationConstants:
    def test_zero_perturbation_collapses(self):
        system = assemble_system(square_well_model(1.0), -0.5)
        bundle = constants_of(system, np.zeros((2, 2)))
        assert bundle.kappas["kappa_general"][0] == 0.0
        assert bundle.kappas["kappa_sum"][0] == system.contraction
        assert bundle.kappas["kappa_exact"][0] == (0.0, 0.0)
        entries = {key: value for key, value, _ in bundle.entries()}
        assert entries["kappa0_hat"] == 0.0 and entries["kappa_prime_hat"] == 0.0

    def test_square_well_table_constant(self):
        system = assemble_system(square_well_model(1.0), -0.5)
        bundle = constants_of(system, square_well_perturbation(0.1))
        # the product-norm route is the table value eta / (1 - tau/2)
        k_prod = bundle.kappas["kappa_norm_product"][0]
        assert abs(k_prod - 0.2) <= 1e-12
        # the direct measurement c = eta sqrt(2/3) is tighter
        assert abs(bundle.c - 0.1 * np.sqrt(2.0 / 3.0)) <= 1e-12
        assert bundle.kappas["kappa_general"][0] < k_prod

    def test_invalid_but_tabulated(self):
        system = assemble_system(square_well_model(1.7), -0.85)
        bundle = constants_of(system, square_well_perturbation(0.3))
        k_prod, valid = bundle.kappas["kappa_norm_product"]
        assert abs(k_prod - 2.0) <= 1e-12
        assert not valid

    def test_disjoint_flag_and_value(self):
        # diagonal well with the potential and perturbation on disjoint
        # sites (flat U^2 keeps the mixed product zero)
        spec = ModelSpec(
            u_squared=np.diag([2.0, 2.0, 2.0]),
            v=np.diag([0.8, 0.0, 0.0]),
            label="disjoint",
        )
        system = assemble_system(spec, 0.0)
        bounds = constants_of(system, np.diag([0.0, 0.3, 0.0]))
        assert bounds.disjoint
        assert "kappa_disjoint" in bounds.kappas
        k_dis = bounds.kappas["kappa_disjoint"][0]
        assert abs(k_dis - bounds.c / np.sqrt(1 - bounds.b**2)) <= 1e-14
        assert k_dis <= bounds.kappas["kappa_general"][0] + 1e-14

    def test_signed_flag(self):
        spec = ModelSpec(
            u_squared=np.diag([2.0, 3.0]), v=np.diag([0.9, -0.4]), label="signed"
        )
        system = assemble_system(spec, 0.0)
        bounds = constants_of(system, np.diag([-0.2, 0.1]))  # V dV <= 0
        assert bounds.signed == "negative"
        km, kp = bounds.kappas["kappa_signed"][0]
        assert abs(km + bounds.c / np.sqrt(1 - bounds.b**2)) <= 1e-14
        assert abs(kp - bounds.c / (1 - bounds.b)) <= 1e-14

    def test_nu_measured_against_invertible_v(self):
        spec = ModelSpec(u_squared=np.diag([2.0, 3.0]), v=np.diag([0.5, -0.6]))
        system = assemble_system(spec, 0.0)
        bounds = constants_of(system, np.diag([0.1, 0.15]))
        assert abs(bounds.nu - 0.25) <= 1e-12  # ||dV V^-1|| for diagonals
        assert abs(
            bounds.kappas["kappa_relative"][0] - bounds.nu * bounds.b / (1 - bounds.b)
        ) <= 1e-12

    def test_nu_matches_the_inverse_product(self, corpus200):
        # nu = ||dV P diag(1/w)|| from V = P diag(w) P^T against the
        # product with the explicit inverse, on dense V and dV.  Either
        # route carries a relative error of order eps cond(V) (the corpus
        # reaches cond(V) = 1.7e4), so the tolerance scales with it
        for spec, dv in corpus200:
            nu = constants_of(assemble_system(spec, 0.0), dv).nu
            reference = spectral_norm(dv @ np.linalg.inv(spec.v))
            w = np.abs(np.linalg.eigvalsh(spec.v))
            tol = 4 * spec.order * EPS * w.max() / w.min()
            assert abs(nu - reference) <= tol * reference

    def test_nu_matches_a_50_digit_solve(self, corpus200):
        # corpus case 85 has cond(V) = 1.7e4: from the eigendecomposition
        # of V, nu was 1.0e-12 off; the Bunch-Kaufman solve keeps 1e-13
        spec, dv = corpus200[85]
        nu = constants_of(assemble_system(spec, 0.0), dv).nu
        with mpmath.workdps(50):
            product = mpmath.matrix(dv.tolist()) * mpmath.matrix(spec.v.tolist()) ** -1
            reference = max(mpmath.svd_r(product, compute_uv=False))
            assert abs(nu - reference) <= 1e-13 * reference

    def test_exact_pair_matches_oracle(self, corpus200):
        # the ends of S = F^(-1) dK F^(-T) from the spectrum's pencil factor
        # agree to rounding with the generalized eigensolve of
        # (dG, G - mu*J) over the corpus and on models scaled by 1e-8 and
        # 1e8; near the critical contraction that oracle itself drifts
        # (up to 7e-12), so there the pair is held to a 60-digit solve
        # of the congruent K-frame pencil (dK, K - mu*J)
        rng = np.random.Generator(np.random.PCG64(20261018))
        near_critical = [
            random_model_and_perturbation(rng, b_lo=0.99, b_hi=1.0 - 1e-6)
            for _ in range(100)
        ]
        scaled = []
        for k in range(100):
            spec, dv = random_model_and_perturbation(rng)
            s = 1e-8 if k % 2 else 1e8
            scaled.append(
                (ModelSpec(u_squared=s * s * spec.u_squared, v=s * spec.v), s * dv)
            )

        def oracle(system, dv):
            return exact_kappa_pm(
                shifted_gram(gram(system.spec), system.shift), delta_gram(system, dv)
            )

        cases = [(spec, dv, oracle) for spec, dv in corpus200 + scaled] + [
            (spec, dv, lambda system, dv: mp_kappa_pair(system.spec, dv))
            for spec, dv in near_critical
        ]
        for spec, dv, reference in cases:
            system = assemble_system(spec, 0.0)
            km, kp = reference(system, dv)
            pair = constants_of(system, dv).kappas["kappa_exact"][0]
            tol = 1e-12 * max(abs(km), abs(kp))
            assert abs(pair[0] - km) <= tol and abs(pair[1] - kp) <= tol

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        b=st.floats(0.0, 1.0 - 1e-6),
        c_frac=st.floats(0.01, 0.9),
        log_scale=st.floats(-8.0, 8.0),
        mu_frac=st.floats(-1.0, 1.0),
    )
    # V = mu*I with a subnormal mu: ||dV V^(-1)|| is near the top of the
    # float range (its Gram matrix overflows), then V^(-1) itself overflows
    # and nu is absent
    @example(
        n=3, seed=0, b=0.0, c_frac=0.5, log_scale=0.0, mu_frac=1.1125369292536007e-308
    )
    @example(n=3, seed=0, b=0.0, c_frac=0.5, log_scale=0.0, mu_frac=5e-324)
    def test_property_k_frame_eigenvectors_and_pair(
        self, n, seed, b, c_frac, log_scale, mu_frac
    ):
        # U^2 scaled by 10^log_scale, (V - mu) U^-1 of norm b and
        # dV U^-1 of norm c_frac (1 - b), solved at the shift mu.  The
        # pencil's eigenvectors Z from the report's own solve satisfy
        # Z^T (K - mu*J) Z = I, and the report gives the exact pair of the
        # H-frame oracle, both to first-order rounding in the condition
        # 1/(1 - b) of the pencil
        rng = np.random.Generator(np.random.PCG64(seed))
        s = 10.0**log_scale
        q = random_orthogonal(rng, n)
        u2 = (q * (s * rng.uniform(0.4, 4.0, size=n))) @ q.T
        u_inv = u_power(ModelSpec(u2, np.zeros((n, n))), -1)

        def scaled(norm):
            raw = rng.normal(size=(n, n))
            raw = raw + raw.T
            return raw * (norm / max(spectral_norm(raw @ u_inv), 1e-300))

        mu = mu_frac * np.sqrt(s)
        w = scaled(b)
        dv = scaled(c_frac * (1.0 - b))
        spec = ModelSpec(u2, w + mu * np.eye(n))
        system = assemble_system(spec, mu)
        report = eigen_spectrum(system)
        assert report.solver_path == "similarity"
        z, tol = eigenpairs(spec, mu)[1], 16 * n * EPS / (1.0 - b)
        k_shifted = np.block([[u2, w], [w, np.eye(n)]])
        assert np.abs(z.T @ k_shifted @ z - np.eye(2 * n)).max() <= tol
        km, kp = exact_kappa_pm(
            shifted_gram(gram(system.spec), mu), delta_gram(system, dv)
        )
        pair = constants_of(system, dv).kappas["kappa_exact"][0]
        scale = max(abs(km), abs(kp))
        assert abs(pair[0] - km) <= tol * scale and abs(pair[1] - kp) <= tol * scale

    @pytest.mark.parametrize("v0", [1e2, 1e4, 1e6])
    def test_far_shift_keeps_the_pair(self, v0):
        # V0 + v0*I at shift v0 is V0 at shift 0 moved along the axis:
        # the same pencil, so the same exact pair, up to the rounding of
        # the stored potential V0 + v0*I
        rng = np.random.Generator(np.random.PCG64(20261019))
        for _ in range(20):
            spec, dv = random_model_and_perturbation(rng)
            near = constants_of(assemble_system(spec, 0.0), dv).kappas["kappa_exact"][0]
            far_spec = spec.with_potential(spec.v + v0 * np.eye(spec.order), "far")
            far = constants_of(assemble_system(far_spec, v0), dv).kappas["kappa_exact"][0]
            tol = (1e-16 * v0 + 2e-13) * max(abs(near[0]), abs(near[1]))
            assert abs(far[0] - near[0]) <= tol and abs(far[1] - near[1]) <= tol

    def test_uncertified_system_rejected(self):
        # b = 1 - 4e-16 < 1, but too close to one for a proven -Q(mu) > 0
        tau = 2.0 - 1e-15
        system = assemble_system(square_well_model(tau), -tau / 2.0)
        assert system.contraction < 1.0
        with pytest.raises(NotCertified):
            constants_of(system, square_well_perturbation(0.1))

    def test_nu_absent_for_singular_v(self):
        system = assemble_system(square_well_model(0.0), 0.0)
        bounds = constants_of(system, np.diag([0.1, 0.0]))
        assert bounds.nu is None
        assert "kappa_relative" not in bounds.kappas


class TestStructuredRoutes:
    """nu on a diagonal V against the dense route it replaced, and the exact
    pair from the pencil factor against a dense oracle."""

    @staticmethod
    def both_routes(d, dv):
        """nu by row scaling with the diagonal d, and by Bunch-Kaufman on diag(d)."""
        return (
            bounds_module._relative_factor(dv, np.asarray(d, dtype=float)),
            bounds_module._relative_factor(dv, np.diag(d)),
        )

    def test_diagonal_nu_matches_bunch_kaufman(self):
        # random diagonals of order up to 400 with entries across 1e-8 ..
        # 1e8, five decades at a time so that V stays invertible
        rng = np.random.Generator(np.random.PCG64(20261019))
        for _ in range(40):
            n = int(rng.integers(1, 401))
            centre = rng.uniform(-8.0, 8.0)
            d = rng.choice([-1.0, 1.0], n) * 10.0 ** (centre + rng.uniform(-2.5, 2.5, n))
            dv = rng.normal(size=(n, n))
            nu, reference = self.both_routes(d, dv + dv.T)
            assert abs(nu - reference) <= 4 * EPS * reference

    @pytest.mark.parametrize(
        "d, dv_scale, present",
        [
            ([1.0, 0.0, 2.0], 1.0, False),   # a zero entry
            ([1.0, -bounds_module.INV_RTOL * (1 + 1e-6)], 1.0, True),
            ([1.0, -bounds_module.INV_RTOL * (1 - 1e-6)], 1.0, False),
            ([1e308, -1e308, 1e308], 1e300, True),
            ([1e308, -1.0, 1e308], 1.0, False),   # 1/cond(V) = 1e-308
            ([1e-308, -1e-308, 1e-308], 10.0, False),   # V^(-1) dV overflows
            ([3e-309, 3e-309, 3e-309], 1.0, False),   # V^(-1) overflows
        ],
        ids=["zero", "above-rtol", "below-rtol", "1e308", "1e308-and-1",
             "product-overflows", "inverse-overflows"],
    )
    def test_diagonal_nu_absent_where_bunch_kaufman_is(self, d, dv_scale, present):
        dv = dv_scale * (np.ones((3, 3)) + np.eye(3))[: len(d), : len(d)]
        nu, reference = self.both_routes(np.array(d), dv)
        assert (nu is not None) == (reference is not None) == present
        if present:
            assert abs(nu - reference) <= 4 * EPS * reference

    @staticmethod
    def solved(n):
        """(system, report, dV) on a random model of order n <= 8, else the
        alpha = 0.3 oscillator of n grid points, at shift 0."""
        rng = np.random.Generator(np.random.PCG64(n))
        spec = (
            harmonic_model(HarmonicParams(alpha=0.3, grid_points=n))
            if n > 8
            else random_model(rng, n=n)[0]
        )
        system = assemble_system(spec, 0.0)
        dv = rng.normal(size=(n, n))
        return system, eigen_spectrum(system), 1e-3 * (dv + dv.T)

    @pytest.mark.parametrize("n", [2, 7, 40, 160])
    def test_exact_pair_is_that_of_the_factor_congruence(self, n, monkeypatch):
        # perturbation_constants takes the pair from the ends of
        # S = F^(-1) dK F^(-T), formed from dV / 2^k (its largest entry in
        # [1/2, 1)) with the pencil factor M the report keeps: the dense
        # lower factor at n <= 8, the banded one of the tridiagonal route
        # at 40 and 160.  That M factors -Q(0) = U^2 - V^2, and the lower
        # triangle of S is the oracle's dense F^(-1) dK F^(-T) on the same
        # M to first order in the rounding of the solves with M
        system, report, dv = self.solved(n)
        spec, m = system.spec, report.pencil_factor
        if spec.tridiagonal and n >= 16:
            assert m.shape == (2, n)
            m = np.diag(m[0]) + np.diag(m[1, :-1], -1)
        q = spec.u_squared - spec.v @ spec.v
        assert np.abs(m @ m.T - q).max() <= 8 * n * EPS * np.abs(q).max()
        formed = []

        def spy(a, *args, **kwargs):
            if a.shape == (2 * n, 2 * n):
                formed.append(a.copy())
            return _spectrum_ends(a, *args, **kwargs)

        monkeypatch.setattr(bounds_module, "_spectrum_ends", spy)
        pair = perturbation_constants(system, dv, report).kappas["kappa_exact"][0]
        (s,) = formed
        assert not s[:n, n:].any()   # the lower triangle alone
        k = math.frexp(np.abs(dv).max())[1]
        assert pair == tuple(math.ldexp(end, k) for end in _spectrum_ends(s))
        oracle = factor_congruence(spec, 0.0, m, dv)
        cond = spectral_norm(m) * spectral_norm(np.linalg.inv(m))
        tol = 8 * n * EPS * cond * spectral_norm(oracle)
        lower = np.tril_indices(2 * n)
        assert np.abs(np.ldexp(s, k)[lower] - oracle[lower]).max() <= tol

    @pytest.mark.parametrize("n", [7, 160])
    def test_exact_pair_reads_no_eigenvector(self, n):
        # the pair comes from the pencil factor alone: a report of the two
        # eigenvalues nearest the shift, with the same factor, gives it bit
        # for bit
        system, report, dv = self.solved(n)
        pair = perturbation_constants(system, dv, report).kappas["kappa_exact"][0]
        bare = eigen_spectrum(system, nearest=1)
        assert bare.eigenvalues.shape == (2,)
        assert perturbation_constants(system, dv, bare).kappas["kappa_exact"][0] == pair


def a_form_sign(a, da, b, c):
    """The sign verdict on dA^T A + A^T dA formed from A and dA themselves."""
    lowest, highest = _spectrum_ends(symmetrize(da.T @ a + a.T @ da))
    return bounds_module._mixed_product_sign(lowest, highest, b, c)


class TestBadlyScaledConstants:
    """b, c, the mixed product and the optimized b read through L and M,
    against the U frame's (V - mu) U^(-1) from a matrix square root."""

    @staticmethod
    def cases(corpus):
        # (U^2, V, dV, shift): the corpus at shift 0, and the well at its
        # paper shift, where the mixed product is semidefinite (and zero
        # at tau = 0)
        for spec, dv in corpus:
            yield spec.u_squared, spec.v, dv, 0.0
        for tau in (0.0, 1.0, 1.7):
            spec = square_well_model(tau)
            yield spec.u_squared, spec.v, np.diag([-0.1, 0.0]), -tau / 2.0

    def test_scaled_models_keep_the_u_frame_constants(self, corpus200):
        # (s^2 U^2, s V, s dV) at the shift s mu has the same b and c
        signs = set()
        for u2, v, dv, mu in self.cases(corpus200):
            for s in (1e-8, 1e8):
                spec = ModelSpec(s * s * u2, s * v)
                u_inv = np.linalg.inv(sqrt_spd(spec.u_squared))
                shift = s * mu
                w = spec.v - shift * np.eye(spec.order)
                a, da = w @ u_inv, (s * dv) @ u_inv
                b, c = np.linalg.norm(a, 2), np.linalg.norm(da, 2)
                report = constants_of(assemble_system(spec, shift), s * dv)
                assert abs(report.b - b) <= 1e-13 * b
                assert abs(report.c - c) <= 1e-13 * c
                classified = (report.signed, report.disjoint)
                assert classified == a_form_sign(a, da, b, c)
                signs.add(classified)

                optimized = optimize_shift(spec)
                a_opt = (spec.v - optimized * np.eye(spec.order)) @ u_inv
                b_opt = np.linalg.norm(a_opt, 2)
                assert abs(assemble_system(spec, optimized).contraction - b_opt) <= (
                    1e-13 * b_opt
                )
        assert {(None, False), ("positive", False), ("negative", True)} <= signs

    def test_s_block_verdict_is_the_a_form_one(self, corpus200):
        # the sign read off S's upper left block, congruent to the mixed
        # product, against the one of dA^T A + A^T dA formed in the L frame
        cases = [(spec, dv, mu) for spec, dv in corpus200 for mu in (0.0, 0.1, -0.2)]
        for tau in (0.0, 1.0, 1.7):
            spec = square_well_model(tau)
            cases += [(spec, np.diag([-0.1, 0.0]), mu) for mu in (0.0, -tau / 2.0)]
        signs = set()
        for spec, dv, mu in cases:
            if not assemble_system(spec, mu).contraction < 1.0:   # tau 1.7 at 0
                with pytest.raises(ContractionNotLessThanOne):
                    bounds_module.bounds_report(spec, dv, mu)
                continue
            report = bounds_module.bounds_report(spec, dv, mu)
            a, da = operator_a(spec, mu), l_frame(spec, dv)
            classified = (report.signed, report.disjoint)
            assert classified == a_form_sign(a, da, report.b, report.c)
            signs.add(classified)
        assert {(None, False), ("positive", False), ("negative", True)} <= signs


class TestEigenvalueIntervals:
    def test_table_cell_tau_zero(self):
        spec = square_well_model(0.0)
        vr = verify_bounds(spec, np.diag([-0.001, 0.0]), 0.0)
        lam_p = vr.eigenvalues_perturbed[np.argmin(np.abs(vr.eigenvalues - 1.0))]
        assert 0.999 <= lam_p <= 1.001
        assert f"{vr.max_deviation:.4e}" == "5.0037e-04"


class TestVerifyBounds:
    def test_zero_perturbation(self):
        vr = verify_bounds(square_well_model(1.0), np.zeros((2, 2)), -0.5)
        assert vr.max_deviation == 0.0
        assert all(check.passed for check in vr.checks)

    def test_table_row_tau_one(self):
        vr = verify_bounds(square_well_model(1.0), np.diag([-0.1, 0.0]), -0.5)
        assert f"{vr.max_deviation:.4e}" == "1.3409e-01"
        by_name = {c.name: c for c in vr.checks}
        assert abs(by_name["kappa_norm_product"].value - 0.2) <= 1e-12
        assert by_name["kappa_norm_product"].passed

    def test_table_row_onto_defective_coupling(self):
        # tau = 1.7, eta = 0.3 perturbs onto the defective coupling 2.0:
        # the bound 2.0 is tabulated but flagged not applicable
        vr = verify_bounds(square_well_model(1.7), np.diag([-0.3, 0.0]), -0.85)
        assert f"{vr.max_deviation:.4e}" == "1.4355e+00"
        by_name = {c.name: c for c in vr.checks}
        assert abs(by_name["kappa_norm_product"].value - 2.0) <= 1e-12
        assert not by_name["kappa_norm_product"].applicable

    def test_tridiagonal_sides_form_no_eigenvectors(self, monkeypatch):
        # the N = 80 oscillator and its perturbation by a diagonal dV both
        # take the tridiagonal T, whose eigenvalues counts certify: no
        # dstevd, so no order-2n Z.  The traced peak is the kept results
        # and at most 5/2 order-2n arrays' worth (421,792 bytes measured,
        # 2.06 of them: the exact pair's S, reduced in place, and a few
        # n x n arrays of dV's; 971,255 with both Z formed)
        def no_eigenvectors(*args, **kwargs):
            raise AssertionError("dstevd forms an eigenvector matrix")

        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=80))
        dv = np.diag(1e-3 * spec.v_band)
        verify_bounds(spec, dv, 0.0)   # warm imports and caches
        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", no_eigenvectors)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = verify_bounds(spec, dv, 0.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert all(check.passed for check in report.checks if check.applicable)
        kept = sum(
            a.nbytes
            for a in (
                report.eigenvalues,
                report.eigenvalues_perturbed,
                report.deviations,
                report.signed_deviations,
                report.residuals,
                report.residuals_perturbed,
            )
        )
        assert peak <= kept + 5 * 8 * 160**2 // 2

    @pytest.mark.parametrize("case", ["well", "dense", "oscillator"])
    def test_verified_rows_are_those_of_bounds_report(self, case):
        # the rows of verify_bounds' BoundsReport, whose spectrum is whole,
        # are those of bounds_report's, whose spectrum is the two
        # eigenvalues nearest the shift: the same factor M, so the same
        # constants and ||J1||, and the central gap from another solve of T
        mu = 0.0
        if case == "well":
            spec, dv, mu = square_well_model(1.0), np.diag([-0.1, 0.0]), -0.5
        elif case == "dense":
            spec, dv = random_model_and_perturbation(np.random.Generator(np.random.PCG64(30)))
        else:
            spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=80))
            dv = random_perturbation(80, 1e-3, 1).delta_v
        verified = verify_bounds(spec, dv, mu).bounds.rows()
        expected = bounds_report(spec, dv, mu).rows()
        assert [row[0] for row in verified] == [row[0] for row in expected]
        for (_, *cells), (_, *cells_expected) in zip(verified, expected):
            for cell, want in zip(cells, cells_expected):
                if want is None or isinstance(want, bool):
                    assert cell == want
                else:
                    assert abs(cell - want) <= 1e-13 * abs(want)

    def test_bounds_rows_form_one_eigenvector_matrix(self, monkeypatch):
        # the rows of kg bounds on the N = 160 oscillator: the spectrum is
        # the two eigenvalues nearest the shift, bisected (dstebz), and
        # sign_operator alone forms eigenvectors, once, of the order-2n T
        # (dstevd), freed before its order-n products.  The traced peak is
        # at most 5/2 order-2n arrays' worth (1,880,004 bytes measured,
        # 2.29 of them; 2,339,016 while the spectrum kept its eigenvectors)
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=160))
        dv = random_perturbation(160, 1e-3, 1).delta_v
        bounds_report(spec, dv, 0.0).rows()   # warm imports and caches
        solves, dstevd = [], scipy.linalg.lapack.dstevd

        def spy(d, *args, **kwargs):
            solves.append(len(d))
            return dstevd(d, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", spy)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rows = bounds_report(spec, dv, 0.0).rows()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert solves == [320]
        assert dict((key, value) for key, value, _ in rows)["interval_uniform"] is not None
        assert peak <= 5 * 8 * 320**2 // 2

    def test_exact_pair_brackets_signed_deviations(self, corpus200):
        for spec, dv in corpus200[:40]:
            vr = verify_bounds(spec, dv, 0.0)
            km, kp = vr.bounds.kappas["kappa_exact"][0]
            assert np.all(vr.signed_deviations >= km - 1e-9)
            assert np.all(vr.signed_deviations <= kp + 1e-9)

    def test_every_symmetric_constant_is_sound(self, corpus200):
        for spec, dv in corpus200[:40]:
            vr = verify_bounds(spec, dv, 0.0)
            for check in vr.checks:
                if check.name in ("kappa_general", "kappa_sum", "kappa_norm_product"):
                    assert vr.max_deviation <= check.value + 1e-9


class TestMonotoneDomination:
    def test_psd_growth_never_shrinks_gap(self):
        # dG >= 0 pushes the spectrum away from zero on both sides
        rng = np.random.Generator(np.random.PCG64(23))
        for _ in range(20):
            spec, _ = random_model(rng)
            system = assemble_system(spec, 0.0)
            lam, _ = similarity_eigensolve(gram(system.spec), 0.0)
            r = rng.normal(size=(2 * system.spec.order, 2))
            dg = r @ r.T
            dg *= 0.3 * spectral_norm(gram(system.spec)) / spectral_norm(dg)
            lam_p, _ = similarity_eigensolve(gram(system.spec) + dg, 0.0)
            gap = (lam[lam < 0].max(), lam[lam > 0].min())
            gap_p = (lam_p[lam_p < 0].max(), lam_p[lam_p > 0].min())
            assert gap_p[0] <= gap[0] + 1e-10
            assert gap_p[1] >= gap[1] - 1e-10
