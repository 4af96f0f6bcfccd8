import warnings

import numpy as np
import pytest
import scipy.linalg

from kgbounds import (
    DimensionMismatch,
    HarmonicParams,
    ModelSpec,
    NotPositiveDefinite,
    ValidationError,
    assemble_system,
    core,
    harmonic_model,
    operator_a,
    optimize_shift,
    spectral_norm,
    square_well_model,
)
from oracles import (
    contraction_bound,
    gram,
    hamiltonian,
    j_matrix,
    shifted_gram,
    sqrt_spd,
    u_power,
)
from conftest import random_model, random_spd


def square_well_pencil_roots(tau):
    """Quartic roots of det((lam*I - V)^2 - U^2) for the 2x2 well."""
    # det = ((lam+tau)^2 - 2)(lam^2 - 2) - 1
    p1 = np.array([1.0, 2.0 * tau, tau**2 - 2.0])
    p2 = np.array([1.0, 0.0, -2.0])
    quartic = np.polymul(p1, p2) - np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    return np.sort(np.roots(quartic))


class TestSqrtSpd:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_spd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            sqrt_spd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14
        )

    def test_random_spd_residual(self):
        rng = np.random.Generator(np.random.PCG64(7))
        m = random_spd(rng, 6)
        r = sqrt_spd(m)
        assert spectral_norm(r @ r - m) <= 1e-10 * spectral_norm(m)
        # the root commutes with its square
        assert spectral_norm(r @ m - m @ r) <= 1e-10 * spectral_norm(m)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            sqrt_spd(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            sqrt_spd(np.diag([1.0, 0.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            sqrt_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestModelSpec:
    def test_orders_must_agree(self):
        with pytest.raises(DimensionMismatch):
            ModelSpec(u_squared=np.eye(3), v=np.zeros((2, 2)))

    def test_u_squared_must_be_pd(self):
        with pytest.raises(NotPositiveDefinite):
            ModelSpec(u_squared=np.diag([1.0, -2.0]), v=np.zeros((2, 2)))

    def test_asymmetric_v_rejected(self):
        with pytest.raises(ValidationError):
            ModelSpec(u_squared=np.eye(2), v=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_v_is_validated_before_positive_definiteness(self):
        # both faults: V's is reported, the indefinite U^2 is never factored
        u2 = np.diag([1.0, -2.0])
        with pytest.raises(ValidationError, match="v is not symmetric"):
            ModelSpec(u_squared=u2, v=np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DimensionMismatch):
            ModelSpec(u_squared=u2, v=np.zeros((3, 3)))

    def test_arrays_are_read_only(self):
        spec = square_well_model(1.0)
        with pytest.raises(ValueError):
            spec.v[0, 0] = 5.0
        with pytest.raises(ValueError):
            spec.cholesky[0, 0] = 5.0
        with pytest.raises(ValueError):
            spec.half_roots()[1][0, 0] = 5.0

    def test_with_potential_shares_u_squared_data(self):
        spec = square_well_model(1.0)
        new = spec.with_potential(2.0 * spec.v, "doubled")
        assert new.u_squared is spec.u_squared
        assert new.cholesky is spec.cholesky
        assert (new.u_min, new.u_max) == (spec.u_min, spec.u_max)
        # the pair U^(+-1/2) is formed once and shared with every copy
        assert new.half_roots()[1] is spec.half_roots()[1]
        assert spec.perturbed(spec.v).half_roots()[0] is new.half_roots()[0]
        np.testing.assert_array_equal(new.v, 2.0 * spec.v)
        assert new.label == "doubled" and spec.label != "doubled"
        with pytest.raises(ValueError):
            new.v[0, 0] = 5.0
        with pytest.raises(ValidationError):
            spec.with_potential(np.array([[0.0, 1.0], [0.0, 0.0]]), "")
        with pytest.raises(DimensionMismatch):
            spec.with_potential(np.zeros((3, 3)), "")


class TestAssemble:
    def test_free_hamiltonian(self):
        spec = ModelSpec(u_squared=np.eye(3), v=np.zeros((3, 3)))
        system = assemble_system(spec, 0.0)
        expected = np.block(
            [[np.zeros((3, 3)), np.eye(3)], [np.eye(3), np.zeros((3, 3))]]
        )
        np.testing.assert_allclose(hamiltonian(system.spec), expected, atol=1e-14)
        assert system.contraction == 0.0

    def test_square_well_matches_pencil_roots(self):
        system = assemble_system(square_well_model(1.0), 0.0)
        eigs = np.sort(np.linalg.eigvals(hamiltonian(system.spec)).real)
        np.testing.assert_allclose(eigs, square_well_pencil_roots(1.0), atol=1e-8)

    def test_boundary_contraction_makes_shifted_gram_singular(self):
        # tau = 2, shift -1 sits exactly at b = 1
        system = assemble_system(square_well_model(2.0), -1.0)
        assert abs(system.contraction - 1.0) <= 1e-12
        smallest = np.linalg.eigvalsh(shifted_gram(gram(system.spec), -1.0))[0]
        assert abs(smallest) <= 1e-10

    def test_j_times_h_equals_gram(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(5):
            spec, _ = random_model(rng)
            system = assemble_system(spec, float(rng.normal()))
            j = j_matrix(system.n)
            assert np.abs(j @ hamiltonian(system.spec) - gram(system.spec)).max() <= 1e-10
            assert np.abs(j @ gram(system.spec) - hamiltonian(system.spec)).max() <= 1e-10
            np.testing.assert_array_equal(gram(system.spec), gram(system.spec).T)

    def test_shifted_factorization(self):
        # K - mu*J = diag(L, I) [[I, A^T], [A, I]] diag(L^T, I), L L^T = U^2,
        # K = [[U^2, V], [V, I]]; and A has the singular values of the
        # U-frame (V - mu) U^(-1), with which
        # G - mu*J = diag(U,U)^(1/2) [[I, A^T], [A, I]] diag(U,U)^(1/2)
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(5):
            spec, _ = random_model(rng)
            mu = float(rng.normal())
            system = assemble_system(spec, mu)
            n = system.n
            zero, eye = np.zeros((n, n)), np.eye(n)
            l_block = np.block([[spec.cholesky, zero], [zero, eye]])
            a = system.a_matrix
            middle = np.block([[eye, a.T], [a, eye]])
            rebuilt = l_block @ middle @ l_block.T
            w = spec.v - mu * eye
            k = np.block([[spec.u_squared, w], [w, eye]])
            assert np.abs(rebuilt - k).max() <= 1e-9 * max(spectral_norm(k), 1.0)

            a_u = w @ u_power(spec, -1)
            np.testing.assert_allclose(
                np.linalg.svd(a, compute_uv=False),
                np.linalg.svd(a_u, compute_uv=False),
                rtol=0,
                atol=1e-12 * max(system.contraction, 1.0),
            )
            u_half = sqrt_spd(u_power(spec, 1))
            u_block_half = np.block([[u_half, zero], [zero, u_half]])
            middle_u = np.block([[eye, a_u.T], [a_u, eye]])
            rebuilt = u_block_half @ middle_u @ u_block_half
            g = shifted_gram(gram(system.spec), mu)
            scale = spectral_norm(g)
            assert np.abs(rebuilt - g).max() <= 1e-9 * max(scale, 1.0)

    def test_middle_block_inverse_bound(self):
        # b < 1 makes [[I, A^T], [A, I]] positive definite with inverse
        # norm at most 1/(1-b)
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(5):
            spec, _ = random_model(rng)
            system = assemble_system(spec, 0.0)
            n, a, b = system.n, system.a_matrix, system.contraction
            middle = np.block([[np.eye(n), a.T], [a, np.eye(n)]])
            eigs = np.linalg.eigvalsh(middle)
            assert eigs[0] >= 1.0 - b - 1e-12
            assert 1.0 / eigs[0] <= 1.0 / (1.0 - b) + 1e-10


class TestOperatorA:
    def test_zero_potential(self):
        spec = ModelSpec(u_squared=np.diag([2.0, 5.0]), v=np.zeros((2, 2)))
        np.testing.assert_allclose(operator_a(spec, 0.0), np.zeros((2, 2)), atol=0)

    def test_square_well_half_shift(self):
        for tau in (0.5, 1.0, 1.7):
            a = operator_a(square_well_model(tau), -tau / 2.0)
            assert abs(spectral_norm(a) - tau / 2.0) <= 1e-12

    def test_square_well_no_shift(self):
        a = operator_a(square_well_model(1.0), 0.0)
        assert abs(spectral_norm(a) - np.sqrt(2.0 / 3.0)) <= 1e-12


class TestSpectralNorm:
    """The Gram-eigenvalue norm against numpy's SVD-based 2-norm."""

    @staticmethod
    def matrices():
        rng = np.random.Generator(np.random.PCG64(41))
        for n in (1, 2, 5, 31, 32, 33, 80):
            yield rng.normal(size=(n, n))
        for shape in ((3, 7), (7, 3), (1, 9), (9, 1), (40, 70), (70, 40)):
            yield rng.normal(size=shape)
        for n, rank in ((6, 2), (50, 7)):
            yield rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n))
        base = rng.normal(size=(6, 6))
        for scale in (1e-200, 1e-8, 1e8, 1e200):
            yield scale * base
            yield scale * rng.normal(size=(40, 40))

    def test_matches_svd(self):
        for a in self.matrices():
            oracle = np.linalg.norm(a, 2)
            assert abs(spectral_norm(a) - oracle) <= 1e-13 * oracle, a.shape

    def test_zero_matrix_is_exactly_zero(self):
        for shape in ((1, 1), (3, 3), (2, 5), (40, 40)):
            assert spectral_norm(np.zeros(shape)) == 0.0

    def test_no_singular_value_decomposition(self, svd_calls):
        for a in self.matrices():
            spectral_norm(a)
        spectral_norm(np.stack([np.eye(3), 2e300 * np.ones((3, 3))]))
        assert svd_calls == []

    def test_stack_scales_each_matrix(self):
        # one matrix of the stack far outside the Gram range must not
        # disturb the others, and each norm is that of its matrix alone
        rng = np.random.Generator(np.random.PCG64(12))
        for n in (3, 40):
            stack = rng.normal(size=(4, n, n))
            stack[1] *= 1e200
            stack[2] *= 1e-200
            stack[3] = 0.0
            norms = spectral_norm(stack)
            assert norms.shape == (4,)
            assert norms[3] == 0.0
            for a, norm in zip(stack, norms):
                assert norm == spectral_norm(a)

    def test_beyond_the_float_range_is_inf(self):
        # ||[[1.5e308, 1.5e308], [1.5e308, 1.5e308]]|| = 3e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_norm(np.full((2, 2), 1.5e308)) == np.inf
            assert spectral_norm(np.diag([np.inf, 1.0])) == np.inf
            assert np.isnan(spectral_norm(np.diag([np.nan, 1.0])))
            norms = spectral_norm(np.stack([np.full((2, 2), 1.5e308), np.eye(2)]))
        assert norms.tolist() == [np.inf, 1.0]


class TestTopEigenvalue:
    def test_matches_scipy_subset_solve_bit_for_bit(self):
        # from order 32 up, dsyevr's own partial-range path (dsytrd with
        # dsyevr's workspace, then dstebz) is called step by step
        rng = np.random.Generator(np.random.PCG64(32))
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=160))
        v_u_inv = spec.v @ u_power(spec, -1)
        mats = [v_u_inv.T @ v_u_inv]
        for n in (32, 80, 160, 320):
            a = rng.normal(size=(n, n))
            mats.append(a @ a.T)
        for s in mats:
            n = s.shape[0]
            top = scipy.linalg.eigh(
                s, eigvals_only=True, subset_by_index=[n - 1, n - 1], driver="evr"
            )
            assert core._extreme_eigenvalues(s, 0, 1)[0] == top[0]

    def test_non_finite_entry_raises(self):
        s = np.eye(40)
        s[3, 5] = s[5, 3] = np.inf
        with pytest.raises(core.KGError, match="non-finite"):
            core._extreme_eigenvalues(s, 0, 1)


def symmetric_matrices(rng, n):
    """Random, clustered and 1e+-150-scaled symmetric matrices of order n."""
    a = rng.normal(size=(n, n))
    random = a + a.T
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    w = np.repeat([-1.0, 1e-3, 1.0], -(-n // 3))[:n] + 1e-13 * rng.normal(size=n)
    clustered = (q * w) @ q.T
    clustered = 0.5 * (clustered + clustered.T)
    return [random, clustered, 1e150 * random, 1e-150 * clustered]


class TestExtremeEigenvalues:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 320])
    def test_matches_the_full_spectrum(self, n):
        rng = np.random.Generator(np.random.PCG64(n))
        for s in symmetric_matrices(rng, n):
            full = np.linalg.eigvalsh(s)
            scale = np.abs(full).max()
            for low in (0, 1, 3):
                for high in (0, 1, 3):
                    w = core._extreme_eigenvalues(s, low, high)
                    m = min(low + high, n)
                    expected = np.concatenate([full[:low], full[n - m + low :]])
                    assert w.shape == (m,)
                    assert (np.abs(w - expected) <= 1e-14 * scale).all()

    @pytest.mark.parametrize("n", [32, 33, 320])
    def test_each_end_is_the_evr_subset_solve_bit_for_bit(self, n):
        # on the matrices dsyevr leaves unscaled, all but the 1e+-150 ones
        rng = np.random.Generator(np.random.PCG64(n + 1))
        for s in symmetric_matrices(rng, n)[:2]:
            for low, high in ((0, 1), (1, 1), (3, 3)):
                w = core._extreme_eigenvalues(s, low, high)
                ends = (([0, low - 1], w[:low]), ([n - high, n - 1], w[low:]))
                for index, end in ends:
                    if end.size:
                        evr = scipy.linalg.eigh(
                            s, eigvals_only=True, subset_by_index=index, driver="evr"
                        )
                        np.testing.assert_array_equal(end, evr)

    def test_stack_is_solved_per_matrix(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for n in (3, 40):
            stack = np.stack(symmetric_matrices(rng, n)[:2])
            w = core._extreme_eigenvalues(stack, 1, 2)
            assert w.shape == (2, 3)
            for row, s in zip(w, stack):
                np.testing.assert_array_equal(row, core._extreme_eigenvalues(s, 1, 2))


class TestContractionBound:
    def test_pure_shift(self):
        spec = ModelSpec(u_squared=np.diag([4.0, 9.0]), v=np.zeros((2, 2)))
        u_inv_norm = spectral_norm(np.linalg.inv(np.diag([2.0, 3.0])))
        for mu in (-1.5, 0.7):
            assert abs(contraction_bound(spec, mu) - abs(mu) * u_inv_norm) <= 1e-12

    def test_matches_independent_svd(self):
        # independent route: scipy sqrtm for the root, numpy svd for the norm
        rng = np.random.Generator(np.random.PCG64(3))
        spec, _ = random_model(rng)
        mu = 0.3
        u = scipy.linalg.sqrtm(np.asarray(spec.u_squared)).real
        a = (spec.v - mu * np.eye(spec.order)) @ np.linalg.inv(u)
        oracle = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(contraction_bound(spec, mu) - oracle) <= 1e-10

    def test_convex_in_shift(self):
        rng = np.random.Generator(np.random.PCG64(6))
        for _ in range(5):
            spec, _ = random_model(rng)
            mu1, mu2 = sorted(rng.normal(scale=2.0, size=2))
            mid = contraction_bound(spec, 0.5 * (mu1 + mu2))
            avg = 0.5 * (contraction_bound(spec, mu1) + contraction_bound(spec, mu2))
            assert mid <= avg + 1e-12


def golden_section_shift(spec, tol=1e-12):
    """The golden-section search optimize_shift ran before Brent's method:
    mu -> ||V U^(-1) - mu U^(-1)|| by SVD on the same bracket."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    u_inv = u_power(spec, -1)
    v_u_inv = spec.v @ u_inv
    u_norm = spec.u_max
    v_eigs = np.linalg.eigvalsh(spec.v)

    def b_of(mu):
        return float(np.linalg.norm(v_u_inv - mu * u_inv, 2))

    lo = float(v_eigs[0]) - u_norm
    hi = float(v_eigs[-1]) + u_norm
    m1 = hi - inv_phi * (hi - lo)
    m2 = lo + inv_phi * (hi - lo)
    b1, b2 = b_of(m1), b_of(m2)
    while hi - lo > tol:
        if b1 <= b2:
            hi, m2, b2 = m2, m1, b1
            m1 = hi - inv_phi * (hi - lo)
            b1 = b_of(m1)
        else:
            lo, m1, b1 = m1, m2, b2
            m2 = lo + inv_phi * (hi - lo)
            b2 = b_of(m2)
    mu = 0.5 * (lo + hi)
    return mu, b_of(mu)


class TestOptimizeShift:
    @staticmethod
    def specs():
        for tau in (0.5, 1.0, 1.5, 2.1):
            yield square_well_model(tau)
        for alpha in (0.3, 0.985):
            yield harmonic_model(HarmonicParams(alpha=alpha, grid_points=40))
        rng = np.random.Generator(np.random.PCG64(20240601))
        for _ in range(10):
            yield random_model(rng)[0]

    def test_matches_golden_section_reference(self):
        for spec in self.specs():
            b = assemble_system(spec, optimize_shift(spec)).contraction
            _, b_ref = golden_section_shift(spec)
            assert abs(b - b_ref) <= 1e-14 * b_ref, spec.label

    def test_at_most_forty_evaluations(self, monkeypatch):
        # the golden-section search took 59 SVDs on this model and Brent's
        # method 15 full solves; the subspace search needs one, since the
        # optimum is the centre of V's spectrum where it starts, and the
        # bracket's extreme eigenvalues of V one more
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=160))
        calls = []

        def spy(routine):
            def record(s, *args):
                calls.append(s.shape[-1])
                return routine(s, *args)

            return record

        for name in ("_top_eigenpair", "_extreme_eigenvalues"):
            monkeypatch.setattr(core, name, spy(getattr(core, name)))
        optimize_shift(spec)
        full = [n for n in calls if n == spec.order]
        assert 0 < len(full) <= 6

    def test_potential_of_small_scale(self):
        # an absolute tolerance of 1e-10 dwarfed this bracket (about 1e-20
        # wide) and left b 4-15 % too large; relative to the bracket it
        # matches a golden-section search resolved at V's scale
        rng = np.random.Generator(np.random.PCG64(2020))
        for n in range(2, 51):
            a = rng.normal(size=(n, n))
            spec = ModelSpec(
                u_squared=1e-200 * random_spd(rng, n), v=1e-20 * (a + a.T)
            )
            b = assemble_system(spec, optimize_shift(spec)).contraction
            _, b_ref = golden_section_shift(spec, tol=1e-32)
            assert abs(b - b_ref) <= 1e-12 * b_ref, n

    def test_zero_potential(self):
        spec = ModelSpec(u_squared=np.diag([1.0, 2.0]), v=np.zeros((2, 2)))
        mu = optimize_shift(spec)
        b = assemble_system(spec, mu).contraction
        assert abs(mu) <= 1e-8
        assert b <= 1e-8

    def test_scalar_potential_cancels(self):
        rng = np.random.Generator(np.random.PCG64(8))
        u_squared = random_spd(rng, 3)
        spec = ModelSpec(u_squared=u_squared, v=2.5 * np.eye(3))
        mu = optimize_shift(spec)
        b = assemble_system(spec, mu).contraction
        assert abs(mu - 2.5) <= 1e-7
        assert b <= 1e-7

    def test_square_well_no_worse_than_half_shift(self):
        spec = square_well_model(1.0)
        b = assemble_system(spec, optimize_shift(spec)).contraction
        assert b <= 0.5 + 1e-9
        assert b <= contraction_bound(spec, 0.0) + 1e-12

    @pytest.mark.parametrize("n", [4, 40])
    @pytest.mark.parametrize("u_scale, v_scale", [(1.0, 1e200), (1e100, 1e150)])
    def test_overflowing_potential(self, n, u_scale, v_scale):
        # at 1e200 the matrices of the search overflow, at (1e100, 1e150)
        # the products of Brent's parabolic steps do; the search runs on
        # V / 2^k and finds the optimal b of the unscaled model, scaled
        e = np.eye(n, k=1)
        u_squared = 3.0 * np.eye(n) - e - e.T
        v = np.diag(np.linspace(-1.0, 1.0, n))
        unit = ModelSpec(u_squared=u_squared, v=v)
        b_unit = assemble_system(unit, optimize_shift(unit)).contraction
        spec = ModelSpec(u_squared=u_scale * u_squared, v=v_scale * v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = assemble_system(spec, optimize_shift(spec)).contraction
        expected = v_scale / np.sqrt(u_scale) * b_unit
        assert abs(b - expected) <= 1e-14 * expected
