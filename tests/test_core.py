import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from kgbounds import (
    ContractionNotLessThanOne,
    DimensionMismatch,
    HarmonicParams,
    ModelSpec,
    NotPositiveDefinite,
    ValidationError,
    assemble_system,
    bounds_report,
    core,
    harmonic_model,
    operator_a,
    optimize_shift,
    spectral,
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
        d, e = spec.u2_eigenbasis
        with pytest.raises(ValueError):
            d[0] = 5.0
        with pytest.raises(ValueError):
            e[0, 0] = 5.0

    @pytest.mark.parametrize("grid_points", [3, 8, 32, 160, 400])
    def test_banded_half_roots_match_a_dense_eigh(self, grid_points, monkeypatch):
        # a tridiagonal U^2 of any order from 2 up is decomposed on its
        # two diagonals (dstevd): E diag(d^4) E^T is U^2, E is orthogonal,
        # the half root E diag(d) E^T squares to the U of a dense eigh,
        # and U^(1/2) U^(-1/2) is the identity
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=grid_points))
        dense_eigh = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            dense_eigh.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        d, e = spec.u2_eigenbasis
        assert dense_eigh == []
        u2 = spec.u_squared
        assert np.abs((e * d**4) @ e.T - u2).max() <= 1e-13 * spectral_norm(u2)
        assert np.abs(e.T @ e - np.eye(grid_points)).max() <= 1e-13
        root, inverse_root = (e * d) @ e.T, (e / d) @ e.T
        w, p = eigh(u2)
        u = (p * np.sqrt(w)) @ p.T
        tol = 1e-13 * spectral_norm(u)
        assert np.abs(root @ root - u).max() <= tol
        assert np.abs(root @ inverse_root - np.eye(grid_points)).max() <= 1e-13

    def test_with_potential_shares_u_squared_data(self):
        spec = square_well_model(1.0)
        new = spec.with_potential(2.0 * spec.v, "doubled")
        assert new.u_squared is spec.u_squared
        assert (new.u_min, new.u_max) == (spec.u_min, spec.u_max)
        # the well's U^2 is tridiagonal: its dense L and its eigenbasis
        # are formed on first read, and shared with every copy made after
        cholesky, basis = spec.cholesky, spec.u2_eigenbasis
        later = spec.perturbed(spec.v)
        assert later.cholesky is cholesky and later.u2_eigenbasis is basis
        np.testing.assert_array_equal(new.v, 2.0 * spec.v)
        assert new.label == "doubled" and spec.label != "doubled"
        with pytest.raises(ValueError):
            new.v[0, 0] = 5.0
        with pytest.raises(ValidationError):
            spec.with_potential(np.array([[0.0, 1.0], [0.0, 0.0]]), "")
        with pytest.raises(DimensionMismatch):
            spec.with_potential(np.zeros((3, 3)), "")


    def test_tridiagonal_structure_is_recorded(self):
        # U^2's diagonals are kept when it is tridiagonal and shared by
        # derived specs; whether V is diagonal is checked for each potential
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=40))
        d, e = spec.u2_bands
        np.testing.assert_array_equal(d, spec.u_squared.diagonal())
        np.testing.assert_array_equal(e, spec.u_squared.diagonal(-1))
        with pytest.raises(ValueError):
            d[0] = 5.0
        assert spec.v_band is not None and spec.tridiagonal
        dense = spec.perturbed(1e-3 * np.ones((40, 40)))
        assert dense.u2_bands is spec.u2_bands
        assert dense.v_band is None and not dense.tridiagonal
        assert spec.with_potential(2.0 * spec.v, "").tridiagonal
        rng = np.random.Generator(np.random.PCG64(7))
        assert ModelSpec(random_spd(rng, 5), np.eye(5)).u2_bands is None
        # a tridiagonal U^2 with zeros on its off-diagonal is still one
        off = np.diag([1.0, 0.0], 1)
        u2 = np.diag([2.0, 3.0, 4.0]) + off + off.T
        assert ModelSpec(u2, np.zeros((3, 3))).tridiagonal

    @pytest.mark.parametrize("grid_points", [16, 80, 150, 160, 1000])
    def test_tridiagonal_ends_are_the_dense_ones_bit_for_bit(self, grid_points):
        # from order 32 up the ends of the spectrum of a tridiagonal U^2
        # are bisected on its own diagonals: the dsytrd that the dense
        # path runs first returns the same diagonals
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=grid_points))
        lowest, highest = core._extreme_eigenvalues(spec.u_squared, 1, 1)
        assert (spec.u_min, spec.u_max) == (np.sqrt(lowest), np.sqrt(highest))
        if grid_points < core._SUBSET_MIN_ORDER:
            return
        for scale in (2.0**-600, 2.0**600):
            s = spec.u_squared * scale
            d, e = s.diagonal(), s.diagonal(-1)
            ranges = ((1, 2), (grid_points, grid_points))
            np.testing.assert_array_equal(
                core._tridiagonal_eigenvalues(d, e, ranges),
                core._extreme_eigenvalues(s, 2, 1),
            )

    @pytest.mark.parametrize(
        "u2, b",
        [
            (np.diag([1e-300, 2e-300]), np.diag([1e300, 0.0])),
            ([[1.5e-300, 0.5e-300], [0.5e-300, 1.5e-300]], np.full((2, 2), 1e300)),
        ],
        ids=["diagonal", "mixed-signs"],
    )
    def test_overflowing_l_solve_is_inf(self, u2, b):
        # L^(-1) b is beyond the float range: its entries come out inf
        # (or finite), never the nan of 0 * inf or inf - inf, with no warning
        spec = ModelSpec(u2, np.zeros((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = spec.l_solve(b)
        assert not np.isnan(x).any() and np.isinf(x).any()
        assert spectral_norm(x) == np.inf
        scaled = np.ldexp(b, -600)
        expected = scipy.linalg.solve_triangular(spec.cholesky, scaled, lower=True)
        with np.errstate(over="ignore"):
            expected = np.ldexp(expected, 600)
        np.testing.assert_allclose(x, expected, rtol=1e-15)

    def test_l_solve_in_range_is_one_triangular_solve(self):
        rng = np.random.Generator(np.random.PCG64(8))
        spec, _ = random_model(rng, n=6)
        b = rng.normal(size=(3, 6, 4))
        expected = [
            scipy.linalg.lapack.dtrtrs(spec.cholesky, m, lower=1)[0] for m in b
        ]
        np.testing.assert_array_equal(spec.l_solve(b), expected)


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
            j = j_matrix(system.spec.order)
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
            n = system.spec.order
            zero, eye = np.zeros((n, n)), np.eye(n)
            l_block = np.block([[spec.cholesky, zero], [zero, eye]])
            a = operator_a(spec, mu)
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
            n, a, b = system.spec.order, operator_a(spec, 0.0), system.contraction
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


def unit_oscillator(grid_points, beta):
    """The oscillator of field strength 1: V = diag(x), U^2 tridiagonal."""
    return harmonic_model(HarmonicParams(alpha=1.0, beta=beta, grid_points=grid_points))


def contraction_error_bound(spec, b):
    """_banded_contraction's first-order bound on |b^2 - b_exact^2|."""
    d, e = spec.u2_bands
    r = (np.abs(d) + np.append(np.abs(e), 0.0) + np.append(0.0, np.abs(e))).max()
    return 3.0 * np.finfo(float).eps * (1.0 + r / spec.u_min**2) * b * b


def definite_in_40_digits(spec, w, s):
    """Whether s U^2 - W^2 is positive definite: its L D L^T pivots, to 40 digits."""
    d, e = spec.u2_bands
    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        diagonal = [s * mpmath.mpf(di) - mpmath.mpf(wi) ** 2 for di, wi in zip(d, w)]
        off_squared = [(s * mpmath.mpf(ei)) ** 2 for ei in e]
        pivot = diagonal[0]
        for a, b2 in zip(diagonal[1:], off_squared):
            if pivot <= 0:
                return False
            pivot = a - b2 / pivot
        return pivot > 0


@pytest.fixture
def bisections(monkeypatch):
    """One entry per _banded_contraction call, each of one row, as made by
    core.contraction, its one caller."""
    calls = []
    banded = core._banded_contraction

    def record(spec, w):
        calls.append(np.ndim(w))
        return banded(spec, w)

    monkeypatch.setattr(core, "_banded_contraction", record)
    return calls


class TestBandedContraction:
    """b bisected on U^2's two diagonals against the dense ||L^(-1) W||.

    A tridiagonal spec of order n >= core._BANDED_MIN_ORDER (56) takes the
    bisection (core._banded_contraction) in core.contraction; below it
    the dense route, and the bisection is checked on its own.  No
    spectrum reads b.
    """

    @pytest.mark.parametrize("grid_points", [32, 33, 56, 57, 81, 150, 400, 1000])
    def test_matches_the_dense_route(self, grid_points, bisections):
        banded = grid_points >= core._BANDED_MIN_ORDER
        for beta in (0.0, 1.0):
            unit = unit_oscillator(grid_points, beta)
            # b(mu) of alpha V is alpha b(mu / alpha) of V: one search
            optimized = optimize_shift(unit)
            for alpha in (0.3, 0.985):
                spec = unit.with_potential(alpha * unit.v, "")
                for shift in (0.0, 0.3, -0.3, alpha * optimized):
                    w = spec.v.diagonal() - shift
                    if grid_points % 2 and shift == 0.0:
                        assert (w == 0.0).any()   # W's exact zero at x = 0
                    bisections.clear()
                    b = assemble_system(spec, shift).contraction
                    dense = spectral_norm(operator_a(spec, shift))
                    if banded:
                        assert bisections == [1]
                    else:
                        assert bisections == [] and b == dense
                        b = core._banded_contraction(spec, w)
                    bound = contraction_error_bound(spec, b)
                    assert abs(b * b - dense * dense) <= bound
                    # the docstring's bound, against 40-digit pivots
                    assert not definite_in_40_digits(spec, w, b * b - bound)
                    assert definite_in_40_digits(spec, w, b * b + bound)
                    # example 1's b, of the potential alpha V, by the same route
                    row = alpha * unit.v.diagonal() - shift
                    assert core._banded_contraction(unit, row) == b
                    bisections.clear()
                    potential = unit.with_potential(alpha * unit.v_band, "")
                    example = core.contraction(potential, shift)
                    assert bisections == ([1] if banded else [])
                    assert example == (b if banded else dense)
                    if b < 1.0 or grid_points <= 150:
                        # the tridiagonal rows are routed on the proven
                        # -Q(mu) > 0 (spectral._proven_definite), with no b
                        bisections.clear()
                        stack = spectral.eigen_spectra(unit, (alpha,), shift, nearest=1)
                        assert bisections == []
                        if abs(1.0 - b) > 1e-6:
                            assert stack.pencil[0] == (b < 1.0)

    def test_zero_potential_is_exactly_zero(self, bisections):
        unit = unit_oscillator(64, 0.0)
        spec = unit.with_potential(np.zeros((64, 64)), "")
        assert assemble_system(spec, 0.0).contraction == 0.0
        assert core.contraction(unit.with_potential(np.zeros(64), ""), 0.0) == 0.0
        assert bisections == [1, 1]

    def test_scalar_potential_meets_the_bracket_bound(self, bisections):
        # W = c I attains b = |c| / u_min, the bound the bracket starts from
        unit = unit_oscillator(64, 1.0)
        spec = unit.with_potential(0.7 * np.eye(64), "")
        for shift in (0.0, 0.3, 1.2):
            w = spec.v.diagonal() - shift
            bisections.clear()
            b = assemble_system(spec, shift).contraction
            assert bisections == [1]
            bound = contraction_error_bound(spec, b)
            assert abs(b * b - (0.7 - shift) ** 2 / spec.u_min**2) <= bound
            assert not definite_in_40_digits(spec, w, b * b - bound)
            assert definite_in_40_digits(spec, w, b * b + bound)

    @pytest.mark.parametrize("m", [-300, 300])
    def test_power_of_two_scaling_is_exact(self, m):
        # V by 2^(2m) scales b by 2^(2m); (U^2, V) by (4^m, 2^m) keeps it
        unit = unit_oscillator(81, 1.0)
        spec = unit.with_potential(0.985 * unit.v, "")
        for shift in (0.0, 0.3):
            b = assemble_system(spec, shift).contraction
            v_scaled = spec.with_potential(np.ldexp(spec.v, 2 * m), "")
            scaled = assemble_system(v_scaled, np.ldexp(shift, 2 * m)).contraction
            assert scaled == np.ldexp(b, 2 * m)
            both = ModelSpec(np.ldexp(spec.u_squared, 2 * m), np.ldexp(spec.v, m))
            assert assemble_system(both, np.ldexp(shift, m)).contraction == b

    @pytest.mark.parametrize("u_scale, v_scale", [(1e-300, 1e300), (1e-10, 1e307)])
    def test_overflowing_potential_is_inf(self, u_scale, v_scale, bisections):
        e = np.eye(64, k=1)
        spec = ModelSpec(
            u_squared=u_scale * (3.0 * np.eye(64) - e - e.T),
            v=np.diag(np.linspace(-v_scale, v_scale, 64)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert assemble_system(spec, 0.0).contraction == np.inf
            assert bisections == [1]
            w = np.stack([spec.v.diagonal(), np.zeros(64), 1e-300 * spec.v.diagonal()])
            b = [core._banded_contraction(spec, row) for row in w]
        assert b[0] == np.inf and b[1] == 0.0 and np.isfinite(b[2])


class TestOneContractionRoute:
    """assemble_system reads b from core.contraction alone, so the b that
    kg bounds prints is core.contraction's, bit for bit; no spectrum reads
    b: every row is routed on a proven -Q(mu) > 0."""

    def test_random_models(self, corpus200, monkeypatch):
        entered, contraction = [], core.contraction

        def spy(*args):
            entered.append(1)
            return contraction(*args)

        monkeypatch.setattr(core, "contraction", spy)
        for spec, _ in corpus200:
            for shift in (0.0, 0.3):
                system = assemble_system(spec, shift)
                b = contraction(spec, shift)
                stack = spectral.eigen_spectra(spec, (1.0,), shift)
                report = spectral.eigen_spectrum(system)
                assert entered == []
                assert system.contraction == b and entered == [1]
                entered.clear()
                # the row takes the pencil wherever b is clear of one
                if b <= 1.0 - 1e-6:
                    assert stack.pencil[0] and report.solver_path == "similarity"
                elif b >= 1.0 + 1e-9:
                    assert not stack.pencil[0] and report.solver_path == "direct"

    @pytest.mark.parametrize("grid_points", [10, 24, 40, 160])
    def test_oscillators(self, grid_points):
        for alpha in (0.3, 0.985):
            spec = harmonic_model(HarmonicParams(alpha=alpha, grid_points=grid_points))
            dv = 1e-3 * np.eye(grid_points)
            for shift in (0.0, 0.3, -0.2):
                b = core.contraction(spec, shift)
                assert assemble_system(spec, shift).contraction == b
                stack = spectral.eigen_spectra(spec, (1.0,), shift, nearest=1)
                assert stack.pencil[0] == (b < 1.0)
                if b < 1.0:
                    rows = {key: value for key, value, _ in
                            bounds_report(spec, dv, shift).rows()}
                    assert rows["contraction_b"] == b
                else:
                    with pytest.raises(ContractionNotLessThanOne):
                        bounds_report(spec, dv, shift)


class TestSymmetricNorm:
    def test_diagonal_is_exact(self):
        v = np.diag([0.5, -3.0, 1e-300, 2.0])
        # a 1-D argument is the diagonal of a diagonal matrix
        assert core._symmetric_norm(v.diagonal()) == 3.0
        assert core._symmetric_norm(v) == 3.0
        for zero in (np.zeros(3), np.zeros((3, 3))):
            norm = core._symmetric_norm(zero)
            assert norm == 0.0 and np.copysign(1.0, norm) == 1.0

    @pytest.mark.parametrize("n", [2, 8, 31, 32, 80])
    def test_matches_the_gram_norm(self, n):
        rng = np.random.Generator(np.random.PCG64(n))
        for scale in (1e-200, 1.0, 1e200):
            a = rng.normal(size=(n, n))
            a = scale * (a + a.T)
            norm = core._symmetric_norm(a)
            assert abs(norm - spectral_norm(a)) <= 1e-13 * norm

    def test_beyond_the_float_range_is_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert core._symmetric_norm(np.full((40, 40), 1e307)) == np.inf


class TestSpectrumEnds:
    @pytest.mark.parametrize("n", [1, 2, 8, 31, 32, 40, 160])
    def test_diagonal_ends_are_the_dense_ones_bit_for_bit(self, n):
        # the extreme entries of a diagonal matrix are what the dense
        # route computes, which leaves a diagonal as it is: wherever
        # dsyevd does not scale it below order 32, at every scale above
        rng = np.random.Generator(np.random.PCG64(n))
        scales = (1e-200, 1.0, 1e200) if n >= 32 else (1e-120, 1.0, 1e70)
        for scale in scales:
            v = np.diag(scale * rng.normal(size=n))
            ends = core._extreme_eigenvalues(v, 1, 1)[[0, -1]]
            assert core._spectrum_ends(v.diagonal()) == tuple(ends.tolist())
            assert core._spectrum_ends(v) == tuple(ends.tolist())


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
        # the empty request too, which from order 32 up asks for no range
        rng = np.random.Generator(np.random.PCG64(5))
        for n in (3, 40):
            stack = np.stack(symmetric_matrices(rng, n)[:2])
            for low, high in ((1, 2), (0, 0)):
                w = core._extreme_eigenvalues(stack, low, high)
                assert w.shape == (2, low + high)
                for row, s in zip(w, stack):
                    expected = core._extreme_eigenvalues(s, low, high)
                    np.testing.assert_array_equal(row, expected)


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
