import numpy as np
import pytest

from kgbounds import (
    AlphaOutOfRange,
    HarmonicParams,
    ModelSpec,
    ParseError,
    PerturbationSpec,
    ValidationError,
    assemble_system,
    eigen_spectrum,
    exact_harmonic_eigs,
    harmonic_model,
    harmonic_sensitivity,
    kappa_general,
    load_model,
    random_perturbation,
    save_model,
    spectral_norm,
    square_well_model,
    square_well_perturbation,
)
from oracles import contraction_bound
from conftest import constants_of


def u_eigs(spec):
    """Positive branch of the free spectrum: sqrt of the eigenvalues of U^2."""
    return np.sqrt(np.linalg.eigvalsh(spec.u_squared))


class TestHarmonicModel:
    def test_zero_field_has_zero_potential(self):
        spec = harmonic_model(HarmonicParams(alpha=0.0, grid_points=50, half_width=8.0))
        assert spectral_norm(spec.v) == 0.0

    def test_lowest_level_at_modest_resolution(self):
        # N = 400, L = 10 already reproduces the lowest level to 5e-3
        spec = harmonic_model(HarmonicParams(alpha=0.0, grid_points=400, half_width=10.0))
        assert abs(u_eigs(spec)[0] - 1.0) <= 5e-3

    def test_contraction_below_one_at_alpha_point_six(self):
        spec = harmonic_model(HarmonicParams(alpha=0.6, grid_points=200, half_width=10.0))
        assert contraction_bound(spec, 0.0) < 1.0

    def test_second_order_convergence(self):
        # halving the step quarters the eigenvalue error (free case, n = 1)
        errors = []
        for n_pts in (100, 201, 403):  # h halves each time: h = 2L/(N+1)
            spec = harmonic_model(
                HarmonicParams(alpha=0.0, grid_points=n_pts, half_width=10.0)
            )
            errors.append(abs(u_eigs(spec)[1] - np.sqrt(3.0)))
        assert 3.0 <= errors[0] / errors[1] <= 5.0
        assert 3.0 <= errors[1] / errors[2] <= 5.0

    def test_sharpness_probe(self):
        # on a fixed grid the contraction climbs toward 1 and the central
        # gap shrinks as alpha increases
        ladder = [0.2, 0.4, 0.6, 0.8, 0.95]
        bs, gaps = [], []
        for alpha in ladder:
            spec = harmonic_model(
                HarmonicParams(alpha=alpha, grid_points=200, half_width=10.0)
            )
            system = assemble_system(spec, 0.0)
            bs.append(system.contraction)
            report = eigen_spectrum(system)
            gaps.append(report.central_gap[1] - report.central_gap[0])
        assert all(b1 < b2 for b1, b2 in zip(bs, bs[1:]))
        assert bs[-1] > 0.9
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            HarmonicParams(alpha=-0.1)
        with pytest.raises(ValidationError):
            HarmonicParams(alpha=0.0, grid_points=2)


class TestExactHarmonicEigs:
    def test_free_ground_state(self):
        assert exact_harmonic_eigs(0.0, 0.0, 0) == (1.0, -1.0)

    def test_free_levels_match_oscillator(self):
        # at alpha = 0 the pair is +-sqrt(beta + 1 + 2n), the square roots
        # of the oscillator levels; cross-checked against the grid
        mu_p, mu_m = exact_harmonic_eigs(0.0, 0.0, 2)
        assert abs(mu_p - np.sqrt(5.0)) <= 1e-15
        assert mu_m == -mu_p
        spec = harmonic_model(HarmonicParams(alpha=0.0, grid_points=400, half_width=10.0))
        assert abs(u_eigs(spec)[2] - mu_p) <= 5e-3

    def test_field_dependence(self):
        mu_p, _ = exact_harmonic_eigs(0.6, 0.0, 0)
        assert abs(mu_p - 0.64**0.75) <= 1e-15  # (1 - 0.36)^(3/4)

    def test_discretized_cross_check_with_field(self):
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=400, half_width=10.0))
        report = eigen_spectrum(assemble_system(spec, 0.0))
        for mode in (0, 1):
            mu_p, mu_m = exact_harmonic_eigs(0.3, 0.0, mode)
            assert abs(report.positive_ordered[mode] - mu_p) <= 5e-3
            assert abs(report.negative_ordered[mode] - mu_m) <= 5e-3

    def test_alpha_range(self):
        with pytest.raises(AlphaOutOfRange):
            exact_harmonic_eigs(1.0, 0.0, 0)
        with pytest.raises(AlphaOutOfRange):
            exact_harmonic_eigs(-0.2, 0.0, 0)


class TestHarmonicSensitivity:
    def test_vanishes_at_small_field(self):
        assert abs(harmonic_sensitivity(1e-9)) <= 2e-9

    def test_value_at_half(self):
        assert abs(harmonic_sensitivity(0.5) + 1.0) <= 1e-15

    def test_first_order_change_versus_bound(self):
        # alpha -> alpha + eps at alpha = 0.5: relative change ~ -1e-4,
        # certified bound eps/(1-alpha) = 2e-4, ratio (3/2)a/(1+a) = 0.5
        alpha, eps = 0.5, 1e-4
        mu0 = exact_harmonic_eigs(alpha, 0.0, 0)[0]
        mu1 = exact_harmonic_eigs(alpha + eps, 0.0, 0)[0]
        change = (mu1 - mu0) / mu0
        assert abs(change + 1e-4) <= 2e-8
        bound = eps / (1.0 - alpha)
        assert abs(bound - 2e-4) <= 1e-19
        assert abs(abs(change) / bound - 0.5) <= 1e-3

    def test_alpha_range(self):
        with pytest.raises(AlphaOutOfRange):
            harmonic_sensitivity(0.0)


class TestSquareWell:
    def test_matrices(self):
        spec = square_well_model(1.5)
        np.testing.assert_allclose(spec.u_squared, [[2.0, -1.0], [-1.0, 2.0]])
        np.testing.assert_allclose(spec.v, [[-1.5, 0.0], [0.0, 0.0]])

    def test_zero_coupling(self):
        assert spectral_norm(square_well_model(0.0).v) == 0.0

    def test_defective_at_two(self):
        system = assemble_system(square_well_model(2.0), -1.0)
        report = eigen_spectrum(system)
        assert report.defective
        assert abs(complex(report.witness.eigenvalue).real + 1.0) < 1e-6

    def test_contraction_exactly_half_coupling(self):
        for tau in (0.3, 1.0, 1.7, 1.95):
            b = contraction_bound(square_well_model(tau), -tau / 2.0)
            assert abs(b - tau / 2.0) <= 1e-12

    def test_negative_tau_rejected(self):
        with pytest.raises(ValidationError):
            square_well_model(-0.5)


class TestSquareWellPerturbation:
    def test_matrix(self):
        pert = square_well_perturbation(0.1)
        np.testing.assert_allclose(pert.delta_v, [[0.1, 0.0], [0.0, 0.0]])

    def test_zero_strength_gives_zero_constants(self):
        system = assemble_system(square_well_model(1.0), -0.5)
        bundle = constants_of(system, square_well_perturbation(0.0))
        assert bundle.kappa_general == 0.0
        assert bundle.kappa_exact == (0.0, 0.0)

    def test_contraction_measurement(self):
        # c = ||dV U^(-1)|| = |eta| sqrt(2/3): the first row of the well's
        # U^(-1) has squared norm 2/3
        system = assemble_system(square_well_model(1.0), -0.5)
        bounds = constants_of(system, square_well_perturbation(0.001))
        assert abs(bounds.c - 0.001 * np.sqrt(2.0 / 3.0)) <= 1e-15

    def test_shifted_table_bound(self):
        assert abs(kappa_general(0.1, 1.0 / 2.0) - 0.2) <= 1e-15


class TestRandomPerturbation:
    def test_zero_scale(self):
        assert spectral_norm(random_perturbation(4, 0.0, 1).delta_v) == 0.0

    def test_deterministic(self):
        a = random_perturbation(5, 0.2, 42).delta_v
        b = random_perturbation(5, 0.2, 42).delta_v
        np.testing.assert_array_equal(a, b)

    def test_entry_and_norm_bounds(self):
        pert = random_perturbation(4, 0.1, 42)
        assert np.abs(pert.delta_v).max() <= 0.1
        assert spectral_norm(pert.delta_v) <= 0.1 * 4

    def test_symmetric(self):
        pert = random_perturbation(6, 0.3, 7)
        np.testing.assert_array_equal(pert.delta_v, pert.delta_v.T)


class TestModelFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        spec = square_well_model(1.0)
        path = tmp_path / "well.json"
        save_model(spec, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.u_squared, spec.u_squared)
        np.testing.assert_array_equal(loaded.v, spec.v)
        assert loaded.label == spec.label

    def test_round_trip_irrational_entries(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(33))
        m = rng.normal(size=(3, 3))
        spec = ModelSpec(u_squared=m @ m.T + np.eye(3), v=0.1 * (m + m.T))
        path = tmp_path / "dense.json"
        save_model(spec, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.u_squared, spec.u_squared)
        np.testing.assert_array_equal(loaded.v, spec.v)

    def test_missing_field_names_it(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"v": [[0.0]]}')
        with pytest.raises(ParseError, match="u_squared"):
            load_model(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"u_squared": [[1.0]], ')
        with pytest.raises(ParseError):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_model(tmp_path / "nope.json")

    def test_asymmetric_v_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"u_squared": [[1.0, 0.0], [0.0, 1.0]],'
            ' "v": [[0.0, 1.0], [0.0, 0.0]]}'
        )
        with pytest.raises(ValidationError):
            load_model(path)

    def test_parameterized_square_well(self, tmp_path):
        path = tmp_path / "well.json"
        path.write_text('{"model": "square_well", "tau": 1.5}')
        loaded = load_model(path)
        np.testing.assert_allclose(loaded.v, [[-1.5, 0.0], [0.0, 0.0]])

    def test_parameterized_harmonic(self, tmp_path):
        path = tmp_path / "osc.json"
        path.write_text(
            '{"model": "harmonic", "alpha": 0.3, "beta": 1.0,'
            ' "grid_points": 50, "half_width": 8.0}'
        )
        loaded = load_model(path)
        direct = harmonic_model(
            HarmonicParams(alpha=0.3, beta=1.0, grid_points=50, half_width=8.0)
        )
        np.testing.assert_array_equal(loaded.u_squared, direct.u_squared)
        np.testing.assert_array_equal(loaded.v, direct.v)

    def test_integral_float_grid_points(self, tmp_path):
        path = tmp_path / "osc.json"
        path.write_text('{"model": "harmonic", "alpha": 0.3, "grid_points": 10.0}')
        assert load_model(path).order == 10

    def test_unknown_family(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"model": "pendulum", "tau": 1.0}')
        with pytest.raises(ParseError, match="pendulum"):
            load_model(path)
