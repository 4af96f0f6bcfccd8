import numpy as np
import pytest

from kgbounds import (
    ModelSpec,
    harness,
    ValidationError,
    example2_tables,
    render_example2_report,
    square_well_model,
    sweep_potential,
)


class TestExample2Tables:
    def test_shapes_and_selected_cells(self):
        result = example2_tables()
        assert result.true_distances.shape == (3, 3)
        assert f"{result.true_distances[0, 0]:.4e}" == "5.0037e-04"
        assert f"{result.true_distances[1, 1]:.4e}" == "1.3409e-01"
        assert f"{result.bounds[2, 0]:.4e}" == "6.6667e-03"

    def test_diagnostics(self):
        result = example2_tables()
        assert abs(result.norm_v_u_inv - np.sqrt(2.0 / 3.0)) <= 1e-12
        assert abs(result.norm_v_u2_inv - np.sqrt(5.0) / 3.0) <= 1e-12

    def test_report_flags_discrepancies(self):
        text = render_example2_report(example2_tables())
        assert "0.745" in text
        assert "0.81650" in text
        assert "1.8" in text and "1.7" in text
        assert "deepened well" in text


class TestSweep:
    def test_critical_coupling_of_square_well(self):
        result = sweep_potential(square_well_model(1.0), 0.0, 2.2, 23)
        assert result.critical_value is not None
        assert abs(result.critical_value - 2.0) <= 1e-6
        # real below, complex above
        below = result.parameters < 2.0 - 1e-9
        above = result.parameters > 2.0 + 1e-9
        assert result.is_real[below].all()
        assert not result.is_real[above].any()

    def test_inner_gap_shrinks_monotonically(self):
        result = sweep_potential(square_well_model(1.0), 0.0, 2.0, 21)
        gaps = []
        for row, ok in zip(result.eigenvalues, result.is_real):
            if ok:
                lam = np.sort(row.real)
                gaps.append(lam[2] - lam[1])
        assert all(g1 > g2 - 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-6 or len(gaps) < len(result.parameters)

    def test_critical_bracketed_by_reality_flip(self):
        result = sweep_potential(square_well_model(1.0), 1.5, 2.2, 8)
        flips = [
            k
            for k in range(len(result.parameters) - 1)
            if result.is_real[k] and not result.is_real[k + 1]
        ]
        assert len(flips) == 1
        k = flips[0]
        assert result.parameters[k] <= result.critical_value <= result.parameters[k + 1]

    def test_zero_potential_family_is_constant(self):
        spec = ModelSpec(u_squared=np.diag([1.0, 3.0]), v=np.zeros((2, 2)))
        result = sweep_potential(spec, 0.0, 2.0, 5)
        assert result.critical_value is None
        for row in result.eigenvalues:
            np.testing.assert_allclose(
                np.sort(row.real), [-np.sqrt(3), -1.0, 1.0, np.sqrt(3)], atol=1e-10
            )
            assert np.abs(row.imag).max() == 0.0

    def test_residuals_aligned_with_sorted_eigenvalues(self, monkeypatch):
        # a stand-in residual equal to the real part of its eigenvalue
        # shows which eigenvalue each stored residual belongs to
        monkeypatch.setattr(
            harness, "eigenpair_residuals", lambda spec, lams, vecs: np.real(lams)
        )
        result = sweep_potential(square_well_model(1.0), 0.0, 2.2, 12)
        assert not result.is_real.all()  # complex rows are covered
        np.testing.assert_array_equal(result.residuals, result.eigenvalues.real)
        np.testing.assert_array_equal(result.residual_max, result.residuals.max(axis=1))

    def test_rows_sorted_by_parameter(self):
        result = sweep_potential(square_well_model(1.0), 0.0, 1.0, 6)
        assert np.all(np.diff(result.parameters) > 0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            sweep_potential(square_well_model(1.0), 0.0, 1.0, 1)
        with pytest.raises(ValidationError):
            sweep_potential(square_well_model(1.0), 2.0, 1.0, 5)
