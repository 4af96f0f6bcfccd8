import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kgbounds import (
    HarmonicParams,
    ModelSpec,
    core,
    harness,
    ValidationError,
    assemble_system,
    eigen_spectrum,
    eigenpair_residuals,
    example1_table,
    example2_tables,
    harmonic_model,
    render_example2_report,
    square_well_model,
    sweep_potential,
)
from conftest import random_model


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


class TestExample1Table:
    """example1_table against one eigen_spectrum per oscillator model."""

    GRID = 60

    @classmethod
    def reference(cls, alpha, beta):
        """(b, positive and negative eigenvalues ordered away from 0)."""
        spec = harmonic_model(
            HarmonicParams(alpha=alpha, beta=beta, grid_points=cls.GRID)
        )
        system = assemble_system(spec, 0.0)
        report = eigen_spectrum(system)
        return system.contraction, report.positive_ordered, report.negative_ordered

    def test_one_u2_eigendecomposition_per_mass_offset(self, monkeypatch):
        # one validation of U^2, by its Cholesky factorization and the ends
        # of its spectrum, per mass offset, and no eigendecomposition of it
        calls, decompositions = [], []
        validate, eigh = core.ModelSpec.__post_init__, np.linalg.eigh

        def count(spec):
            calls.append(1)
            validate(spec)

        def record(a, *args, **kwargs):
            decompositions.append(np.shape(a)[-1])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(core.ModelSpec, "__post_init__", count)
        monkeypatch.setattr(np.linalg, "eigh", record)
        example1_table(self.GRID)
        assert len(calls) == len(harness.EXAMPLE1_BETAS) == 2
        assert self.GRID not in decompositions

    def test_rows_and_contractions_match_per_model_solves(self):
        result = example1_table(self.GRID)
        refs = {key: self.reference(*key) for key in result.contraction}
        for row in result.rows:
            _, pos, neg = refs[(row.alpha, row.beta)]
            for value, ref in ((row.mu_plus, pos), (row.mu_minus, neg)):
                assert abs(value - ref[row.mode]) <= 1e-13 * abs(ref[row.mode])
        assert len(result.rows) == 3 * len(refs) == 18
        # alpha * x is the same product in both: b bit for bit
        assert result.contraction == {key: ref[0] for key, ref in refs.items()}

        a0, eps = result.sensitivity_alpha, result.sensitivity_eps
        mu0 = self.reference(a0, 0.0)[1][0]
        mu1 = self.reference(a0 + eps, 0.0)[1][0]
        fd = (mu1 - mu0) / (mu0 * eps)
        assert abs(result.fd_ratio_discrete - fd) <= 1e-8 * abs(fd)


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
            harness,
            "eigenpair_residuals",
            lambda spec, lams, vecs, *potentials: np.real(lams),
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


def per_step_reports(base, params, shift):
    """eigen_spectrum of each step, one assembled system per coupling t."""
    for t in params:
        spec = base.with_potential(t * base.v, base.label)
        yield spec, eigen_spectrum(assemble_system(spec, shift))


class TestStackedSweep:
    """The blocked sweep against one eigen_spectrum per step."""

    @staticmethod
    def assert_rows_match(base, lo, hi, steps, shift=0.0):
        result = sweep_potential(base, lo, hi, steps, shift)
        paths = []
        for k, (spec, report) in enumerate(
            per_step_reports(base, result.parameters, shift)
        ):
            lam = report.eigenvalues
            scale = 1.0 + np.abs(lam)
            assert np.abs(result.eigenvalues[k] - lam).max() <= 1e-12 * scale.max(), k
            assert result.is_real[k] == report.is_real_spectrum, k
            assert result.defect_flags[k] == report.defective, k
            resid = eigenpair_residuals(spec, lam, report.eigenvectors)
            assert np.abs(result.residuals[k] - resid).max() <= 1e-12 * scale.max(), k
            paths.append(report.solver_path)
        return result, paths

    def test_defective_coupling_hit_exactly(self):
        # t = 2 on the tau = 1 well is the defective coupling itself
        result, paths = self.assert_rows_match(square_well_model(1.0), 0.0, 4.0, 3)
        assert result.parameters[1] == 2.0
        assert result.defect_flags[1] and not result.defect_flags[0]
        assert paths == ["similarity", "direct", "direct"]

    def test_long_well_sweep_across_both_paths(self):
        base = square_well_model(1.0)
        result, paths = self.assert_rows_match(base, 0.0, 2.2, 1001)
        assert not result.is_real.all() and result.is_real.any()
        # the path switches inside a block, not at its boundary
        block = harness.BLOCK_BUDGET // (2 * base.order) ** 2
        switch = paths.index("direct")
        assert switch % block != 0 and paths[switch - 1] == "similarity"
        assert len(result.parameters) > 2 * block

    def test_nonzero_shift(self):
        self.assert_rows_match(square_well_model(1.0), 0.0, 3.0, 40, shift=-0.7)

    def test_random_order_eight_model(self):
        spec, _ = random_model(np.random.Generator(np.random.PCG64(88)), n=8)
        result, paths = self.assert_rows_match(spec, -1.0, 3.0, 30, shift=0.2)
        assert {"similarity", "direct"} <= set(paths)

    def test_peak_memory_within_results(self):
        # blocks bound the temporaries: the peak is the result arrays and
        # at most 256 KiB more, however many steps there are
        base = square_well_model(1.0)
        sweep_potential(base, 0.0, 2.2, 11)   # warm imports and caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = sweep_potential(base, 0.0, 2.2, 4001)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        kept = sum(
            a.nbytes
            for a in (
                result.parameters,
                result.eigenvalues,
                result.is_real,
                result.defect_flags,
                result.residuals,
                result.residual_max,
            )
        )
        assert peak <= kept + 256 * 1024

    @staticmethod
    def count_rows(monkeypatch):
        """The number of couplings of each eigen_spectra call of the sweep."""
        calls = []
        spectra = harness.eigen_spectra

        def count(spec, couplings, *args, **kwargs):
            calls.append(len(couplings))
            return spectra(spec, couplings, *args, **kwargs)

        monkeypatch.setattr(harness, "eigen_spectra", count)
        return calls

    def test_one_solve_per_block(self, monkeypatch):
        calls = self.count_rows(monkeypatch)
        base = square_well_model(1.0)
        steps = 1001
        result = sweep_potential(base, 0.0, 2.2, steps)
        block = harness.BLOCK_BUDGET // (2 * base.order) ** 2
        blocks = math.ceil(steps / block)
        bisection = math.ceil(math.log2(2.2 / (steps - 1) / 1e-6))
        assert result.critical_value is not None
        assert sum(calls[:blocks]) == steps and max(calls) <= block
        assert len(calls) <= blocks + bisection
        assert calls[blocks:] == [1] * (len(calls) - blocks)

    def test_block_of_one_row_from_order_sixteen(self, monkeypatch):
        calls = self.count_rows(monkeypatch)
        spec, _ = random_model(np.random.Generator(np.random.PCG64(16)), n=16)
        sweep_potential(spec, 0.0, 0.5, 4)
        assert calls == [1, 1, 1, 1]

    @pytest.mark.parametrize("lo, hi", [(0.0, 1e308), (-1e308, 0.0)])
    def test_overflowing_potential_rejected_before_any_solve(
        self, lo, hi, monkeypatch
    ):
        # 1e308 V is finite, but symmetrizing it is not
        monkeypatch.setattr(harness, "eigen_spectra", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="v contains non-finite"):
                sweep_potential(square_well_model(1.0), lo, hi, 5)

    @pytest.mark.parametrize(
        "lo, hi", [(0.0, np.inf), (np.nan, 1.0), (-1.7e308, 1.7e308)]
    )
    def test_non_finite_range(self, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="not finite"):
                sweep_potential(square_well_model(0.0), lo, hi, 5)
