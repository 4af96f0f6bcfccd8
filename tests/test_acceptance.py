"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines as
they happen; under plain pytest the pass/fail status per criterion is
the test outcome itself.
"""

import numpy as np
import pytest

from kgbounds import (
    PerturbationSpec,
    assemble_system,
    delta_gram,
    eigen_spectrum,
    example1_table,
    example2_tables,
    gap_bound,
    gap_inclusion,
    improved_inclusion,
    pencil_residual,
    render_example2_report,
    rescale_kappa,
    sign_operator,
    spectral_norm,
    square_well_model,
    sweep_potential,
    verify_bounds,
)
from kgbounds.core import ModelSpec, operator_a
from oracles import (
    block_structure_analysis,
    contraction_bound,
    exact_kappa_pm,
    gram,
    hamiltonian,
    l_frame,
    shifted_gram,
    similarity_eigensolve,
)

# reference values of the reproduced tables (rows tau = 0, 1, 1.7;
# columns eta = 0.001, 0.1, 0.3)
REFERENCE_TRUE = np.array(
    [
        [5.0037e-04, 5.3732e-02, 1.8241e-01],
        [1.3269e-03, 1.3409e-01, 4.1064e-01],
        [3.3731e-03, 3.4990e-01, 1.4355e00],
    ]
)
REFERENCE_BOUNDS = np.array(
    [
        [1e-03, 1e-01, 3e-01],
        [2e-03, 2e-01, 6e-01],
        [6.6667e-03, 6.6667e-01, 2e00],
    ]
)


@pytest.fixture(scope="module")
def example2():
    return example2_tables()


@pytest.fixture(scope="module")
def example1():
    return example1_table()  # N = 1000, L = 12


@pytest.fixture(scope="module")
def solved200(corpus200):
    """Assembled systems, spectra and exact pairs for the 200-spec corpus."""
    solved = []
    for spec, dv in corpus200:
        system = assemble_system(spec, 0.0)
        report = eigen_spectrum(system)
        system_p = assemble_system(spec.perturbed(dv), 0.0)
        report_p = eigen_spectrum(system_p)
        km, kp = exact_kappa_pm(
            shifted_gram(gram(system.spec), system.shift),
            delta_gram(system, PerturbationSpec(delta_v=dv)),
        )
        solved.append(
            {
                "spec": spec,
                "dv": dv,
                "system": system,
                "report": report,
                "lam": np.sort(np.real(report.eigenvalues)),
                "lam_p": np.sort(np.real(report_p.eigenvalues)),
                "km": km,
                "kp": kp,
            }
        )
    return solved


def test_criterion_1_true_distance_table(example2):
    computed = example2.true_distances
    rel_err = np.abs(computed - REFERENCE_TRUE) / REFERENCE_TRUE
    assert rel_err.max() <= 1e-3, f"worst relative error {rel_err.max():.2e}"
    print(
        "\nACCEPTANCE 1 PASS: nine true-distance cells match the reference "
        f"within 1e-3 relative (worst {rel_err.max():.2e})"
    )


def test_criterion_2_bounds_table(example2):
    computed = example2.bounds
    rel_err = np.abs(computed - REFERENCE_BOUNDS) / REFERENCE_BOUNDS
    # printed precision is at most 5 significant digits
    assert rel_err.max() <= 1e-4, f"worst relative error {rel_err.max():.2e}"
    assert f"{computed[2, 0]:.4e}" == "6.6667e-03"
    print(
        "\nACCEPTANCE 2 PASS: nine bound cells eta/(1 - tau/2) match the "
        f"printed values (worst {rel_err.max():.2e})"
    )


def test_criterion_3_square_well_diagnostics(example2):
    for tau in (0.001, 0.4, 1.0, 1.7, 1.99):
        b = contraction_bound(square_well_model(tau), -tau / 2.0)
        assert abs(b - tau / 2.0) <= 1e-12
    assert abs(example2.norm_v_u2_inv - np.sqrt(5.0) / 3.0) <= 1e-4
    assert round(example2.norm_v_u2_inv, 3) == 0.745
    assert abs(example2.norm_v_u_inv - np.sqrt(2.0 / 3.0)) <= 1e-4
    report = render_example2_report(example2)
    assert "0.745" in report and "0.81650" in report
    print(
        "\nACCEPTANCE 3 PASS: contraction tau/2 exact to 1e-12; "
        "||V (U^2)^-1||/tau = 0.74536 and ||V U^-1||/tau = 0.81650 both "
        "reported, rounding discrepancy flagged"
    )


def test_criterion_4_defectiveness_and_critical_coupling():
    spec2 = square_well_model(2.0)
    # Q(-1) at the critical coupling is exactly singular with a
    # one-dimensional null space
    assert pencil_residual(spec2, -1.0) < 1e-12
    shifted = -1.0 * np.eye(2) - spec2.v
    sv = np.linalg.svd(shifted @ shifted - spec2.u_squared, compute_uv=False)
    assert sv[-1] < 1e-12 and sv[-2] > 1e-6  # rank deficiency exactly 1

    system = assemble_system(spec2, -1.0)
    report = eigen_spectrum(system)
    h = hamiltonian(system.spec)
    near = np.abs(np.real(report.eigenvalues) + 1.0) < 1e-6
    assert near.sum() == 2  # algebraic multiplicity 2
    sv_h = np.linalg.svd(h + np.eye(4), compute_uv=False)
    tol = 1e-8 * spectral_norm(h)
    assert int(np.sum(sv_h < tol)) == 1  # geometric multiplicity 1
    assert report.defective
    x = report.witness.vector
    jx = np.concatenate([x[2:], x[:2]])
    assert abs(np.vdot(x, jx)) / np.vdot(x, x).real < 1e-6  # J-neutral

    sweep = sweep_potential(square_well_model(1.0), 0.0, 2.2, 23)
    assert sweep.critical_value is not None
    assert abs(sweep.critical_value - 2.0) <= 1e-6
    beyond = sweep.parameters > 2.0 + 1e-9
    assert not sweep.is_real[beyond].any()
    assert all(
        np.abs(row.imag).max() > 0 for row in sweep.eigenvalues[beyond]
    )
    print(
        "\nACCEPTANCE 4 PASS: eigenvalue -1 defective at tau = 2 "
        "(alg 2 / geom 1, J-neutral eigenvector), critical coupling "
        f"located at {sweep.critical_value:.8f}"
    )


def test_criterion_5_oscillator_formula_and_sensitivity(example1):
    worst = 0.0
    for row in example1.rows:
        worst = max(worst, row.error_plus, row.error_minus)
        assert row.error_plus <= 5e-3
        assert row.error_minus <= 5e-3
    ratio = example1.fd_ratio_discrete / example1.predicted_ratio
    assert abs(ratio - 1.0) <= 0.05
    ratio_exact = example1.fd_ratio_exact / example1.predicted_ratio
    assert abs(ratio_exact - 1.0) <= 0.05
    print(
        "\nACCEPTANCE 5 PASS: 18 discretized levels within 5e-3 of the closed "
        f"form (worst {worst:.2e}); sensitivity ratio off by "
        f"{abs(ratio - 1.0) * 100:.2f}% at alpha = 0.5"
    )


def test_criterion_6_property_suite(solved200):
    rng = np.random.Generator(np.random.PCG64(77))
    for item in solved200:
        system, lam, lam_p = item["system"], item["lam"], item["lam_p"]
        km, kp = item["km"], item["kp"]
        b = system.contraction

        # (a) sign-operator norm window
        nj = sign_operator(item["report"])
        assert 1.0 - 1e-12 <= nj <= 1.0 / (1.0 - b) + 1e-10

        # (b) guaranteed central gap
        alpha = gap_bound(system)
        assert np.abs(lam).min() >= alpha - 1e-10

        # (c) exact pair brackets every relative deviation
        signed = (lam_p - lam) / lam
        assert np.all(signed >= km - 1e-9)
        assert np.all(signed <= kp + 1e-9)

        # (d) rescaling never hurts, equality only for symmetric pairs
        kappa = max(abs(km), abs(kp))
        _, kph = rescale_kappa(km, kp)
        assert kph <= kappa + 1e-12
        if abs(km + kp) <= 1e-12:
            assert abs(kph - kappa) <= 1e-12
        elif abs(km + kp) > 1e-9:
            assert kph < kappa

        # (e) no perturbed eigenvalue inside the certified intervals
        gap = (lam[lam < 0].max(), lam[lam > 0].min())
        predicted = gap_inclusion(gap, kappa)
        improved = improved_inclusion(gap, km, kp)
        for interval in (predicted, improved):
            lo, hi = interval
            assert not np.any((lam_p > lo + 1e-12) & (lam_p < hi - 1e-12))

        # (f) positive semidefinite form growth never shrinks the gap
        r = rng.normal(size=(2 * system.spec.order, 2))
        dg = r @ r.T
        dg *= 0.25 * spectral_norm(gram(system.spec)) / spectral_norm(dg)
        lam_grown = np.sort(similarity_eigensolve(gram(system.spec) + dg, 0.0)[0])
        grown_gap = (lam_grown[lam_grown < 0].max(), lam_grown[lam_grown > 0].min())
        assert grown_gap[0] <= gap[0] + 1e-10
        assert grown_gap[1] >= gap[1] - 1e-10
    print(
        "\nACCEPTANCE 6 PASS: 200 random specs, zero failures across "
        "(a) sign-operator norm, (b) gap exclusion, (c) exact two-sided "
        "bound, (d) rescaling, (e) inclusion intervals, (f) monotone growth"
    )


def test_criterion_7_oracle_equivalence(solved200):
    for item in solved200:
        system, lam = item["system"], item["lam"]
        h = hamiltonian(system.spec)
        scale_h = spectral_norm(h)
        direct = np.sort(np.linalg.eigvals(h).real)
        assert np.abs(lam - direct).max() <= 1e-8 * scale_h
        spec = item["spec"]
        scale_q = spectral_norm(spec.u_squared) + spectral_norm(spec.v) ** 2
        for ev in lam:
            assert pencil_residual(spec, ev) <= 1e-8 * (scale_q + ev**2)
    print(
        "\nACCEPTANCE 7 PASS: similarity and direct eigensolvers agree to "
        "1e-8*||H|| on all 200 specs; every pencil residual below the gate"
    )


def _diagonal_pair(rng, disjoint):
    """Diagonal (spec, dv) with a disjoint or sign-definite perturbation."""
    n = int(rng.integers(4, 9))
    u_diag = rng.uniform(0.5, 3.0, size=n)
    u_inv = 1.0 / np.sqrt(u_diag)
    half = n // 2
    v_diag = np.zeros(n)
    v_diag[:half] = rng.uniform(-1.0, 1.0, size=half)
    b_target = float(rng.uniform(0.1, 0.6))
    v_diag *= b_target / np.abs(v_diag * u_inv).max()

    dv_diag = np.zeros(n)
    if disjoint:
        dv_diag[half:] = rng.uniform(-1.0, 1.0, size=n - half)
    else:
        dv_diag[:half] = -rng.uniform(0.1, 1.0, size=half) * v_diag[:half]
    b = np.abs(v_diag * u_inv).max()
    c_target = float(rng.uniform(0.2, 0.85)) * np.sqrt(1.0 - b * b)
    dv_diag *= c_target / np.abs(dv_diag * u_inv).max()
    spec = ModelSpec(u_squared=np.diag(u_diag), v=np.diag(v_diag))
    return spec, np.diag(dv_diag)


def test_criterion_8_structured_bound_soundness():
    rng = np.random.Generator(np.random.PCG64(88))
    for kind in ("disjoint", "signed"):
        for _ in range(100):
            spec, dv = _diagonal_pair(rng, disjoint=(kind == "disjoint"))
            vr = verify_bounds(spec, dv, 0.0)
            bounds = vr.bounds
            if kind == "disjoint":
                assert "kappa_disjoint" in bounds.kappas
                k_dis = bounds.kappas["kappa_disjoint"][0]
                assert vr.max_deviation <= k_dis + 1e-9
            else:
                assert "kappa_signed" in bounds.kappas
                km, kp = bounds.kappas["kappa_signed"][0]
                assert np.all(vr.signed_deviations >= km - 1e-9)
                assert np.all(vr.signed_deviations <= kp + 1e-9)
            # the closed-form retrieval: t_bound at a = 2b||dA||/(1-b^2)
            # dominates ||dA||/(1-b)
            system = assemble_system(spec, 0.0)
            da = l_frame(spec, dv)
            b = system.contraction
            c = spectral_norm(da)
            bs = block_structure_analysis(operator_a(spec, 0.0), da)
            t = bs.t_bound(2.0 * b * c / (1.0 - b * b))
            assert t >= c / (1.0 - b) - 1e-12
    print(
        "\nACCEPTANCE 8 PASS: disjoint and signed constants sound on 2 x 100 "
        "constructed pairs; t-bound retrieval identity holds to 1e-12"
    )
