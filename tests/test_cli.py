import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from kgbounds import (
    KleinGordonSystem,
    ModelSpec,
    cli,
    core,
    harness,
    save_model,
    spectral,
    spectral_norm,
    square_well_model,
    square_well_perturbation,
    verify_bounds,
)
from kgbounds.cli import EXIT_OK, EXIT_PARSE, EXIT_SOLVER, EXIT_VALIDATION, main


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestSpectrumCommand:
    def test_square_well_tau_zero(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--tau", "0", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == [
            "index",
            "eigenvalue_re",
            "eigenvalue_im",
            "sign_type",
            "pencil_residual",
        ]
        eigs = sorted(float(r[1]) for r in rows[1:])
        np.testing.assert_allclose(
            eigs, [-np.sqrt(3), -1.0, 1.0, np.sqrt(3)], atol=1e-10
        )
        assert all(float(r[4]) < 1e-10 for r in rows[1:])
        assert all(float(r[2]) == 0.0 for r in rows[1:])

    def test_free_model_file(self, tmp_path):
        path = tmp_path / "free.json"
        path.write_text(
            '{"u_squared": [[4.0, 0.0], [0.0, 9.0]], "v": [[0.0, 0.0], [0.0, 0.0]]}'
        )
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--model", str(path), "--out", str(out)]) == EXIT_OK
        eigs = sorted(float(r[1]) for r in read_csv(out)[1:])
        np.testing.assert_allclose(eigs, [-3.0, -2.0, 2.0, 3.0], atol=1e-12)

    def test_complex_pair_beyond_critical(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--tau", "2.2", "--out", str(out)]) == EXIT_OK
        imags = [float(r[2]) for r in read_csv(out)[1:]]
        assert max(abs(v) for v in imags) > 1e-3

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["spectrum", "--tau", "1", "--shift", "-0.5", "--out", str(out1)])
        main(["spectrum", "--tau", "1", "--shift", "-0.5", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_optimized_shift(self, tmp_path):
        # the optimizer cancels a scalar potential exactly, centering the
        # free gap
        path = tmp_path / "scalar.json"
        path.write_text(
            '{"u_squared": [[4.0, 0.0], [0.0, 4.0]], "v": [[1.5, 0.0], [0.0, 1.5]]}'
        )
        out = tmp_path / "spec.csv"
        code = main(
            ["spectrum", "--model", str(path), "--optimize-shift", "--out", str(out)]
        )
        assert code == EXIT_OK
        eigs = sorted(float(r[1]) for r in read_csv(out)[1:])
        np.testing.assert_allclose(eigs, [-0.5, -0.5, 3.5, 3.5], atol=1e-7)


class TestVerifyCommand:
    def test_zero_perturbation(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = main(
            ["verify", "--tau", "1", "--eta", "0", "--paper-shift", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        devs = [float(r[4]) for r in rows[1:] if r[0] == "eigenpair"]
        assert max(devs) == 0.0

    def test_table_row(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = main(
            [
                "verify",
                "--tau",
                "1.7",
                "--eta",
                "0.1",
                "--paper-shift",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        summary = [r for r in rows if r[0] == "summary"][0]
        assert f"{float(summary[4]):.4e}" == "3.4990e-01"
        bound = {r[1]: r for r in rows if r[0] == "bound"}["kappa_norm_product"]
        assert f"{float(bound[5]):.4e}" == "6.6667e-01"

    def test_gate_failure_names_the_row(self, tmp_path, capsys):
        # eta = 0.35 perturbs the well past tau = 2: the real parts that
        # verify reports for the non-real pair fail the residual gate
        out = tmp_path / "verify.csv"
        args = ["verify", "--tau", "1.7", "--paper-shift", "--eta", "0.35"]
        assert main(args + ["--out", str(out)]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert re.search(
            r"at index \d+, eigenvalue \S+: pencil residual \S+ exceeds "
            r"the gate \S+",
            err,
        ), err
        assert err.rstrip().endswith("(the perturbed spectrum is not real)"), err

    def test_perturbed_model_built_once(self, monkeypatch, capsys):
        # verify_bounds builds the perturbed spec once and the residual
        # gate reads the residuals it computed there
        built = []
        perturbed = ModelSpec.perturbed

        def spy(self, delta_v):
            built.append(1)
            return perturbed(self, delta_v)

        monkeypatch.setattr(ModelSpec, "perturbed", spy)
        args = ["verify", "--alpha", "0.3", "--grid-points", "20", "--eta", "1e-3"]
        assert main(args) == EXIT_OK
        assert built == [1]

    def test_random_perturbation_on_oscillator(self, tmp_path):
        args = [
            "verify",
            "--alpha",
            "0.3",
            "--grid-points",
            "30",
            "--half-width",
            "8",
            "--eta",
            "0.01",
            "--seed",
            "5",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_csv(out1)
        assert sum(r[0] == "eigenpair" for r in rows) == 60
        checks = {r[1] for r in rows if r[0] == "bound"}
        assert {"kappa_general", "kappa_exact"} <= checks


class TestBoundsCommand:
    def test_one_pencil_solve_and_no_2n_validation(self, monkeypatch, capsys):
        pencil_calls, factored_orders = [], []

        def count_pencil(*args, **kwargs):
            pencil_calls.append(1)
            return k_frame(*args, **kwargs)

        def record_factor(m, *args, **kwargs):
            factored_orders.append(np.shape(m)[0])
            return dpotrf(m, *args, **kwargs)

        k_frame, dpotrf = spectral._k_frame_eigensolve, scipy.linalg.lapack.dpotrf
        monkeypatch.setattr(spectral, "_k_frame_eigensolve", count_pencil)
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", record_factor)
        args = ["bounds", "--alpha", "0.3", "--grid-points", "40", "--eta", "1e-3"]
        assert main(args) == EXIT_OK
        assert len(pencil_calls) == 1
        # the order-40 U^2 is validated by its Cholesky factorization and
        # -Q(mu) factored by the pencil solve; nothing of order 80 is
        assert factored_orders == [40, 40]

    def test_reductions_of_the_optimized_bounds(self, monkeypatch, tmp_path):
        # every dense symmetric eigen-reduction kg bounds --optimize-shift
        # runs at N = 160, by routine and order: the ends of the spectrum
        # of U^2 that validate it, the bracket's extremes of V, the one
        # full solve of the shift search (dsyevr), the contraction, the
        # spectrum (dsyevd with vectors), c, nu, the mixed product, ||dV||,
        # the exact pair at order 2n, ||dG|| and ||Gamma||; the one eigh
        # of U^2 forms the U^(+-1/2) of the ||dG|| and ||J1|| rows.  The
        # other 47 Brent steps and full spectra of the previous search
        # are gone
        calls = []

        def spy(module, name):
            routine = getattr(module, name)

            def record(a, *args, **kwargs):
                calls.append((name, np.shape(a)[-1]))
                return routine(a, *args, **kwargs)

            monkeypatch.setattr(module, name, record)

        for name in ("dsytrd", "dsyevd", "dsyevr"):
            spy(scipy.linalg.lapack, name)
        for name in ("eigh", "eigvalsh"):
            spy(np.linalg, name)
        args = ["bounds", "--alpha", "0.3", "--grid-points", "160", "--optimize-shift"]
        args += ["--eta", "1e-3", "--out", str(tmp_path / "bounds.csv")]
        assert main(args) == EXIT_OK
        assert sorted(calls) == sorted(
            [("eigh", 160), ("dsyevr", 160), ("dsyevd", 320), ("dsytrd", 320)]
            + [("dsytrd", 160)] * 9
        )

    @pytest.mark.parametrize("command, solves", [("bounds", 1), ("verify", 2)])
    def test_one_cholesky_per_system(self, command, solves, monkeypatch, capsys):
        # one n x n Cholesky factorization of U^2 - (V - mu)^2 certifies
        # and reduces the pencil of each (model, shift); the exact kappa
        # pair is read off the same solve's eigenvectors, and no
        # generalized eigensolve runs.  The one more factorization is
        # that of U^2, which validates the model and is shared by the
        # perturbed model
        generalized, factored = [], []
        eigh = scipy.linalg.eigh

        def spy_eigh(a, b=None, *args, **kwargs):
            if b is not None:
                generalized.append(np.shape(b))
            return eigh(a, b, *args, **kwargs)

        def spy_cholesky(factor):
            # one entry per factored matrix, also within a stack
            def record(a, *args, **kwargs):
                shape = np.shape(a)
                factored.extend([shape[-2:]] * int(np.prod(shape[:-2])))
                return factor(a, *args, **kwargs)

            return record

        monkeypatch.setattr(scipy.linalg, "eigh", spy_eigh)
        for module, name in [
            (scipy.linalg.lapack, "dpotrf"),
            (scipy.linalg, "cholesky"),
            (scipy.linalg, "cho_factor"),
            (np.linalg, "cholesky"),
        ]:
            monkeypatch.setattr(module, name, spy_cholesky(getattr(module, name)))
        args = [command, "--alpha", "0.3", "--grid-points", "40", "--eta", "1e-3"]
        assert main(args) == EXIT_OK
        assert generalized == []
        assert factored == [(40, 40)] * (solves + 1)

    @pytest.mark.parametrize("command", ["bounds", "verify"])
    def test_contraction_rejected_before_any_solve(
        self, command, monkeypatch, capsys
    ):
        # b >= 1 is caught on the model's own system: the perturbed model
        # is never assembled and no spectrum is solved
        calls = {"eigen_spectrum": [], "assemble_system": []}
        for attr, fn in [
            ("eigen_spectrum", spectral.eigen_spectrum),
            ("assemble_system", core.assemble_system),
        ]:

            def count(*args, attr=attr, fn=fn, **kwargs):
                calls[attr].append(1)
                return fn(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name.startswith("kgbounds") and getattr(module, attr, None) is fn:
                    monkeypatch.setattr(module, attr, count)
        args = [command, "--tau", "2.5", "--eta", "0.1", "--shift", "-1.25"]
        assert main(args) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert re.fullmatch(r"solver error: contraction b = \S+ is not < 1\n", err), err
        assert calls == {"eigen_spectrum": [], "assemble_system": [1]}

    @pytest.mark.parametrize("command", ["bounds", "verify"])
    @pytest.mark.parametrize("shift", [[], ["--optimize-shift"]])
    def test_no_singular_value_decomposition(
        self, command, shift, svd_calls, capsys
    ):
        # every norm is the top eigenvalue of a Gram matrix and the shift
        # search evaluates b^2 the same way
        args = [command, "--alpha", "0.3", "--grid-points", "40", "--eta", "1e-3"]
        assert main(args + shift) == EXIT_OK
        assert svd_calls == []

    def test_zero_perturbation_keeps_gap(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main(
            ["bounds", "--tau", "1", "--eta", "0", "--paper-shift", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = {r[0]: r for r in read_csv(out)[1:]}
        assert float(rows["kappa_general"][1]) == 0.0
        assert float(rows["gap_alpha"][1]) == pytest.approx(0.5, abs=1e-12)
        gap = (float(rows["central_gap"][1]), float(rows["central_gap"][2]))
        plain = (float(rows["interval_plain"][1]), float(rows["interval_plain"][2]))
        np.testing.assert_allclose(plain, gap, atol=1e-12)

    def test_report_format(self, tmp_path, capsys):
        code = main(
            ["bounds", "--tau", "1", "--eta", "0.1", "--paper-shift", "--format", "report"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["model: square_well(tau=1)", "shift mu = -0.5"]
        rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
        assert "kappa_general" in rows and "interval_uniform" in rows
        # the table-style constant eta/(1 - tau/2) = 0.2 and alpha = 1/2
        assert rows["kappa_norm_product"] == ["2.000000e-01", "True"]
        assert rows["gap_alpha"][0] == "5.000000e-01"

    @pytest.mark.parametrize(
        "source",
        [
            ["--tau", "1", "--paper-shift", "--eta", "0.1"],
            ["--alpha", "0.3", "--grid-points", "30", "--eta", "1e-3", "--seed", "4"],
        ],
    )
    def test_report_renders_the_csv_rows(self, source, capsys):
        # one list of rows: the report has the CSV's keys in the CSV's
        # order, and each of its numbers is the CSV value rounded
        assert main(["bounds", *source]) == EXIT_OK
        csv_rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        assert main(["bounds", *source, "--format", "report"]) == EXIT_OK
        report = capsys.readouterr().out.splitlines()
        report_rows = [line.split() for line in report[2:]]
        assert [r[0] for r in report_rows] == [r[0] for r in csv_rows]
        for (key, *cells), (_, *printed) in zip(csv_rows, report_rows):
            for cell, shown in zip(cells, printed):
                if cell in ("", "True", "False"):
                    assert shown == (cell or "-"), key
                else:
                    assert shown == f"{float(cell):.6e}", key

    def test_disjoint_pair_reported(self, tmp_path):
        # V = 0 keeps the mixed product zero for any perturbation, so the
        # structured constant is reported; with b = 0 it equals the
        # general one
        path = tmp_path / "disjoint.json"
        path.write_text(
            '{"u_squared": [[2.0, 0.0], [0.0, 3.0]], "v": [[0.0, 0.0], [0.0, 0.0]]}'
        )
        out = tmp_path / "bounds.csv"
        code = main(
            ["bounds", "--model", str(path), "--eta", "0.05", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = {r[0]: r for r in read_csv(out)[1:]}
        assert "kappa_disjoint" in rows
        assert float(rows["kappa_disjoint"][1]) > 0.0
        assert (
            float(rows["kappa_disjoint"][1])
            <= float(rows["kappa_general"][1]) + 1e-12
        )

    @pytest.mark.parametrize(
        "v, eta, seed",
        [
            ("[[1e-310, 0.0], [0.0, 2e-310]]", "1e-3", "0"),
            ("[[1e-300, 0.0], [0.0, 2e-300]]", "1.79e8", "4"),
        ],
        ids=["inverse-overflows", "nu-overflows"],
    )
    def test_overflowing_nu_is_absent(self, v, eta, seed, tmp_path, capsys):
        # V = diag(1e-310, 2e-310) has V^(-1) = diag(1e310, 5e309), which
        # overflows; V = diag(1e-300, 2e-300) does not, but with this dV
        # nu = ||dV V^(-1)|| exceeds the float range.  Either way nu and
        # kappa_relative are absent, the command succeeds, and no
        # RuntimeWarning is emitted
        path = tmp_path / "tiny_v.json"
        path.write_text('{"u_squared": [[2.0, 0.0], [0.0, 3.0]], "v": ' + v + "}")
        args = ["bounds", "--model", str(path), "--eta", eta, "--seed", seed]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args)
        captured = capsys.readouterr()
        assert code == EXIT_OK
        keys = [row[0] for row in csv.reader(captured.out.splitlines())]
        assert "kappa_general" in keys and "kappa_relative" not in keys
        assert captured.err == "" and caught == []


class TestSweepCommand:
    def test_critical_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--tau",
                "1",
                "--sweep-range",
                "1.5:2.2",
                "--steps",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        critical = [r for r in rows if r[0] == "critical"][0]
        assert abs(float(critical[1]) - 2.0) <= 1e-6

    @pytest.mark.parametrize("sweep_range", ["0:inf", "nan:1", "1:nan", "0:1e309"])
    def test_non_finite_range_end(self, sweep_range, capsys):
        args = ["sweep", "--tau", "1", "--sweep-range", sweep_range, "--steps", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: --sweep-range ends must be finite")

    def test_overflowing_potential_rejected_before_any_solve(
        self, monkeypatch, capsys
    ):
        # 1e308 V is finite but its symmetrization is not: the message of
        # the model validation, and no solve, hence no overflow warning
        solves = []
        spectra = harness.eigen_spectra

        def count(*args, **kwargs):
            solves.append(1)
            return spectra(*args, **kwargs)

        monkeypatch.setattr(harness, "eigen_spectra", count)
        args = ["sweep", "--tau", "1", "--sweep-range", "0:1e308", "--steps", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == "validation error: v contains non-finite entries\n"
        assert captured.out == "" and solves == []

    def test_bad_range(self, tmp_path):
        assert (
            main(["sweep", "--tau", "1", "--sweep-range", "oops", "--steps", "5"])
            == EXIT_PARSE
        )


class TestEachQuantityOnce:
    """No root of U outside kg bounds' H-frame rows, each norm taken once."""

    @staticmethod
    def u_roots(monkeypatch, order):
        """(pairs, decompositions): every U^(+-1/2) pair formed, and the
        order-``order`` symmetric eigendecompositions with vectors, the
        only kind of solve a root of U^2 could come from."""
        pairs, decompositions = [], []
        half_roots = ModelSpec.half_roots

        def spy_roots(self):
            pair = half_roots(self)
            if not any(pair[0] is seen[0] for seen in pairs):
                pairs.append(pair)
            return pair

        def spy(routine, with_vectors):
            def record(a, *args, **kwargs):
                if np.shape(a)[-1] == order and with_vectors(kwargs):
                    decompositions.append(routine.__name__)
                return routine(a, *args, **kwargs)

            return record

        monkeypatch.setattr(ModelSpec, "half_roots", spy_roots)
        monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh, lambda kw: True))
        monkeypatch.setattr(
            scipy.linalg,
            "eigh",
            spy(scipy.linalg.eigh, lambda kw: not kw.get("eigvals_only")),
        )
        for name in ("dsyevd", "dsyevr"):
            routine = getattr(scipy.linalg.lapack, name)
            monkeypatch.setattr(
                scipy.linalg.lapack, name, spy(routine, lambda kw: kw.get("compute_v", 1))
            )
        return pairs, decompositions

    @staticmethod
    def norm_calls(monkeypatch):
        calls = []
        norm = core.spectral_norm

        def count(a):
            calls.append(1)
            return norm(a)

        for name, module in list(sys.modules.items()):
            if name.startswith("kgbounds") and getattr(
                module, "spectral_norm", None
            ) is norm:
                monkeypatch.setattr(module, "spectral_norm", count)
        return calls

    @pytest.mark.parametrize(
        "command, pairs", [("verify", 0), ("bounds", 1)], ids=["verify", "bounds"]
    )
    def test_three_powers_and_six_norms(self, command, pairs, monkeypatch, capsys):
        # verify reads U only through L; kg bounds forms U^(1/2) and
        # U^(-1/2) once, from one order-n eigh, for ||dG|| and ||J1||
        formed, decompositions = self.u_roots(monkeypatch, 40)
        norms = self.norm_calls(monkeypatch)
        args = [command, "--alpha", "0.3", "--grid-points", "40", "--eta", "1e-3"]
        assert main(args) == EXIT_OK
        assert len(formed) == pairs
        assert decompositions == ["eigh"] * pairs
        assert len(norms) == 6

    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--alpha", "0.3", "--grid-points", "40"],
            ["sweep", "--tau", "1", "--paper-shift", "--sweep-range", "0:1",
             "--steps", "11"],
        ],
        ids=["spectrum", "sweep"],
    )
    def test_certified_commands_form_only_u_inverse(self, args, monkeypatch, capsys):
        # the contraction reads U^(-1) through L, and the spectra and the
        # residual gate stay in the K frame, which needs no root of U
        # (every step of the sweep has b <= 1/2 at the paper shift)
        order = 40 if "--alpha" in args else 2
        formed, decompositions = self.u_roots(monkeypatch, order)
        assert main(args) == EXIT_OK
        assert formed == [] and decompositions == []

    @pytest.mark.parametrize(
        "args, order",
        [
            (["spectrum", "--tau", "2.2"], 2),
            (["verify", "--tau", "1.7", "--paper-shift", "--eta", "0.3"], 2),
            (["reproduce", "example2"], 2),
            (["reproduce", "example1", "--grid-points", "40"], 40),
        ],
        ids=["spectrum-direct", "verify-direct", "example2", "example1"],
    )
    def test_no_root_of_u_on_either_path(self, args, order, monkeypatch, tmp_path, capsys):
        # direct rows solve the root-free L_g: the well beyond the critical
        # coupling, the verify row perturbed onto it, and example 2's cell
        # there; example 1 solves its pencil rows from L alone
        formed, decompositions = self.u_roots(monkeypatch, order)
        out = ["--out", str(tmp_path / ("o" if args[0] == "reproduce" else "o.csv"))]
        assert main(args + out) == EXIT_OK
        assert formed == [] and decompositions == []

    def test_sweep_forms_each_power_once(self, monkeypatch, capsys):
        # pencil and direct rows alike: no root of U at all
        formed, decompositions = self.u_roots(monkeypatch, 2)
        args = ["sweep", "--tau", "1", "--sweep-range", "0:2.2", "--steps", "101"]
        assert main(args) == EXIT_OK
        assert formed == [] and decompositions == []

    def test_certified_spectrum_never_forms_h(self, monkeypatch, tmp_path, capsys):
        # neither H nor G: the certified path runs no general eigensolve,
        # and the direct path one, on the root-free companion form
        # L_g = [[V, g I], [U^2 / g, V]], g = ||U||, not on H
        solved = []
        eig = np.linalg.eig

        def spy_eig(a):
            solved.append(np.array(a))
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", spy_eig)
        src = ["--alpha", "0.3", "--grid-points", "40", "--out", str(tmp_path / "o")]
        assert main(["spectrum", *src]) == EXIT_OK
        assert main(["bounds", *src, "--eta", "1e-3"]) == EXIT_OK
        assert main(["verify", *src, "--eta", "1e-3"]) == EXIT_OK
        assert main(["sweep", *src, "--sweep-range", "0:1", "--steps", "3"]) == EXIT_OK
        assert solved == []
        # the direct path, taken beyond the critical coupling, solves L_g once
        assert main(["spectrum", "--tau", "2.2"]) == EXIT_OK
        assert len(solved) == 1
        spec = square_well_model(2.2)
        g = np.sqrt(3.0)   # ||U||: the eigenvalues of U^2 are 1 and 3
        expected = np.block(
            [[spec.v, g * np.eye(2)], [spec.u_squared / g, spec.v]]
        )
        np.testing.assert_allclose(solved[0][0], expected, rtol=1e-15, atol=0)


class TestResidualGate:
    def test_no_singular_value_oracle_calls(self, monkeypatch, tmp_path):
        # the gate reads eigenpair backward errors; pencil_residual, one
        # SVD per eigenvalue, is left to the tests
        calls = []
        oracle = spectral.pencil_residual

        def count(*args, **kwargs):
            calls.append(1)
            return oracle(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("kgbounds") and getattr(
                module, "pencil_residual", None
            ) is oracle:
                monkeypatch.setattr(module, "pencil_residual", count)
        src = ["--alpha", "0.3", "--grid-points", "40", "--out", str(tmp_path / "o")]
        assert main(["spectrum", *src]) == EXIT_OK
        assert main(["verify", *src, "--eta", "1e-3"]) == EXIT_OK
        assert main(["sweep", *src, "--sweep-range", "0:1", "--steps", "3"]) == EXIT_OK
        assert calls == []

    def test_nan_residual_fails(self, monkeypatch, capsys):
        def nan(spec, lams, vecs):
            return np.full(len(lams), np.nan)

        monkeypatch.setattr(cli, "eigenpair_residuals", nan)
        assert main(["spectrum", "--tau", "1"]) == EXIT_SOLVER
        assert "pencil residual nan exceeds the gate" in capsys.readouterr().err

    def test_sweep_names_the_failing_eigenvalue(self, monkeypatch, capsys):
        # a residual failing at a smallest-modulus eigenvalue: the message
        # names it, not the largest-modulus eigenvalue of its row
        residuals = harness.eigenpair_residuals

        def fail_smallest(spec, lams, vecs, *potentials):
            # per row of a stacked block
            r = residuals(spec, lams, vecs, *potentials)
            smallest = np.argmin(np.abs(lams), axis=-1)[..., None]
            np.put_along_axis(r, smallest, 1.0, axis=-1)
            return r

        monkeypatch.setattr(harness, "eigenpair_residuals", fail_smallest)
        args = ["sweep", "--tau", "1", "--sweep-range", "0:1", "--steps", "3"]
        assert main(args) == EXIT_SOLVER
        err = capsys.readouterr().err
        found = re.search(r"at sweep parameter 0\.0, eigenvalue (\S+):", err)
        assert found, err
        assert abs(complex(found.group(1))) == pytest.approx(1.0, abs=1e-12)


def reference_gate_message(spec, row_name, checks):
    """The residual gate as a loop over (row, lam, residual, t, cause)."""
    u2_norm, v_norm = spec.u_max**2, spectral_norm(spec.v)
    for row, lam, resid, t, cause in checks:
        limit = cli.RESIDUAL_GATE * (
            u2_norm + (abs(t) * v_norm) ** 2 + abs(complex(lam)) ** 2
        )
        if not resid <= limit:
            return (
                f"solver failure: at {row_name} {row}, eigenvalue {lam:.17g}: "
                f"pencil residual {resid:.6e} exceeds the gate {limit:.6e}"
                + (f" ({cause})" if cause else "")
                + "\n"
            )
    return ""


class TestStackedGate:
    @pytest.mark.parametrize("fill", [1e-3, np.nan])
    def test_sweep_names_the_first_failure_in_row_order(
        self, fill, monkeypatch, capsys
    ):
        # failures planted at every eigenvalue right of 1 from t = 1.1 on:
        # the first in row-major order is named, as by the loop
        residuals = harness.eigenpair_residuals

        def plant(spec, lams, vecs, potentials):
            r = residuals(spec, lams, vecs, potentials)
            t = potentials[:, 0, 0] / spec.v[0, 0]
            r[(t[:, None] >= 1.1) & (np.real(lams) > 1.0)] = fill
            return r

        monkeypatch.setattr(harness, "eigenpair_residuals", plant)
        spec = square_well_model(1.0)
        result = harness.sweep_potential(spec, 0.0, 2.2, 201)
        checks = (
            (t, lam, r, t, "")
            for t, eigs, resids in zip(
                result.parameters, result.eigenvalues, result.residuals
            )
            for lam, r in zip(eigs, resids)
        )
        expected = reference_gate_message(spec, "sweep parameter", checks)
        assert expected
        args = ["sweep", "--tau", "1", "--sweep-range", "0:2.2", "--steps", "201"]
        assert main(args) == EXIT_SOLVER
        assert capsys.readouterr().err == expected

    def test_verify_names_the_worse_residual_and_its_cause(self, capsys):
        # eta = 0.35 perturbs the well past tau = 2: the message is the
        # loop's, over the larger residual of each pair
        args = ["verify", "--tau", "1.7", "--paper-shift", "--eta", "0.35"]
        assert main(args) == EXIT_SOLVER
        err = capsys.readouterr().err
        spec = square_well_model(1.7)
        report = verify_bounds(spec, square_well_perturbation(-0.35), -0.85)
        checks = (
            (k, lam, rp, 1.0, "the perturbed spectrum is not real")
            if rp > r
            else (k, lam, r, 1.0, "")
            for k, (lam, r, rp) in enumerate(
                zip(report.eigenvalues, report.residuals, report.residuals_perturbed)
            )
        )
        assert err == reference_gate_message(spec, "index", checks)


class TestReproduceCommand:
    def test_example2_files(self, tmp_path, capsys):
        code = main(["reproduce", "example2", "--out", str(tmp_path)])
        assert code == EXIT_OK
        true_rows = read_csv(tmp_path / "example2_true_distances.csv")[1:]
        cell = {(float(r[0]), float(r[1])): float(r[2]) for r in true_rows}
        assert f"{cell[(1.0, 0.1)]:.4e}" == "1.3409e-01"
        bound_rows = read_csv(tmp_path / "example2_bounds.csv")[1:]
        bcell = {(float(r[0]), float(r[1])): float(r[2]) for r in bound_rows}
        assert f"{bcell[(0.0, 0.3)]:.4e}" == "3.0000e-01"
        report = (tmp_path / "example2_report.txt").read_text()
        assert "0.745" in report
        assert capsys.readouterr().out  # report echoed to stdout


    def test_example1_files_at_reduced_resolution(self, tmp_path, capsys):
        code = main(
            [
                "reproduce",
                "example1",
                "--grid-points",
                "80",
                "--half-width",
                "9",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "example1_table.csv")
        assert len(rows) == 1 + 18  # header + 6 parameter pairs x 3 modes
        report = (tmp_path / "example1_report.txt").read_text()
        assert "first-order sensitivity" in report
        capsys.readouterr()


class TestExitCodes:
    def test_missing_model_file(self):
        assert main(["spectrum", "--model", "/nonexistent/nope.json"]) == EXIT_PARSE

    def test_malformed_model_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["spectrum", "--model", str(path)]) == EXIT_PARSE

    def test_invalid_matrix_data(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"u_squared": [[1.0, 0.0], [0.0, -1.0]], "v": [[0.0, 0.0], [0.0, 0.0]]}'
        )
        assert main(["spectrum", "--model", str(path)]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "doc, field",
        [
            ('{"model": "harmonic", "alpha": "abc"}', "alpha"),
            ('{"model": "square_well", "tau": [1, 2]}', "tau"),
            ('{"model": "square_well", "tau": true}', "tau"),
            ('{"model": "harmonic", "alpha": "0.3", "grid_points": 10}', "alpha"),
            (
                '{"model": "harmonic", "alpha": 0.3, "beta": false, "grid_points": 10}',
                "beta",
            ),
            (
                '{"model": "harmonic", "alpha": 0.3, "half_width": "8", '
                '"grid_points": 10}',
                "half_width",
            ),
            (
                '{"model": "harmonic", "alpha": 0.3, "grid_points": "ten"}',
                "grid_points",
            ),
        ],
    )
    def test_non_numeric_family_field(self, doc, field, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        assert main(["spectrum", "--model", str(path)]) == EXIT_PARSE
        assert f'field "{field}"' in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--tau", "1", "--format", "report"],
            ["spectrum", "--tau", "1", "--seed", "3"],
            ["verify", "--tau", "1", "--eta", "0.1", "--format", "report"],
            ["sweep", "--tau", "1", "--sweep-range", "0:1", "--seed", "3"],
        ],
    )
    def test_option_of_another_command(self, args, capsys):
        # --seed belongs to bounds and verify, --format to bounds alone
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == EXIT_PARSE

    @pytest.mark.parametrize("value", ["10.7", "true", '"10"'])
    def test_non_integral_grid_points(self, value, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            f'{{"model": "harmonic", "alpha": 0.3, "grid_points": {value}}}'
        )
        assert main(["spectrum", "--model", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert 'field "grid_points" must be an integral number' in err

    def test_two_model_sources(self):
        assert main(["spectrum", "--tau", "1", "--alpha", "0.3"]) == EXIT_PARSE

    def test_solver_error_maps_to_solver_code(self):
        # bounds at contraction >= 1: no constant is defined
        assert (
            main(["bounds", "--tau", "2.5", "--eta", "0.1", "--shift", "-1.25"])
            == EXIT_SOLVER
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command",
        [
            ["spectrum"],
            ["bounds", "--eta", "0.1"],
            ["sweep", "--sweep-range", "0:1", "--steps", "3"],
        ],
        ids=["spectrum", "bounds", "sweep"],
    )
    def test_non_finite_shift(self, command, value, capsys):
        args = [command[0], "--tau", "1", f"--shift={value}", *command[1:]]
        assert main(args) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and "--shift" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["bounds", "verify"])
    @pytest.mark.parametrize(
        "source",
        [["--tau", "1"], ["--alpha", "0.3", "--grid-points", "10"]],
        ids=["well", "oscillator"],
    )
    def test_non_finite_eta(self, source, command, value, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, *source, f"--eta={value}"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"parse error: --eta must be a finite number, got {value}\n"

    def test_random_perturbation_range_overflows(self, capsys):
        # 2 * 1.7e308 overflows: the uniform draw on [-eta, eta] has no range
        args = ["verify", "--alpha", "0.3", "--grid-points", "10", "--eta", "1.7e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: scale 1.7e+308 is out of range")

    @pytest.mark.parametrize("eta", ["2e158", "5e158"])
    def test_overflowing_c_is_a_validation_error(self, eta, tmp_path, capsys):
        # ||U^(-1)|| = 1e150 and dV of scale 2e158: c = ||dV U^(-1)||
        # exceeds the float range; at 5e158 the entries of dV U^(-1) do
        path = tmp_path / "tiny_u.json"
        path.write_text(
            '{"u_squared": [[1e-300, 0.0], [0.0, 2e-300]], '
            '"v": [[0.0, 0.0], [0.0, 0.0]]}'
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bounds", "--model", str(path), "--eta", eta])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "c = ||dV U^(-1)|| = inf" in err

    @pytest.mark.parametrize("command", ["bounds", "verify"])
    @pytest.mark.parametrize(
        "model",
        [
            # V U^(-1) = diag(1e450, 0) overflows: b = inf
            '{"u_squared": [[1e-300, 0.0], [0.0, 2e-300]], '
            '"v": [[1e300, 0.0], [0.0, 0.0]]}',
            # U^(-1) has entries of both signs: each entry of V U^(-1) sums
            # an inf and a -inf, which gives inf or nan by the BLAS's order
            # of accumulation; both are rejected by gap_bound
            '{"u_squared": [[1.5e-300, 0.5e-300], [0.5e-300, 1.5e-300]], '
            '"v": [[1e300, 1e300], [1e300, 1e300]]}',
        ],
        ids=["diagonal", "mixed-signs"],
    )
    def test_infinite_contraction_is_a_solver_failure(
        self, command, model, tmp_path, capsys
    ):
        path = tmp_path / "huge_b.json"
        path.write_text(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--model", str(path), "--eta", "1"])
        assert code == EXIT_SOLVER
        assert re.fullmatch(
            r"solver error: contraction b = (inf|nan) is not < 1\n",
            capsys.readouterr().err,
        )

    @pytest.mark.parametrize("command", ["bounds", "verify"])
    def test_uncertified_valid_model_is_a_solver_failure(self, command, capsys):
        # b = 1 - 5e-14 < 1 at the paper shift: valid data, but too close
        # to the critical coupling for the certificate, so the exact pair
        # does not exist; b is printed to 17 digits, not rounded to 1
        args = [command, "--tau", "1.9999999999999", "--paper-shift", "--eta", "0.1"]
        assert main(args) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver error:")
        assert float(re.search(r"b = (\S+)", err).group(1)) < 1.0

    def test_perturbation_overflowing_its_symmetrization(self, capsys):
        # dV = diag(-1.7e308, 0) is finite, but dV + dV^T is not: rejected
        # when the perturbation is built, before anything is measured
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["bounds", "--tau", "1", "--eta", "1.7e308"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "validation error: delta_v contains non-finite entries\n"
        assert caught == []

    @pytest.mark.parametrize("n", [4, 40])
    def test_optimize_shift_on_an_overflowing_potential(self, n, tmp_path, capsys):
        # (V U^(-1))^T (V U^(-1)) overflows for V of scale 1e200: the shift
        # search runs on V / 2^k, and the optimal b is far from below one
        e = np.eye(n, k=1)
        spec = ModelSpec(
            u_squared=3.0 * np.eye(n) - e - e.T,
            v=np.diag(np.linspace(-1e200, 1e200, n)),
        )
        path = tmp_path / "huge_v.json"
        save_model(spec, path)
        args = ["bounds", "--model", str(path), "--eta", "0.1", "--optimize-shift"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args)
        assert code == EXIT_SOLVER and caught == []
        err = capsys.readouterr().err
        assert err.startswith("solver error: contraction b = ")
        assert 1e199 < float(re.search(r"b = (\S+)", err).group(1)) < 1e201

    def test_overflowing_hamiltonian_on_the_direct_path(self, capsys):
        # the perturbed potential is finite, but the norm of its companion
        # form L_g is beyond the direct path's range: refused before eig
        args = ["verify", "--alpha", "0.3", "--grid-points", "10", "--eta", "8.9e307"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(args)
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and "||L_g|| = " in err
        assert "is not below 2^510" in err

    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    def test_eigenvalues_near_1e300_are_refused(self, command, tmp_path, capsys):
        # U^2 = diag(1e-300, 2e-300), V = diag(1e300, 0): b is beyond the
        # float range, and the direct path's L_g has norm 1e300 > 2^510,
        # so it is refused, with no overflow in the residuals or the gate
        path = tmp_path / "huge_lam.json"
        path.write_text(
            '{"u_squared": [[1e-300, 0.0], [0.0, 2e-300]], '
            '"v": [[1e300, 0.0], [0.0, 0.0]]}'
        )
        args = [command, "--model", str(path)]
        if command == "sweep":
            args += ["--sweep-range", "0.5:1", "--steps", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(args)
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"solver error: the direct eigensolver's companion form is out of "
            r"range: \|\|L_g\|\| = \S+ is not below 2\^510\n",
            err,
        )
        assert float(re.search(r"= (\S+) is", err).group(1)) >= 2.0**510

    def test_direct_path_just_below_the_range_limit(self, tmp_path, capsys):
        # U^2 = diag(2^1000, 2^1001) and V = diag(2^505, 0): b = 32 takes
        # the direct path, with ||L_g|| just below 2^510.  The eigenvalues
        # 2^505 +- 2^500 square to about 2^1010, and Q(lam) x, whose
        # squares leave the float range, the residuals and the gate stay
        # finite, with no warning
        path = tmp_path / "large_lam.json"
        path.write_text(
            f'{{"u_squared": [[{2.0**1000!r}, 0.0], [0.0, {2.0**1001!r}]], '
            f'"v": [[{2.0**505!r}, 0.0], [0.0, 0.0]]}}'
        )
        out = tmp_path / "spec.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["spectrum", "--model", str(path), "--out", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
        rows = read_csv(out)[1:]
        residuals = [float(r[4]) for r in rows]
        assert all(np.isfinite(residuals))
        top = 2.0**505 + 2.0**500
        assert max(abs(float(r[1])) for r in rows) == pytest.approx(top, rel=1e-12)

    def test_paper_shift_requires_square_well(self, tmp_path):
        path = tmp_path / "free.json"
        save_model(square_well_model(1.0), path)
        assert (
            main(["spectrum", "--model", str(path), "--paper-shift"])
            == EXIT_VALIDATION
        )


class TestCsvOutput:
    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--alpha", "0.3", "--grid-points", "12"],
            ["bounds", "--tau", "1", "--paper-shift", "--eta", "0.1"],
            ["verify", "--tau", "1", "--paper-shift", "--eta", "0.1"],
            ["sweep", "--tau", "1", "--sweep-range", "0:2.2", "--steps", "11"],
        ],
    )
    def test_stdout_and_file_give_the_same_bytes(self, args, tmp_path, capsys):
        assert main(args) == EXIT_OK
        printed = capsys.readouterr().out.encode("utf-8")
        out = tmp_path / "out.csv"
        assert main(args + ["--out", str(out)]) == EXIT_OK
        written = out.read_bytes()
        assert written == printed
        assert written.endswith(b"\n") and b"\r" not in written

    def test_reproduce_tables_have_lf_endings(self, tmp_path, capsys):
        assert main(["reproduce", "example2", "--out", str(tmp_path)]) == EXIT_OK
        for name in ("example2_true_distances.csv", "example2_bounds.csv"):
            data = (tmp_path / name).read_bytes()
            assert data.count(b"\n") > 1 and b"\r" not in data


def test_parser_built_once_per_process(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def count():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", count)
    cli._parser.cache_clear()
    assert main(["spectrum", "--tau", "1"]) == EXIT_OK
    assert main(["bounds", "--tau", "0.5", "--eta", "0.1"]) == EXIT_OK
    assert len(built) == 1


def test_cold_start_does_not_import_scipy_optimize():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = "import sys, kgbounds.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
