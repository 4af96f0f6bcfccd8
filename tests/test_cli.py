import csv
import dataclasses
import functools
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from kgbounds import (
    HarmonicParams,
    KleinGordonSystem,
    bounds as bounds_module,
    ModelSpec,
    assemble_system,
    cli,
    core,
    eigen_spectrum,
    harmonic_model,
    harness,
    norm_bound_interval,
    random_perturbation,
    save_model,
    spectral,
    spectral_norm,
    square_well_model,
    square_well_perturbation,
    verify_bounds,
)
from kgbounds.cli import EXIT_OK, EXIT_PARSE, EXIT_SOLVER, EXIT_VALIDATION, main
from conftest import random_model
from oracles import eigenpairs, h_frame, j_matrix


def _fmt(x) -> str:
    """A real cell as the CLI writes it: 17 significant digits."""
    return format(float(x), ".17g")


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
        # the failing residual is the perturbed pair's, and the message
        # names its eigenvalue, the real part of a complex pair of V + dV
        assert capsys.readouterr().err == (
            "solver failure: at index 1, eigenvalue -1.1944657990885197: "
            "pencil residual 7.972608e-01 exceeds the gate 7.316749e-06 "
            "(perturbed eigenvalue -1.0250000000000004; "
            "the perturbed spectrum is not real)\n"
        )

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
    def test_order_one_model(self, tmp_path):
        # an order-1 U^2 is decomposed by a dense eigh (dstevd takes no
        # empty off-diagonal); X = U^(1/2) dV U^(-1/2) is dV itself, and
        # ||J1|| is that of the H-frame eigenvectors of oracles.h_frame
        spec = ModelSpec([[2.5]], [[0.7]])
        path, out = tmp_path / "one.json", tmp_path / "bounds.csv"
        save_model(spec, path)
        args = ["bounds", "--model", str(path), "--shift", "0", "--eta", "1e-3",
                "--seed", "1", "--out", str(out)]
        assert main(args) == EXIT_OK
        rows = {r[0]: r[1:] for r in read_csv(out)[1:]}
        dv = abs(random_perturbation(1, 1e-3, 1).delta_v[0, 0])
        assert abs(float(rows["perturbation_norm"][0]) - dv) <= 2 * np.spacing(dv)
        report = eigen_spectrum(assemble_system(spec, 0.0))
        y = h_frame(spec, eigenpairs(spec)[1]) / np.sqrt(np.abs(report.signatures))
        norm_j1 = spectral_norm(y @ (j_matrix(spec.order) @ y).T)
        assert norm_j1 > 1.0
        expected = norm_bound_interval(report.central_gap, dv, norm_j1)
        uniform = [float(x) for x in rows["interval_uniform"]]
        np.testing.assert_allclose(uniform, expected, rtol=1e-15)

    def test_one_pencil_solve_and_no_2n_validation(self, monkeypatch, capsys):
        # the oscillator's U^2 is tridiagonal and V diagonal: the order-64
        # U^2 is validated by its banded Cholesky factorization (dpbtrf,
        # of its two diagonals), the contraction
        # is bisected on dpttrf alone, one dpttrf of -Q(mu) - beta I
        # proves the pencil definite (spectral._proven_definite), and the
        # one pencil solve factors
        # the tridiagonal -Q(mu) by dpttrf and bisects the tridiagonal T
        # of order 128 for its two eigenvalues nearest the shift (dstebz).
        # sign_operator solves the same T, from the same factor (no second
        # dpttrf), by dstevd, forms x of its positive half by one banded
        # solve and takes ||Gamma|| at order 64; nothing of order 128 is
        # reduced to tridiagonal form (the one order-128 dsytrd is the
        # exact kappa pair's)
        lapack_calls, pencil_calls, sign_calls, bisections = [], [], [], []
        proofs = []

        def count_pencil(*args, **kwargs):
            start = len(lapack_calls)
            result = k_frame(*args, **kwargs)
            pencil_calls.append(lapack_calls[start:])
            return result

        def count_proof(*args, **kwargs):
            start = len(lapack_calls)
            result = proven(*args, **kwargs)
            proofs.append(lapack_calls[start:])
            return result

        def count_sign(*args, **kwargs):
            start = len(lapack_calls)
            result = sign(*args, **kwargs)
            sign_calls.append(lapack_calls[start:])
            return result

        def count_bisection(*args, **kwargs):
            start = len(lapack_calls)
            result = banded(*args, **kwargs)
            bisections.append(lapack_calls[start:])
            del lapack_calls[start:]
            return result

        def spy(name):
            routine = getattr(scipy.linalg.lapack, name)

            def record(a, *args, **kwargs):
                lapack_calls.append((name, np.shape(a)[-1]))
                return routine(a, *args, **kwargs)

            monkeypatch.setattr(scipy.linalg.lapack, name, record)

        k_frame, banded = spectral._k_frame_eigensolve, core._banded_contraction
        sign, proven = bounds_module.sign_operator, spectral._proven_definite
        monkeypatch.setattr(spectral, "_k_frame_eigensolve", count_pencil)
        monkeypatch.setattr(spectral, "_proven_definite", count_proof)
        monkeypatch.setattr(bounds_module, "sign_operator", count_sign)
        monkeypatch.setattr(core, "_banded_contraction", count_bisection)
        names = ("dpotrf", "dpbtrf", "dpttrf", "dsytrd", "dsyevd", "dstevd", "dstebz")
        for name in names + ("dtrtrs", "dtbtrs"):
            spy(name)
        args = ["bounds", "--alpha", "0.3", "--grid-points", "64", "--eta", "1e-3"]
        assert main(args) == EXIT_OK
        assert proofs == [[("dpttrf", 64)]]
        assert pencil_calls == [[("dpttrf", 64), ("dstebz", 128)]]
        assert sign_calls == [
            [("dstevd", 128), ("dtbtrs", 64), ("dsytrd", 64), ("dstebz", 64)]
        ]
        # one bisection, about 53 + log2 cond(U^2) steps
        assert len(bisections) == 1 and 50 <= len(bisections[0]) <= 70
        assert set(bisections[0]) == {("dpttrf", 64)}
        factored = [c for c in lapack_calls if c[0] in ("dpotrf", "dpbtrf", "dpttrf")]
        assert factored == [("dpbtrf", 64), ("dpttrf", 64), ("dpttrf", 64)]
        assert [c for c in lapack_calls if c[1] == 128] == [
            ("dstebz", 128), ("dsytrd", 128), ("dstebz", 128), ("dstebz", 128),
            ("dstevd", 128),
        ]

    def test_reductions_of_the_optimized_bounds(self, monkeypatch, tmp_path):
        # every dense symmetric eigen-reduction kg bounds --optimize-shift
        # runs at N = 160, by routine and order: the one full solve of the
        # shift search (dsyevr), c, nu, the mixed product, ||dV||, the
        # exact pair at order 2n, ||dG|| and ||Gamma||.  U^2's eigenbasis,
        # in which the ||dG|| and ||J1|| rows are taken, comes from its
        # two diagonals (dstevd of order 160), and nu from the rows of dV
        # divided by the diagonal V (no dsysv).  The bracket's extremes of
        # the diagonal V are its extreme entries, the ends of the spectrum
        # of the tridiagonal U^2 that validate it and the contraction are
        # bisected on its own diagonals, the spectrum's two eigenvalues
        # nearest the shift are bisected on the tridiagonal T (dstebz),
        # and sign_operator solves that T with vectors (dstevd): no eigh,
        # no dsyevd and no other order-2n dsytrd.  The exact pair's order-2n matrix is
        # F^(-1) dK F^(-T), formed from the pencil factor by banded solves:
        # no rank-2n update (dsyr2k) of the eigenvectors
        calls, updates = [], []

        def spy(module, name):
            routine = getattr(module, name)

            def record(a, *args, **kwargs):
                calls.append((name, np.shape(a)[-1]))
                return routine(a, *args, **kwargs)

            monkeypatch.setattr(module, name, record)

        def spy_update(*args, **kwargs):
            c = syr2k(*args, **kwargs)
            updates.append(c.shape)
            return c

        for name in ("dsytrd", "dsyevd", "dsyevr", "dstevd", "dsysv"):
            spy(scipy.linalg.lapack, name)
        for name in ("eigh", "eigvalsh"):
            spy(np.linalg, name)
        syr2k = scipy.linalg.blas.dsyr2k
        monkeypatch.setattr(scipy.linalg.blas, "dsyr2k", spy_update)
        args = ["bounds", "--alpha", "0.3", "--grid-points", "160", "--optimize-shift"]
        args += ["--eta", "1e-3", "--out", str(tmp_path / "bounds.csv")]
        assert main(args) == EXIT_OK
        assert sorted(calls) == sorted(
            [("dstevd", 160), ("dsyevr", 160), ("dstevd", 320), ("dsytrd", 320)]
            + [("dsytrd", 160)] * 6
        )
        assert updates == []

    @pytest.mark.parametrize("command, solves", [("bounds", 1), ("verify", 2)])
    def test_one_cholesky_per_system(self, command, solves, monkeypatch, capsys):
        # one n x n Cholesky factorization of U^2 - (V - mu)^2 certifies
        # and reduces the pencil of each (model, shift): for the
        # oscillator, whose -Q(mu) is tridiagonal, dpttrf's O(n) one
        # (recorded by its diagonal, of shape (64,)), after the one
        # dpttrf of -Q(mu) - beta I that proves it definite
        # (spectral._proven_definite); for the perturbed
        # model of verify, whose random dV is dense, dpotrf's, after the
        # dpotrf of -Q(mu) - cI that proves it definite.  The exact
        # kappa pair is read off the same solve's factor M, and no
        # generalized eigensolve runs.  The first factorization is that
        # of U^2, which validates the model and is shared by the
        # perturbed model: dpbtrf's banded one of the tridiagonal U^2
        # (recorded by its band, of shape (2, 64)).  The oscillator's
        # contraction is one bisection on dpttrf's success for
        # s U^2 - W^2, every test of order 64
        generalized, shapes, bisections = [], [], []
        eigh = scipy.linalg.eigh
        banded = core._banded_contraction

        def count_bisection(*args, **kwargs):
            start = len(shapes)
            result = banded(*args, **kwargs)
            bisections.append(shapes[start:])
            del shapes[start:]
            return result

        def spy_eigh(a, b=None, *args, **kwargs):
            if b is not None:
                generalized.append(np.shape(b))
            return eigh(a, b, *args, **kwargs)

        def spy_cholesky(factor):
            # one entry per factored matrix, also within a stack
            def record(a, *args, **kwargs):
                shape = np.shape(a)
                shapes.extend([shape[-2:]] * int(np.prod(shape[:-2])))
                return factor(a, *args, **kwargs)

            return record

        monkeypatch.setattr(scipy.linalg, "eigh", spy_eigh)
        monkeypatch.setattr(core, "_banded_contraction", count_bisection)
        for module, name in [
            (scipy.linalg.lapack, "dpotrf"),
            (scipy.linalg.lapack, "dpbtrf"),
            (scipy.linalg.lapack, "dpttrf"),
            (scipy.linalg, "cholesky"),
            (scipy.linalg, "cho_factor"),
            (np.linalg, "cholesky"),
        ]:
            monkeypatch.setattr(module, name, spy_cholesky(getattr(module, name)))
        args = [command, "--alpha", "0.3", "--grid-points", "64", "--eta", "1e-3"]
        assert main(args) == EXIT_OK
        assert generalized == []
        assert shapes == [(2, 64), (64,), (64,)] + [(64, 64)] * 2 * (solves - 1)
        assert len(bisections) == 1 and set(bisections[0]) == {(64,)}

    def test_memory_budget(self, capsys):
        # kg bounds at N = 160 holds at most three order-2n arrays' worth
        # of traced allocations at once (2408003 bytes measured, 2.94 of
        # them, while the spectrum kept its eigenvectors Z; 3018707 while
        # the spec kept its dense U^2, V and L): the pair's
        # S = F^(-1) dK F^(-T), reduced in place, sign_operator's Y and the
        # n x n dV; the spec keeps bands alone and each solve writes its
        # order-2n result where it lies
        n = 160
        args = ["bounds", "--alpha", "0.3", "--grid-points", str(n), "--eta", "1e-3"]
        assert main(args) == EXIT_OK   # imports and first-call set-up
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(args) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * (2 * n) ** 2

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


#: the constants of ``kg verify``'s bound rows, by model: the well's V is
#: singular (no kappa_relative), and V * dV is semidefinite there
_WELL_KAPPAS = [
    "kappa_general", "kappa_sum", "kappa_norm_product", "kappa_signed", "kappa_exact"
]
_RELATIVE_KAPPAS = [
    "kappa_general", "kappa_sum", "kappa_norm_product", "kappa_relative", "kappa_exact"
]


def _bounds_keys(kappas):
    """The keys of ``kg bounds``: each pair split, the rescaled pair last."""
    split = [
        key
        for name in kappas
        for key in (
            [f"{name}_minus", f"{name}_plus"]
            if name in ("kappa_signed", "kappa_exact")
            else [name]
        )
    ]
    return [
        "contraction_b", "c_norm", "gap_alpha", "central_gap",
        *split, "kappa0_hat", "kappa_prime_hat",
        "interval_plain", "interval_improved", "interval_uniform", "perturbation_norm",
    ]


class TestTableOrder:
    @pytest.mark.parametrize(
        "source, kappas",
        [
            (["--tau", "1", "--shift", "0", "--eta", "0.1"], _WELL_KAPPAS),
            (["--tau", "1", "--paper-shift", "--eta", "0.1"], _WELL_KAPPAS),
            (["--tau", "1", "--optimize-shift", "--eta", "0.1"], _WELL_KAPPAS),
            (["--model", "{tmp}/random5.json", "--eta", "1e-3"], _RELATIVE_KAPPAS),
            (["--alpha", "0.3", "--grid-points", "24", "--eta", "1e-3"],
             _RELATIVE_KAPPAS),
            (["--alpha", "0.985", "--grid-points", "24", "--eta", "1e-3"],
             _RELATIVE_KAPPAS),
        ],
        ids=["well-zero", "well-paper", "well-optimized", "random5", "alpha0.3",
             "alpha0.985"],
    )
    def test_bounds_and_verify_keys(self, source, kappas, tmp_path):
        rng = np.random.Generator(np.random.PCG64(5))
        root = rng.standard_normal((5, 5))
        v = rng.uniform(-1.0, 1.0, size=(5, 5))
        spec = ModelSpec(root @ root.T + 5.0 * np.eye(5), 0.3 * (v + v.T))
        save_model(spec, tmp_path / "random5.json")
        source = [a.format(tmp=tmp_path) for a in source]
        out = tmp_path / "out.csv"
        assert main(["bounds", *source, "--out", str(out)]) == EXIT_OK
        assert [row[0] for row in read_csv(out)[1:]] == _bounds_keys(kappas)
        assert main(["verify", *source, "--out", str(out)]) == EXIT_OK
        bound_keys = [row[1] for row in read_csv(out)[1:] if row[0] == "bound"]
        assert bound_keys == kappas


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

    def test_non_real_rows_are_not_defective(self, tmp_path):
        # the well past tau = 2 has simple eigenvalues, a non-real pair
        # among them: no row is defective
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--tau", "1", "--sweep-range", "2.1:2.3", "--steps", "3"]
        assert main(args + ["--out", str(out)]) == EXIT_OK
        points = [row for row in read_csv(out) if row[0] == "point"]
        assert [row[2:4] for row in points] == [["False", "False"]] * 3

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

    def test_contraction_just_below_one_is_not_defective(self, tmp_path):
        # b = 1 - 1e-13 on both rows: a real, semisimple spectrum that the
        # pencil certifies (a proven -Q(mu) > 0), with no witness
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--alpha", "1.0", "--grid-points", "24", "--sweep-range",
                "1.000386940043096:1.000386940043097", "--steps", "2"]
        assert main(args + ["--out", str(out)]) == EXIT_OK
        points = [row for row in read_csv(out) if row[0] == "point"]
        assert [row[2:4] for row in points] == [["True", "False"]] * 2
        out = tmp_path / "spectrum.csv"
        args = ["spectrum", "--alpha", "1.000386940043097", "--grid-points", "24"]
        assert main(args + ["--out", str(out)]) == EXIT_OK
        signs = [row[3] for row in read_csv(out)[1:]]
        assert signs == ["negative"] * 24 + ["positive"] * 24


class TestContractionOnlyWhereRead:
    """kg spectrum and kg sweep route every row on a proven -Q(mu) > 0 and
    compute no b; kg bounds and kg verify compute it once, and kg bounds
    prints core.contraction's, bit for bit."""

    @staticmethod
    def spy(monkeypatch):
        entered, contraction = [], core.contraction

        def record(*args, **kwargs):
            entered.append(1)
            return contraction(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("kgbounds") and getattr(module, "contraction", None) is contraction:
                monkeypatch.setattr(module, "contraction", record)
        return entered

    @pytest.mark.parametrize("args", [
        ["sweep", "--alpha", "0.3", "--grid-points", "24", "--sweep-range", "0:1",
         "--steps", "21"],
        ["sweep", "--alpha", "0.985", "--grid-points", "24", "--sweep-range", "0:1.2",
         "--steps", "13"],
        ["spectrum", "--alpha", "0.3", "--grid-points", "80"],
    ])
    def test_banded_spectra_never_compute_b(self, args, monkeypatch, tmp_path):
        entered = self.spy(monkeypatch)
        assert main(args + ["--out", str(tmp_path / "out.csv")]) == EXIT_OK
        assert entered == []

    @staticmethod
    def dense_model(tmp_path):
        spec, _ = random_model(np.random.Generator(np.random.PCG64(6)), n=6)
        save_model(spec, tmp_path / "model.json")
        return ["--model", str(tmp_path / "model.json")]

    @pytest.mark.parametrize("command", [
        ["spectrum"], ["sweep", "--sweep-range", "0:1.5", "--steps", "7"],
    ], ids=["spectrum", "sweep"])
    @pytest.mark.parametrize("model", ["well", "dense"])
    def test_dense_spectra_never_compute_b(self, command, model, monkeypatch, tmp_path):
        # the 2 x 2 well over couplings past b = 1, and a dense model of
        # order 6: dense pencil and direct rows alike read no contraction
        args = ["--tau", "1"] if model == "well" else self.dense_model(tmp_path)
        if model == "well" and command[0] == "sweep":
            command = ["sweep", "--sweep-range", "0:2.2", "--steps", "23"]
        entered = self.spy(monkeypatch)
        assert main(command + args + ["--out", str(tmp_path / "out.csv")]) == EXIT_OK
        assert entered == []

    @pytest.mark.parametrize("command", ["bounds", "verify"])
    @pytest.mark.parametrize("model", ["well", "dense"])
    def test_bounds_and_verify_compute_b_once(self, command, model, monkeypatch, tmp_path):
        # the unperturbed model's b, printed or in the constants; verify's
        # perturbed spectrum is routed on its proof alone
        args = ["--tau", "1", "--eta", "0.1"] if model == "well" else (
            self.dense_model(tmp_path) + ["--eta", "1e-3"])
        entered = self.spy(monkeypatch)
        assert main([command] + args + ["--out", str(tmp_path / "out.csv")]) == EXIT_OK
        assert entered == [1]

    def test_near_critical_well_takes_the_pencil(self, tmp_path):
        # b = 1 - 5e-14 at the paper shift: proven, so the spectrum is
        # certified real and semisimple, with no neutral sign type
        out = tmp_path / "spectrum.csv"
        args = ["spectrum", "--tau", "1.9999999999999", "--paper-shift", "--out", str(out)]
        assert main(args) == EXIT_OK
        assert [row[3] for row in read_csv(out)[1:]] == ["negative"] * 2 + ["positive"] * 2

    @pytest.mark.parametrize("grid_points", [24, 80])
    def test_bounds_prints_the_one_b(self, grid_points, monkeypatch, tmp_path):
        spec = harmonic_model(HarmonicParams(alpha=0.3, grid_points=grid_points))
        b = core.contraction(spec, 0.0)
        entered = self.spy(monkeypatch)
        out = tmp_path / "bounds.csv"
        args = ["bounds", "--alpha", "0.3", "--grid-points", str(grid_points)]
        assert main(args + ["--eta", "1e-3", "--out", str(out)]) == EXIT_OK
        assert entered == [1]
        rows = {row[0]: row[1] for row in read_csv(out)[1:]}
        assert float(rows["contraction_b"]) == b


class TestEachQuantityOnce:
    """No eigenbasis of U^2 outside kg bounds' H-frame rows, each norm taken once."""

    @staticmethod
    def u_roots(monkeypatch, order):
        """(bases, decompositions): every U^2 eigenbasis formed
        (ModelSpec.u2_eigenbasis), and the order-``order`` symmetric
        eigendecompositions with vectors, dense or tridiagonal, the only
        kind of solve a root of U^2 could come from."""
        bases, decompositions = [], []
        eigenbasis = ModelSpec.u2_eigenbasis.func

        def spy_basis(self):
            bases.append(eigenbasis(self))
            return bases[-1]

        spy_basis = functools.cached_property(spy_basis)
        spy_basis.__set_name__(ModelSpec, "u2_eigenbasis")

        def spy(routine, with_vectors):
            def record(a, *args, **kwargs):
                if np.shape(a)[-1] == order and with_vectors(kwargs):
                    # a LAPACK wrapper's __name__ is "function <name>"
                    decompositions.append(routine.__name__.split()[-1])
                return routine(a, *args, **kwargs)

            return record

        monkeypatch.setattr(ModelSpec, "u2_eigenbasis", spy_basis)
        monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh, lambda kw: True))
        monkeypatch.setattr(
            scipy.linalg,
            "eigh",
            spy(scipy.linalg.eigh, lambda kw: not kw.get("eigvals_only")),
        )
        for name in ("dsyevd", "dsyevr", "dstevd"):
            routine = getattr(scipy.linalg.lapack, name)
            monkeypatch.setattr(
                scipy.linalg.lapack, name, spy(routine, lambda kw: kw.get("compute_v", 1))
            )
        return bases, decompositions

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
        "command, bases, gram_norms",
        [("verify", 0, 2), ("bounds", 1, 4)],
        ids=["verify", "bounds"],
    )
    def test_three_powers_and_six_norms(
        self, command, bases, gram_norms, monkeypatch, capsys
    ):
        # verify reads U only through L; kg bounds forms U^2's
        # eigenbasis once, for ||dG|| and ||J1||, from one order-n
        # decomposition of the tridiagonal U^2 on its two diagonals
        # (dstevd), and no root of U.  Of the six norms both once took
        # through a Gram matrix, the oscillator's contraction is bisected on U^2's
        # diagonals (order 64 is above core._BANDED_MIN_ORDER), and
        # ||dV|| and the gate's ||V|| are ends of symmetric spectra, and
        # the perturbed spectrum is routed on a proven -Q(mu) > 0, not on
        # its contraction: verify keeps c and nu, bounds c, nu, ||dG||
        # and ||Gamma||
        formed, decompositions = self.u_roots(monkeypatch, 64)
        norms = self.norm_calls(monkeypatch)
        args = [command, "--alpha", "0.3", "--grid-points", "64", "--eta", "1e-3"]
        assert main(args) == EXIT_OK
        assert len(formed) == bases
        assert decompositions == ["dstevd"] * bases
        assert len(norms) == gram_norms

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
        "args",
        [
            ["spectrum", "--alpha", "0.3", "--grid-points", "80"],
            ["sweep", "--alpha", "0.3", "--grid-points", "80", "--sweep-range",
             "0:1", "--steps", "5"],
        ],
        ids=["spectrum", "sweep"],
    )
    def test_oscillator_takes_no_dense_order_n_step(
        self, args, monkeypatch, tmp_path, capsys
    ):
        # after validation (the banded Cholesky factor of U^2, whose ends
        # are bisected on its diagonals) the N = 80 oscillator runs no dense
        # order-n solve or reduction: the contraction is bisected on
        # dpttrf, the pencil is the tridiagonal T, the residuals are
        # banded and the gate's ||V|| is max |v_ii|
        calls = []

        def spy(module, name):
            routine = getattr(module, name)

            def record(a, *args, **kwargs):
                calls.append((name, np.shape(a)[-1]))
                return routine(a, *args, **kwargs)

            monkeypatch.setattr(module, name, record)

        for name in ("dpotrf", "dpbtrf", "dtrtrs", "dsytrd", "dsyevd", "dsyevr"):
            spy(scipy.linalg.lapack, name)
        for name in ("cholesky", "eigh", "eigvalsh", "solve"):
            spy(np.linalg, name)
        assert main(args + ["--out", str(tmp_path / "o.csv")]) == EXIT_OK
        assert calls == [("dpbtrf", 80)]

    @pytest.mark.parametrize(
        "args",
        [
            ["bounds", "--alpha", "0.3", "--grid-points", "160", "--eta", "1e-3"],
            ["bounds", "--alpha", "0.3", "--grid-points", "160", "--eta", "1e-3",
             "--optimize-shift"],
            ["spectrum", "--alpha", "0.3", "--grid-points", "80"],
            ["reproduce", "example1", "--grid-points", "150"],
        ],
        ids=["bounds", "bounds-optimize-shift", "spectrum", "example1"],
    )
    def test_banded_route_forms_no_dense_model_array(
        self, args, monkeypatch, tmp_path, capsys
    ):
        # the oscillator's spec keeps U^2, V and L as bands: no command on
        # the banded route reads (and so forms) its dense U^2, V or L, nor
        # forms a dense tridiagonal or bidiagonal matrix from bands
        reads = []

        def spy(name):
            form = getattr(ModelSpec, name).func

            def read(spec):
                reads.append((name, spec.order))
                return form(spec)

            monkeypatch.setattr(ModelSpec, name, property(read))

        for name in ("u_squared", "v", "cholesky"):
            spy(name)
        for name in ("_tridiagonal_matrix", "_band_matrix"):
            form = getattr(core, name)
            monkeypatch.setattr(
                core, name, lambda *a, name=name, form=form: reads.append(name) or form(*a)
            )
        out = tmp_path / ("out" if args[0] == "reproduce" else "o.csv")
        assert main(args + ["--out", str(out)]) == EXIT_OK
        assert reads == []

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

    def test_dense_bounds_solves_with_w_once(self, monkeypatch, tmp_path, capsys):
        # on a dense model the contraction alone forms A = W L^(-T), and
        # the mixed product is read off the pencil factor: one triangular
        # solve with W = V (shift 0), and one with dV for c
        spec, _ = random_model(np.random.Generator(np.random.PCG64(6)), n=6)
        path = tmp_path / "model.json"
        save_model(spec, path)
        solved = []
        l_solve = ModelSpec.l_solve

        def spy(self, b):
            solved.append(np.array(b))
            return l_solve(self, b)

        monkeypatch.setattr(ModelSpec, "l_solve", spy)
        assert main(["bounds", "--model", str(path), "--eta", "1e-3"]) == EXIT_OK
        assert len(solved) == 2
        assert sum(np.array_equal(b, spec.v) for b in solved) == 1

    def test_bounds_forms_a_only_in_the_contraction(self, monkeypatch, tmp_path, capsys):
        # A = W L^(-T) is formed by the dense route of core.contraction
        # alone, and no system keeps one: the banded oscillator forms
        # none, a dense order-6 model one
        formed = []
        operator_a = core.operator_a

        def spy(*args, **kwargs):
            formed.append(1)
            return operator_a(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("kgbounds") and getattr(module, "operator_a", None):
                monkeypatch.setattr(module, "operator_a", spy)
        args = ["bounds", "--alpha", "0.3", "--grid-points", "160", "--eta", "1e-3"]
        assert main(args) == EXIT_OK
        assert formed == []
        spec, _ = random_model(np.random.Generator(np.random.PCG64(6)), n=6)
        save_model(spec, tmp_path / "model.json")
        args = ["bounds", "--model", str(tmp_path / "model.json"), "--eta", "1e-3"]
        assert main(args) == EXIT_OK
        assert formed == [1]
        assert "a_matrix" not in {f.name for f in dataclasses.fields(KleinGordonSystem)}

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

    def test_verify_forms_residuals_only_in_the_spectrum(self, monkeypatch):
        # a non-real perturbed spectrum is gated at its real parts from the
        # residuals eigen_spectra returned: every eigenpair_residuals call
        # is made inside eigen_spectra, one per spectrum
        depth, calls = [0], []
        spectra, residuals = spectral.eigen_spectra, spectral.eigenpair_residuals

        def inside(*args, **kwargs):
            depth[0] += 1
            try:
                return spectra(*args, **kwargs)
            finally:
                depth[0] -= 1

        def count(*args, **kwargs):
            calls.append(depth[0])
            return residuals(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            for original, spy in ((spectra, inside), (residuals, count)):
                attr = original.__name__
                if name.startswith("kgbounds") and getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, spy)
        args = ["verify", "--tau", "1.7", "--paper-shift", "--eta", "0.35"]
        assert main(args) == EXIT_SOLVER
        assert calls == [1, 1]

    def test_nan_residual_fails(self, monkeypatch, capsys):
        def nan(spec, lams, vecs, *couplings):
            return np.full(np.shape(lams), np.nan)

        monkeypatch.setattr(spectral, "eigenpair_residuals", nan)
        assert main(["spectrum", "--tau", "1"]) == EXIT_SOLVER
        assert "pencil residual nan exceeds the gate" in capsys.readouterr().err

    def test_sweep_names_the_failing_eigenvalue(self, monkeypatch, capsys):
        # a residual failing at a smallest-modulus eigenvalue: the message
        # names it, not the largest-modulus eigenvalue of its row
        residuals = spectral.eigenpair_residuals

        def fail_smallest(spec, lams, vecs, *couplings):
            # per row of a stacked block
            r = residuals(spec, lams, vecs, *couplings)
            smallest = np.argmin(np.abs(lams), axis=-1)[..., None]
            np.put_along_axis(r, smallest, 1.0, axis=-1)
            return r

        monkeypatch.setattr(spectral, "eigenpair_residuals", fail_smallest)
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
        residuals = spectral.eigenpair_residuals

        def plant(spec, lams, vecs, t):
            r = residuals(spec, lams, vecs, t)
            r[(t[:, None] >= 1.1) & (np.real(lams) > 1.0)] = fill
            return r

        monkeypatch.setattr(spectral, "eigenpair_residuals", plant)
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
            (
                k,
                lam,
                rp,
                1.0,
                f"perturbed eigenvalue {lam_p:.17g}; the perturbed spectrum is not real",
            )
            if rp > r
            else (k, lam, r, 1.0, "")
            for k, (lam, lam_p, r, rp) in enumerate(
                zip(
                    report.eigenvalues,
                    report.eigenvalues_perturbed,
                    report.residuals,
                    report.residuals_perturbed,
                )
            )
        )
        assert err == reference_gate_message(spec, "index", checks)


class TestCountedGate:
    """The tridiagonal pencil rows of spectrum, sweep and verify: counts, not Z."""

    @staticmethod
    def oscillator_args(command, tmp_path, grid_points=64):
        args = [command, "--alpha", "0.3", "--grid-points", str(grid_points)]
        args += {"spectrum": [], "sweep": ["--sweep-range", "0:1", "--steps", "3"],
                 "verify": ["--eta", "1e-3"]}[command]
        return args + ["--out", str(tmp_path / "o.csv")]

    @pytest.mark.parametrize("command", ["spectrum", "sweep", "verify"])
    def test_pencil_solved_for_eigenvalues_alone(self, command, monkeypatch, tmp_path):
        # each tridiagonal pencil row takes one dpttrf and one dsterf of
        # the order-128 T: no dstevd, no banded solve for x (dtbtrs) and
        # so no Z; verify's perturbed model, whose random dV is dense,
        # keeps the dense T with its eigenvectors, its -Q(mu) proven (one
        # dpotrf of -Q(mu) - cI) and factored for M (one more) before it
        lapack_calls, pencil_calls = [], []

        def count_pencil(*args, **kwargs):
            start = len(lapack_calls)
            result = k_frame(*args, **kwargs)
            pencil_calls.append(lapack_calls[start:])
            return result

        def spy(name):
            routine = getattr(scipy.linalg.lapack, name)

            def record(a, *args, **kwargs):
                lapack_calls.append((name, np.shape(a)[-1]))
                return routine(a, *args, **kwargs)

            monkeypatch.setattr(scipy.linalg.lapack, name, record)

        k_frame = spectral._k_frame_eigensolve
        monkeypatch.setattr(spectral, "_k_frame_eigensolve", count_pencil)
        for name in ("dpotrf", "dpttrf", "dsyevd", "dstevd", "dsterf", "dstebz",
                     "dtrtrs", "dtbtrs"):
            spy(name)
        assert main(self.oscillator_args(command, tmp_path)) == EXIT_OK
        rows = 3 if command == "sweep" else 1
        assert pencil_calls[0] == [("dpttrf", 64), ("dsterf", 128)] * rows
        if command == "verify":
            dense = [("dsyevd", 128), ("dtrtrs", 64)]
            assert pencil_calls[1:] == [dense]
            assert [c for c in lapack_calls if c[0] == "dpotrf"] == [("dpotrf", 64)] * 2
        else:
            assert len(pencil_calls) == 1
        assert "dstevd" not in {name for name, _ in lapack_calls}

    @pytest.mark.parametrize(
        "gate, expected", [(cli.RESIDUAL_GATE, EXIT_OK), (1e-30, EXIT_SOLVER)],
        ids=["pass", "fail"],
    )
    @pytest.mark.parametrize("command", ["spectrum", "sweep", "verify"])
    def test_uncertain_counts_take_the_eigenvector_gate(
        self, command, gate, expected, monkeypatch, tmp_path, capsys
    ):
        # with every count uncertain each row is solved again with its
        # eigenvectors and gated on its eigenpair residuals: the output,
        # exit code and gate message of a solve without counts whose
        # residuals are the eigenpair residuals of its eigenvalues and
        # eigenvectors, byte for byte, whether the gate passes or (at a
        # gate of 1e-30) fails
        monkeypatch.setattr(cli, "RESIDUAL_GATE", gate)
        args = self.oscillator_args(command, tmp_path, grid_points=24)
        counts, spectra = spectral._sturm_counts, spectral.eigen_spectra

        def uncertain(*args):
            found, certain, beta = counts(*args)
            return found, np.zeros_like(certain), beta

        def without_counts(spec, couplings, shift=0.0, *args, **kwargs):
            stack = spectra(spec, couplings, shift, *args, **kwargs)
            if stack.residuals is None:   # nearest-k: no gate reads it
                return stack
            t = np.asarray(couplings, dtype=float)
            lam, z = eigenpairs(spec, shift, t)   # the solve with vectors
            residuals = spectral.eigenpair_residuals(spec, lam, z, t)
            return dataclasses.replace(stack, eigenvalues=lam, residuals=residuals)

        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_sturm_counts", uncertain)
            code = main(args)
            output, err = (tmp_path / "o.csv").read_bytes(), capsys.readouterr().err
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "eigen_spectra", without_counts)
            patch.setattr(harness, "eigen_spectra", without_counts)
            assert main(args) == code
            assert (tmp_path / "o.csv").read_bytes() == output
            assert capsys.readouterr().err == err
        assert code == expected
        assert ("pencil residual" in err) == (code == EXIT_SOLVER)

    @pytest.mark.parametrize("side", ["residuals", "residuals_perturbed"])
    def test_verify_nan_residual_fails_on_either_side(self, side, monkeypatch, capsys):
        # a nan residual fails the gate on either side of each pair, and
        # the message's note names the perturbed side when it failed
        verify = cli.verify_bounds

        def plant(*args, **kwargs):
            report = verify(*args, **kwargs)
            planted = getattr(report, side).copy()
            planted[1] = np.nan
            return dataclasses.replace(report, **{side: planted})

        monkeypatch.setattr(cli, "verify_bounds", plant)
        assert main(["verify", "--tau", "1", "--eta", "0.1"]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver failure: at index 1, eigenvalue ")
        assert "pencil residual nan exceeds the gate" in err
        assert ("(perturbed eigenvalue " in err) == (side == "residuals_perturbed")


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
            # U^(-1) has entries of both signs: each entry of V U^(-1) would
            # sum an inf and a -inf, but the solve is scaled and its entries
            # overflow only when scaled back, to inf
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
        assert (
            capsys.readouterr().err == "solver error: contraction b = inf is not < 1\n"
        )

    @pytest.mark.parametrize("command", ["bounds", "verify"])
    def test_uncertified_valid_model_is_a_solver_failure(self, command, capsys):
        # b = 1 - 4e-16 < 1 at the paper shift: valid data, but too close
        # to the critical coupling for a proven -Q(mu) > 0, so the exact
        # pair does not exist; b is printed to 17 digits, not rounded to 1
        args = [command, "--tau", "1.999999999999999", "--paper-shift", "--eta", "0.1"]
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

    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    def test_pencil_eigenvalues_near_1e154(self, command, tmp_path, capsys):
        # ||U^2|| = 8.2e307 and V = diag(5e153, -5e153): b < 1 takes the
        # pencil, whose eigenvalues reach 1.4e154.  lam^2 and the gate's
        # ||U^2|| + ||t V||^2 + |lam|^2 are beyond the float range, so the
        # residuals and the gate are formed scaled by powers of two: the
        # residuals are finite and at rounding level, the gate passes, and
        # nothing warns
        path = tmp_path / "large_pencil.json"
        path.write_text(
            '{"u_squared": [[4e307, 1e307], [1e307, 8e307]], '
            '"v": [[5e153, 0.0], [0.0, -5e153]]}'
        )
        out = tmp_path / "out.csv"
        args = [command, "--model", str(path), "--out", str(out)]
        if command == "sweep":
            args += ["--sweep-range", "0.5:1", "--steps", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(args)
        assert code == EXIT_OK, capsys.readouterr().err
        rows = read_csv(out)[1:]
        if command == "spectrum":
            residuals = [float(r[4]) for r in rows]
            assert max(abs(float(r[1])) for r in rows) > 1.3e154
        else:
            residuals = [float(r[4]) for r in rows if r[0] == "point"]
        assert all(np.isfinite(residuals))
        assert max(residuals) <= 1e-14 * 8.2e307

    def test_paper_shift_requires_square_well(self, tmp_path):
        path = tmp_path / "free.json"
        save_model(square_well_model(1.0), path)
        assert (
            main(["spectrum", "--model", str(path), "--paper-shift"])
            == EXIT_VALIDATION
        )


#: every known failure class of the CLI: (argv, the exception that
#: spectral._k_frame_eigensolve is patched to raise, or None, and the exit
#: code), with {tmp} the test's directory and {file} a regular file in it
_FAILURES = {
    "no-model-source": (["spectrum"], None, EXIT_PARSE),
    "two-model-sources": (["spectrum", "--tau", "1", "--alpha", "0.3"], None, EXIT_PARSE),
    "non-finite-shift": (["spectrum", "--tau", "1", "--shift", "nan"], None, EXIT_PARSE),
    "non-finite-eta": (["bounds", "--tau", "1", "--eta", "inf"], None, EXIT_PARSE),
    "non-finite-sweep-range": (
        ["sweep", "--tau", "1", "--sweep-range", "0:inf"], None, EXIT_PARSE
    ),
    "missing-model": (["spectrum", "--model", "{tmp}/missing.json"], None, EXIT_PARSE),
    "paper-shift-oscillator": (
        ["spectrum", "--alpha", "0.3", "--grid-points", "10", "--paper-shift"],
        None,
        EXIT_VALIDATION,
    ),
    "negative-seed-well": (
        ["verify", "--tau", "1", "--eta", "0.1", "--seed", "-1"], None, EXIT_PARSE
    ),
    "negative-seed-oscillator": (
        ["bounds", "--alpha", "0.3", "--grid-points", "20", "--eta", "1e-3",
         "--seed", "-1"],
        None,
        EXIT_PARSE,
    ),
    "unwritable-spectrum": (
        ["spectrum", "--tau", "1", "--out", "{tmp}/missing/o.csv"], None, EXIT_PARSE
    ),
    "unwritable-bounds": (
        ["bounds", "--tau", "1", "--eta", "0.1", "--out", "{file}/o.csv"],
        None,
        EXIT_PARSE,
    ),
    "unwritable-bounds-report": (
        ["bounds", "--tau", "1", "--eta", "0.1", "--format", "report",
         "--out", "{tmp}/missing/o.txt"],
        None,
        EXIT_PARSE,
    ),
    "unwritable-verify": (
        ["verify", "--tau", "1", "--eta", "0.1", "--out", "{tmp}/missing/o.csv"],
        None,
        EXIT_PARSE,
    ),
    "unwritable-sweep": (
        ["sweep", "--tau", "1", "--sweep-range", "0:1", "--steps", "3",
         "--out", "{tmp}/missing/o.csv"],
        None,
        EXIT_PARSE,
    ),
    "unwritable-reproduce": (
        ["reproduce", "example2", "--out", "{file}/x"], None, EXIT_PARSE
    ),
    "out-of-memory": (["spectrum", "--tau", "1"], MemoryError, EXIT_SOLVER),
    "out-of-memory-sweep": (
        ["sweep", "--tau", "1", "--sweep-range", "0:1", "--steps", "3"],
        MemoryError("Unable to allocate 7.28 TiB for an array"),
        EXIT_SOLVER,
    ),
    # sizes numpy refuses outright (more bytes than an intp holds) are
    # the allocation failures they stand for; nothing is allocated
    "refused-grid-points": (
        ["spectrum", "--alpha", "0.3", "--grid-points", "99999999999999999999"],
        None,
        EXIT_SOLVER,
    ),
    "refused-grid-bytes": (
        ["spectrum", "--alpha", "0.3", "--grid-points", "4611686018427387904"],
        None,
        EXIT_SOLVER,
    ),
    "refused-grid-points-file": (
        ["spectrum", "--model", "{tmp}/refused_grid.json"], None, EXIT_SOLVER
    ),
    "refused-steps": (
        ["sweep", "--tau", "1", "--sweep-range", "0:2", "--steps",
         "99999999999999999999"],
        None,
        EXIT_SOLVER,
    ),
    "refused-steps-bytes": (
        ["sweep", "--tau", "1", "--sweep-range", "0:2", "--steps",
         "4611686018427387904"],
        None,
        EXIT_SOLVER,
    ),
    "lapack-failure": (
        ["bounds", "--tau", "1", "--eta", "0.1"],
        np.linalg.LinAlgError("Eigenvalues did not converge"),
        EXIT_SOLVER,
    ),
    # oscillator grids beyond the float range: h^2 or x^2 overflows, h^2
    # underflows, or alpha * x is not finite
    "overflowing-half-width": (
        ["spectrum", "--alpha", "0.3", "--grid-points", "5", "--half-width", "1e160"],
        None,
        EXIT_VALIDATION,
    ),
    "overflowing-half-width-file": (
        ["spectrum", "--model", "{tmp}/huge_grid.json"], None, EXIT_VALIDATION
    ),
    "overflowing-half-width-reproduce": (
        ["reproduce", "example1", "--grid-points", "10", "--half-width", "1e300",
         "--out", "{tmp}/r"],
        None,
        EXIT_VALIDATION,
    ),
    # example 2 is the square well: it has no grid to set
    "example2-grid-points": (
        ["reproduce", "example2", "--grid-points", "150", "--out", "{tmp}/r"],
        None,
        EXIT_PARSE,
    ),
    "example2-half-width": (
        ["reproduce", "example2", "--half-width", "9", "--out", "{tmp}/r"],
        None,
        EXIT_PARSE,
    ),
    "infinite-half-width": (
        ["spectrum", "--alpha", "0.3", "--grid-points", "5", "--half-width", "inf"],
        None,
        EXIT_VALIDATION,
    ),
    "underflowing-half-width": (
        ["spectrum", "--alpha", "0.3", "--grid-points", "5", "--half-width", "1e-300"],
        None,
        EXIT_VALIDATION,
    ),
    "infinite-alpha": (
        ["spectrum", "--alpha", "inf", "--grid-points", "5"], None, EXIT_VALIDATION
    ),
    "infinite-tau": (["spectrum", "--tau", "inf"], None, EXIT_VALIDATION),
    "overflowing-alpha": (
        ["spectrum", "--alpha", "1e308", "--grid-points", "5"], None, EXIT_VALIDATION
    ),
}


@pytest.mark.parametrize("case", sorted(_FAILURES))
def test_exit_contract(case, tmp_path, monkeypatch, capsys):
    # every failure exits 2, 3 or 4 with one line on stderr, never a traceback
    argv, error, code = _FAILURES[case]
    regular = tmp_path / "regular"
    regular.write_text("")
    (tmp_path / "huge_grid.json").write_text(
        '{"model": "harmonic", "alpha": 0.3, "grid_points": 5, "half_width": 1e300}'
    )
    (tmp_path / "refused_grid.json").write_text(
        '{"model": "harmonic", "alpha": 0.3, "grid_points": 1e300}'
    )
    argv = [a.format(tmp=tmp_path, file=regular) for a in argv]
    if error is not None:
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(spectral, "_k_frame_eigensolve", fail)
    exit_code = main(argv)
    assert exit_code in (EXIT_PARSE, EXIT_VALIDATION, EXIT_SOLVER)
    assert exit_code == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n") and len(err) > 1
    assert "Traceback" not in err
    if "unwritable" in case:
        assert err.startswith(f"parse error: cannot write {argv[-1]}: ")
    if case.startswith("example2-"):
        flag = "--" + case.removeprefix("example2-")
        assert err.startswith(f"parse error: {flag} ") and not (tmp_path / "r").exists()
    if error is not None or case.startswith("refused-"):
        assert err.startswith("solver error: ")


@pytest.mark.parametrize(
    "command",
    [
        ["spectrum"],
        ["bounds", "--eta", "1e-3"],
        ["bounds", "--eta", "1e-3", "--format", "report"],
        ["verify", "--eta", "1e-3"],
        ["sweep", "--sweep-range", "0:1"],
    ],
    ids=["spectrum", "bounds", "bounds-report", "verify", "sweep"],
)
def test_unwritable_out_is_found_before_the_model(command, tmp_path, monkeypatch, capsys):
    # the default N = 1000 oscillator is never built: the target is
    # checked first, and nothing is created
    def unreachable(args):
        raise AssertionError("the model was resolved before --out was checked")

    monkeypatch.setattr(cli, "_resolve", unreachable)
    out = tmp_path / "missing" / "v.csv"
    argv = [command[0], "--alpha", "0.3", *command[1:], "--out", str(out)]
    assert main(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == f"parse error: cannot write {out}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_checked_out_is_not_truncated(tmp_path, capsys):
    # a writable target passes the check untouched: a run failing after
    # it leaves the file as it was
    out = tmp_path / "kept.csv"
    out.write_text("kept\n")
    argv = ["spectrum", "--tau", "1", "--alpha", "0.3", "--out", str(out)]
    assert main(argv) == EXIT_PARSE
    assert out.read_text() == "kept\n"
    assert capsys.readouterr().err.startswith("parse error: exactly one model source")


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

    @staticmethod
    def csv_writer_bytes(header, rows):
        """The table as csv.writer writes it, one formatted cell at a time."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue().encode("utf-8")

    @staticmethod
    def capture(monkeypatch, module, name, plant=lambda result: result):
        """Replace module.name by a wrapper keeping what it returns, planted."""
        kept, original = [], getattr(module, name)

        def wrapper(*args, **kwargs):
            kept.append(plant(original(*args, **kwargs)))
            return kept[-1]

        monkeypatch.setattr(module, name, wrapper)
        return kept

    @pytest.mark.parametrize("tau", ["1", "2.2"], ids=["real", "complex"])
    def test_spectrum_rows_are_the_csv_writer_bytes(self, tau, monkeypatch, tmp_path):
        special = [-0.0, np.inf, np.nan, 5e-324]
        planted = special if tau == "1" else [complex(x, -y) for x, y in
                                              zip(special, special[::-1])]

        resids = np.array([np.nan, -0.0, np.inf, 1e-300])

        def plant(report):
            return dataclasses.replace(
                report, eigenvalues=np.array(planted), residuals=resids
            )

        reports = self.capture(monkeypatch, cli, "eigen_spectrum", plant)
        out = tmp_path / "o.csv"
        assert main(["spectrum", "--tau", tau, "--out", str(out)]) == EXIT_SOLVER
        report = reports[0]
        rows = [
            [k, _fmt(np.real(lam)), _fmt(np.imag(lam)), report.sign_types[k], _fmt(r)]
            for k, (lam, r) in enumerate(zip(report.eigenvalues, resids))
        ]
        header = ["index", "eigenvalue_re", "eigenvalue_im", "sign_type",
                  "pencil_residual"]
        assert out.read_bytes() == self.csv_writer_bytes(header, rows)

    def test_verify_rows_are_the_csv_writer_bytes(self, monkeypatch, tmp_path):
        def plant(report):
            lam = report.eigenvalues.copy()
            lam[:3] = [-0.0, np.inf, np.nan]
            return dataclasses.replace(
                report, eigenvalues=lam, deviations=-report.deviations,
                max_deviation=-0.0,
            )

        reports = self.capture(monkeypatch, cli, "verify_bounds", plant)
        out = tmp_path / "o.csv"
        args = ["verify", "--alpha", "0.3", "--grid-points", "12", "--eta", "0.01"]
        assert main(args + ["--out", str(out)]) in (EXIT_OK, EXIT_SOLVER)
        report = reports[0]
        rows = [
            ["eigenpair", k, _fmt(lam), _fmt(lam_p), _fmt(dev), "", "", ""]
            for k, (lam, lam_p, dev) in enumerate(
                zip(report.eigenvalues, report.eigenvalues_perturbed, report.deviations)
            )
        ]
        rows.append(["summary", "max_relative_deviation", "", "", "-0", "", "", ""])
        assert {type(c.value) for c in report.checks} == {tuple, float}
        for check in report.checks:
            value = (
                f"{_fmt(check.value[0])};{_fmt(check.value[1])}"
                if isinstance(check.value, tuple)
                else _fmt(check.value)
            )
            rows.append(
                ["bound", check.name, "", "", "", value, check.applicable, check.passed]
            )
        header = ["row_type", "key", "eigenvalue", "eigenvalue_perturbed",
                  "deviation", "bound", "applicable", "passed"]
        assert out.read_bytes() == self.csv_writer_bytes(header, rows)

    @pytest.mark.parametrize("hi", ["1", "2.2"], ids=["real", "critical"])
    def test_sweep_rows_are_the_csv_writer_bytes(self, hi, monkeypatch, tmp_path):
        def plant(result):
            lam = result.eigenvalues.copy()
            lam[0, :3] = [complex(-0.0, np.inf), complex(np.nan, -0.0), 5e-324]
            residual_max = result.residual_max.copy()
            residual_max[:3] = [-0.0, np.inf, np.nan]
            return dataclasses.replace(
                result, eigenvalues=lam, residual_max=residual_max
            )

        results = self.capture(monkeypatch, cli.harness, "sweep_potential", plant)
        out = tmp_path / "o.csv"
        args = ["sweep", "--tau", "1", "--sweep-range", f"0:{hi}", "--steps", "11"]
        assert main(args + ["--out", str(out)]) == EXIT_SOLVER
        result = results[0]
        assert (result.critical_value is None) == (hi == "1")
        assert not result.is_real.all() or hi == "1"
        two_n = result.eigenvalues.shape[1]
        header = ["row_type", "parameter", "is_real", "defective", "residual_max"]
        for k in range(two_n):
            header += [f"eig{k}_re", f"eig{k}_im"]
        rows = []
        for i, t in enumerate(result.parameters):
            row = ["point", _fmt(t), result.is_real[i], result.defect_flags[i],
                   _fmt(result.residual_max[i])]
            for lam in result.eigenvalues[i]:
                row += [_fmt(lam.real), _fmt(lam.imag)]
            rows.append(row)
        critical = "" if result.critical_value is None else _fmt(result.critical_value)
        rows.append(["critical", critical, "", "", ""] + [""] * (2 * two_n))
        assert out.read_bytes() == self.csv_writer_bytes(header, rows)

    def test_bounds_and_reproduce_rows_are_the_csv_writer_bytes(
        self, monkeypatch, tmp_path, capsys
    ):
        reports = self.capture(monkeypatch, cli, "bounds_report")
        out = tmp_path / "bounds.csv"
        args = ["bounds", "--tau", "1", "--eta", "0.1", "--out", str(out)]
        assert main(args) == EXIT_OK
        cells = [
            [key, cli._csv_cell(value), cli._csv_cell(extra)]
            for key, value, extra in reports[0].rows()
        ]
        assert {"", "True"} <= {c[2] for c in cells}
        expected = self.csv_writer_bytes(["key", "value", "extra"], cells)
        assert out.read_bytes() == expected

        tables = self.capture(monkeypatch, cli.harness, "example2_tables")
        assert main(["reproduce", "example2", "--out", str(tmp_path)]) == EXIT_OK
        result = tables[0]
        for name, table in (
            ("example2_true_distances.csv", result.true_distances),
            ("example2_bounds.csv", result.bounds),
        ):
            rows = [
                [_fmt(tau), _fmt(eta), _fmt(table[i, j])]
                for i, tau in enumerate(result.taus)
                for j, eta in enumerate(result.etas)
            ]
            header = ["tau", "eta"] + (
                ["max_relative_distance"] if "true" in name else ["bound"]
            )
            data = (tmp_path / name).read_bytes()
            assert data == self.csv_writer_bytes(header, rows)

        tables = self.capture(monkeypatch, cli.harness, "example1_table")
        args = ["reproduce", "example1", "--grid-points", "40", "--out", str(tmp_path)]
        assert main(args) == EXIT_OK
        rows = [
            [_fmt(r.alpha), _fmt(r.beta), r.mode, _fmt(r.mu_plus), _fmt(r.exact_plus),
             _fmt(r.error_plus), _fmt(r.mu_minus), _fmt(r.exact_minus),
             _fmt(r.error_minus)]
            for r in tables[0].rows
        ]
        header = ["alpha", "beta", "mode", "mu_plus_discrete", "mu_plus_exact",
                  "error_plus", "mu_minus_discrete", "mu_minus_exact", "error_minus"]
        data = (tmp_path / "example1_table.csv").read_bytes()
        assert data == self.csv_writer_bytes(header, rows)

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
