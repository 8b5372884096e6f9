"""End-to-end and unit tests for the command-line interface."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from _oracles import StepOracle, read_error_csv_rows, relative_error, verify_csv_text
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from asymloss import (
    MARGIN_TOL,
    SAMPLE_CHUNK,
    Gaussian,
    GeneralizedGaussian,
    Laplace,
    LossParams,
    OffsetSolution,
    RangeError,
    SavingsReport,
    Uniform,
    cli,
    estimate_loss_stats,
    fit_empirical,
    sweep,
    sweep_eq1,
)
from asymloss.cli import (
    _CSV_COLUMNS,
    FIXED_CLOCK,
    MAX_GRID_ROWS,
    SCHEMA_VERSION,
    CliInputError,
    main,
    parse_dist_spec,
    parse_grid_spec,
    read_error_csv,
)
from asymloss.inequalities import _sweep_blocks

LN2 = math.log(2.0)
GAUSS_C_1TO2 = 0.4307272992954576  # Phi^-1(2/3)


def write_errors(path, values, header="error"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([header] if header == "error" else ["y", "yhat"])
        for v in values:
            w.writerow([float(v)] if header == "error" else [0.0, float(v)])
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, (json.loads(out.out) if out.out else None), out.err


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------


class TestAnalyzeParametric:
    ARGS = ["analyze", "--dist", "laplace:b=1", "--k1", "1", "--k2", "3",
            "--seed", "7", "--fixed-clock", "--mc-n", "50000"]

    def test_report_contents(self, capsys):
        code, payload, err = run_json(capsys, self.ARGS)
        assert code == 0
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["command"] == "analyze"
        assert payload["generated_at"] == FIXED_CLOCK
        assert payload["verdict"] == "ok"
        assert payload["solution"]["C"] == pytest.approx(LN2, abs=1e-9)
        assert payload["solution"]["variance_at_C"] < payload["solution"]["variance_at_zero"]
        assert payload["distribution"] == {"kind": "laplace", "b": 1.0}
        assert payload["inputs"]["k1"] == 1.0 and payload["inputs"]["k2"] == 3.0
        assert payload["diagnostics"] is None
        assert len(payload["mc_checks"]) == 2
        for check in payload["mc_checks"]:
            assert check["mean_ok"] and check["variance_ok"]
        assert payload["inequality_summary"]["all_passed"] is True
        assert payload["inequality_summary"]["min_margin"] >= -1e-9
        assert "verdict=ok" in err

    def test_uniform_variance_exact_near_the_support_end(self, capsys):
        # C lies within 4e-7 of w = 2, where the tail beyond C is a sliver.
        argv = ["analyze", "--dist", "uniform:w=2", "--k1", "1", "--k2", "1e7",
                "--mc-n", "20000", "--fixed-clock"]
        code, payload, _ = run_json(capsys, argv)
        assert code == 0
        sol = payload["solution"]
        _, exact = StepOracle.of(Uniform(2.0)).loss_stats(1.0, 1e7, sol["C"])
        assert relative_error(sol["variance_at_C"], exact) <= 1e-13

    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*self.ARGS, "--out", str(out1)]) == 0
        assert main([*self.ARGS, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_layout(self, capsys):
        _, payload, _ = run_json(capsys, self.ARGS)
        assert set(payload) == {
            "schema_version", "command", "generated_at", "inputs", "distribution",
            "solution", "savings", "inequality_summary", "mc_checks", "verdict",
            "diagnostics",
        }
        names = lambda cls: {f.name for f in dataclasses.fields(cls)}
        assert set(payload["solution"]) == names(OffsetSolution)
        assert set(payload["savings"]) == names(SavingsReport) - {"solution"}


class TestAnalyzeEmpirical:
    def test_gaussian_csv(self, capsys, tmp_path):
        errors = Gaussian(1.0).sample(8_000, seed=21)
        path = write_errors(tmp_path / "e.csv", errors)
        code, payload, _ = run_json(
            capsys,
            ["analyze", "--input", path, "--k1", "1", "--k2", "2",
             "--mc-n", "50000", "--fixed-clock"],
        )
        assert code == 0
        assert payload["verdict"] == "ok"
        assert payload["solution"]["C"] == pytest.approx(GAUSS_C_1TO2, abs=0.05)
        diag = payload["diagnostics"]
        assert diag["n"] == 8_000
        assert diag["sign_warning"] is False
        assert diag["monotonicity_violation_mass"] < 0.6
        assert payload["distribution"]["kind"] == "empirical_symmetric"

    def test_pair_header_equivalent_to_error_header(self, capsys, tmp_path):
        errors = Laplace(1.0).sample(2_000, seed=3)
        # baseline y = 0 keeps yhat - y bit-identical to the raw errors
        p_err = write_errors(tmp_path / "e.csv", errors, header="error")
        p_pair = write_errors(tmp_path / "p.csv", errors, header="pair")
        args = ["--k1", "1", "--k2", "3", "--mc-n", "50000", "--fixed-clock"]
        _, payload_e, _ = run_json(capsys, ["analyze", "--input", p_err, *args])
        _, payload_p, _ = run_json(capsys, ["analyze", "--input", p_pair, *args])
        assert payload_p["solution"] == payload_e["solution"]

    def test_lopsided_errors_refused(self, capsys, tmp_path):
        errors = np.abs(Laplace(1.0).sample(300, seed=5)) + 1e-9
        path = write_errors(tmp_path / "e.csv", errors)
        code = main(["analyze", "--input", path, "--k1", "1", "--k2", "2"])
        assert code == 2
        assert "sign test" in capsys.readouterr().err


class TestAnalyzeInputErrors:
    def test_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["analyze", "--k1", "1", "--k2", "2"]) == 1
        path = write_errors(tmp_path / "e.csv", [1.0, -1.0] * 20)
        assert main(["analyze", "--dist", "laplace:b=1", "--input", path,
                     "--k1", "1", "--k2", "2"]) == 1
        capsys.readouterr()

    def test_bad_costs(self, capsys):
        assert main(["analyze", "--dist", "laplace:b=1", "--k1", "0", "--k2", "2"]) == 1
        assert main(["analyze", "--dist", "laplace:b=1", "--k1", "1", "--k2", "-3"]) == 1
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert main(["analyze", "--input", "/nonexistent/e.csv",
                     "--k1", "1", "--k2", "2"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("spec", [
        "gamma:sigma=1",          # unknown family
        "gauss",                  # no parameters
        "gauss:sigma=abc",        # unparsable number
        "gg:a=1",                 # missing b
        "gauss:sigma=1,junk=2",   # unknown key
        "laplace:b=0",            # domain violation
    ])
    def test_bad_dist_specs(self, spec, capsys):
        assert main(["analyze", "--dist", spec, "--k1", "1", "--k2", "2"]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_input_error(self, capsys):
        assert main(["analyze", "--dist", "laplace:b=1", "--k1", "1",
                     "--k2", "2", "--frobnicate"]) == 1
        capsys.readouterr()


class TestAnalyzeMonteCarlo:
    """The two Monte Carlo estimates, at c = 0 and c = C, come from one call
    on the same ``--seed`` draws, made after the solve and the sweep."""

    # More than one sampling chunk, so the chunks' order of summation counts.
    MC_N = 2 * SAMPLE_CHUNK + 1001

    @pytest.mark.parametrize("spec", [
        "gg:a=0.75,b=1.3", "gauss:sigma=2", "laplace:b=0.5", "uniform:w=3", None,
    ])
    def test_estimates_equal_a_serial_recomputation(self, spec, capsys, tmp_path):
        if spec is None:
            path = write_errors(tmp_path / "e.csv", GeneralizedGaussian(0.75, 1).sample(2_000, 4))
            source = ["--input", path]
            dist = fit_empirical(read_error_csv(path))[0]
        else:
            source = ["--dist", spec]
            dist = parse_dist_spec(spec)
        code, payload, err = run_json(
            capsys,
            ["analyze", *source, "--k1", "1", "--k2", "4", "--mc-n", str(self.MC_N),
             "--seed", "9", "--grid-points", "8", "--fixed-clock"],
        )
        # A passing run's summary line names nothing after its verdict.
        assert code == 0 and err.endswith("; verdict=ok\n") and err.count("\n") == 1
        params, C = LossParams(1.0, 4.0), payload["solution"]["C"]
        paired = estimate_loss_stats(dist, params, [0.0, C], self.MC_N, 9)
        for check, c, est in zip(payload["mc_checks"], (0.0, C), paired, strict=True):
            assert (check["c"], check["n"], check["seed"]) == (c, self.MC_N, 9)
            assert check["mc_mean"] == est.mean
            assert check["mc_variance"] == est.variance
            assert check["std_error_mean"] == est.std_error_mean
            assert check["std_error_variance"] == est.std_error_variance

    def test_estimate_range_error_exits_3(self, monkeypatch, capsys):
        def fake(dist, params, offsets, n, seed):
            assert offsets[0] == 0.0 and len(offsets) == 2
            raise RangeError("estimate overflowed")

        monkeypatch.setattr(cli, "estimate_loss_stats", fake)
        code = main(["analyze", "--dist", "laplace:b=1", "--k1", "1", "--k2", "3"])
        assert (code, capsys.readouterr().err) == (3, "error: estimate overflowed\n")

    @pytest.mark.parametrize("argv, message", [
        (["--dist", "uniform:w=1", "--k1", "1", "--k2", "1e9"], "error: expected loss at C disagrees"),
        (["--dist", "uniform:w=1", "--k1", "1", "--k2", "3", "--span", "1e200"],
         "error: beta of uniform overflows float64"),
    ], ids=["solver-cross-check", "sweep-range"])
    def test_solve_and_sweep_errors_win_over_both(self, argv, message, monkeypatch, capsys):
        def fake(dist, params, offsets, n, seed):
            raise ValueError(f"estimate at {offsets} refused")

        monkeypatch.setattr(cli, "estimate_loss_stats", fake)
        assert main(["analyze", *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    def test_failed_verdict_names_each_failure(self, capsys):
        code, payload, err = run_json(
            capsys, ["analyze", "--dist", "gg:a=40,b=1", "--k1", "1", "--k2", "3", "--fixed-clock"]
        )
        assert code == 3 and payload["verdict"] == "numerical_check_failed"
        _, sep, reasons = err.partition("verdict=numerical_check_failed: ")
        assert sep and err.count("\n") == 1
        expected = []
        for check in payload["mc_checks"]:
            for moment in ("mean", "variance"):
                if not check[f"{moment}_ok"]:
                    z = (check[f"mc_{moment}"] - check[f"analytic_{moment}"]) / check[f"std_error_{moment}"]
                    assert abs(z) > 5.0
                    expected.append(f"{check['label']} {moment} {z:+.3g} standard errors off")
        assert expected and reasons == ", ".join(expected) + "\n"

    def test_zero_standard_error_reads_as_infinite(self):
        # A sample whose losses all tie has standard errors of exactly 0.
        check = {"label": "corrected", "mean_ok": True, "variance_ok": False,
                 "mc_variance": 1e-302, "analytic_variance": 2e-302, "std_error_variance": 0.0}
        assert cli._failures([check], {"all_passed": True}) == [
            "corrected variance -inf standard errors off"
        ]

    @pytest.mark.parametrize("spec, points", [
        ("laplace:b=1", 200), ("gauss:sigma=2", 200), ("uniform:w=1", 200),
        ("gg:a=0.25,b=1", 200), ("gg:a=3,b=1", 1000),
    ])
    def test_sweep_summary_matches_the_reports(self, spec, points, capsys):
        # The summary is read from the sweep's columns; it is what the
        # report objects of the same sweep give, the first least margin's x.
        _, payload, _ = run_json(capsys, [
            "analyze", "--dist", spec, "--k1", "1", "--k2", "3", "--mc-n", "2000",
            "--grid-points", str(points), "--fixed-clock",
        ])
        reports = sweep([parse_dist_spec(spec)], n_points=points)
        worst = min(reports, key=lambda r: r.margin)
        assert payload["inequality_summary"] == {
            "n_points": points,
            "min_margin": worst.margin,
            "worst_x": worst.x,
            "all_passed": all(r.passed for r in reports),
            "tolerance": MARGIN_TOL,
        }

    def test_failed_sweep_names_its_margin(self, monkeypatch, capsys):
        def failing_sweep(dists, n_points, span):
            blocks = _sweep_blocks(dists, n_points, span)
            blocks[0][1][3, -1] = -2.5e-3
            return blocks

        monkeypatch.setattr(cli, "_sweep_blocks", failing_sweep)
        code, payload, err = run_json(
            capsys, ["analyze", "--dist", "laplace:b=1", "--k1", "1", "--k2", "3", "--mc-n", "20000"]
        )
        worst_x = payload["inequality_summary"]["worst_x"]
        assert code == 3 and payload["inequality_summary"]["min_margin"] == -2.5e-3
        assert err.endswith(
            f"verdict=numerical_check_failed: sweep min_margin=-2.500000e-03 at x={worst_x:.6g}\n"
        )


@pytest.mark.parametrize("argv", [
    lambda tmp: ["analyze", "--input", str(tmp / "latin1.csv"), "--k1", "1", "--k2", "2"],
    lambda tmp: ["analyze", "--input", str(tmp), "--k1", "1", "--k2", "2"],
    lambda tmp: ["simulate", "--dist", "laplace:b=1", "--n", "-5", "--k1", "1", "--k2", "2"],
    lambda tmp: ["analyze", "--dist", "laplace:b=1", "--k1", "1", "--k2", "2", "--mc-n", "10"],
    lambda tmp: ["simulate", "--input", str(tmp / "header.csv"), "--k1", "1", "--k2", "2"],
    lambda tmp: ["simulate", "--input", str(tmp / "blank.csv"), "--k1", "1", "--k2", "2"],
    lambda tmp: ["analyze", "--input", str(tmp / "short.csv"), "--k1", "1", "--k2", "2"],
    lambda tmp: ["simulate", "--input", str(tmp / "long.csv"), "--k1", "1", "--k2", "2"],
    lambda tmp: ["simulate", "--input", str(tmp / "inf.csv"), "--k1", "1", "--k2", "2"],
], ids=["non-utf8-csv", "directory-input", "negative-n", "tiny-mc-n",
        "header-only-csv", "blank-rows-csv", "one-field-pair-csv", "over-long-cell-csv",
        "inf-pair-csv"])
def test_bad_input_exits_1_with_one_error_line(argv, tmp_path, capsys):
    (tmp_path / "latin1.csv").write_bytes(b"error\n1.5\n\xe9\xff\n")
    (tmp_path / "header.csv").write_bytes(b"error\n")
    (tmp_path / "blank.csv").write_bytes(b"error\n\n  \n\t\r\n")
    (tmp_path / "short.csv").write_bytes(b"y,yhat\n1.0\n2,3\n")
    # One cell longer than csv's default field size limit (131 072 characters).
    (tmp_path / "long.csv").write_bytes(b"error\n1.5\n" + b" " * 140_000 + b"x\n")
    (tmp_path / "inf.csv").write_bytes(b"y,yhat\n" + b"inf,inf\n" * 40)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []


def test_underflowing_scale_exits_3_with_one_error_line(capsys):
    assert main(["analyze", "--dist", "laplace:b=1e-300", "--k1", "1", "--k2", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "underflow" in err and err.count("\n") == 1


@pytest.mark.parametrize("spec", [
    "uniform:w=1e300", "gg:a=3,b=1e160", "laplace:b=1e300", "gauss:sigma=1e300",
])
def test_overflowing_scale_exits_3_with_one_error_line(spec, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", "--dist", spec, "--k1", "1", "--k2", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("spec", [
    family + scale
    for family in ("laplace:b=", "gauss:sigma=", "gg:a=0.75,b=", "gg:a=3,b=")
    for scale in ("1e-150", "1e-100", "1e100", "1e150")
])
def test_extreme_scales_pass_the_monte_carlo_check(spec, capsys):
    # The fourth power sums of losses near 1e-100 underflow and those near
    # 1e80 overflow, unless the estimator scales them.
    code, payload, err = run_json(
        capsys, ["analyze", "--dist", spec, "--k1", "1", "--k2", "3",
                 "--mc-n", "20000", "--grid-points", "20", "--fixed-clock"],
    )
    assert code == 0 and err.endswith("; verdict=ok\n"), err
    for check in payload["mc_checks"]:
        assert check["std_error_mean"] > 0.0 and check["std_error_variance"] > 0.0


@pytest.mark.parametrize("argv, code", [
    # second moments below the smallest normal float64: the grid would
    # collapse onto x = 0 and pass
    (["verify", "--grid", "laplace:b=1e-300;points=3"], 3),
    (["verify", "--grid", "gauss:sigma=1e-170;points=3"], 3),
    (["verify", "--grid", "gg:a=1;b=1e-310;points=3"], 3),
    # values past float64: a fitted density's moments, draws, a sweep grid
    (["simulate", "--dist=gg:a=1,b=1e200", "--n=1000", "--k1=1", "--k2=3"], 3),
    (["simulate", "--dist=gauss:sigma=1e308", "--n=1000", "--k1=1", "--k2=3"], 3),
    (["analyze", "--dist=uniform:w=1", "--k1=1", "--k2=3", "--mc-n=1000", "--span=1e200"], 3),
    (["verify", "--grid=eq1:a=1;x=0.05,inf,2"], 1),
], ids=["laplace_tiny", "gauss_tiny", "gg_tiny", "fitted_huge", "draws_huge", "grid_huge", "eq1_inf"])
def test_unrepresentable_values_exit_with_one_error_line(argv, code, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []


class TestCsvReader:
    def test_error_and_pair_modes(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("error\n1.5\n-0.5\n\n2.0\n", encoding="utf-8")
        np.testing.assert_array_equal(read_error_csv(str(p)), [1.5, -0.5, 2.0])
        q = tmp_path / "b.csv"
        q.write_text("y,yhat\n10.0,11.5\n3.0,2.0\n", encoding="utf-8")
        np.testing.assert_array_equal(read_error_csv(str(q)), [1.5, -1.0])

    def test_header_required(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("z\n1.0\n", encoding="utf-8")
        with pytest.raises(CliInputError, match="header"):
            read_error_csv(str(p))

    def test_bad_cell_reports_line_number(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("error\n1.0\nnot-a-number\n", encoding="utf-8")
        with pytest.raises(CliInputError, match="line 3"):
            read_error_csv(str(p))

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("y,yhat\n1.0\n", encoding="utf-8")
        with pytest.raises(CliInputError, match="line 2"):
            read_error_csv(str(p))

    def test_empty_inputs(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(CliInputError, match="empty"):
            read_error_csv(str(p))
        p.write_text("error\n", encoding="utf-8")
        with pytest.raises(CliInputError, match="no data"):
            read_error_csv(str(p))


# Cell spellings around the edge of what csv plus float() accepts.
_NUMBER_CELLS = [
    "0", "-0", "1.5", "-2.25", "3e-5", "1E+3", "+.5", "7.", "inf", "-Infinity",
    "nan", "NaN", "-nan", "1e400", "-1e400", "4.9e-324", '"1.5"', '"-2"',
    " 1.5 ", "\t2\x0c", "\xa03", '"1.5" ', '" 4 "', "1_0", "１", "٣.٥",
    # around csv's field size limit of 131 072 characters
    " " * 131_000 + "3", " " * 140_000 + "1.5", '"' + " \n" * 70_000 + '2"',
]
_JUNK_CELLS = [
    "", " ", '""', "abc", "nan(1)", "0x10", "1.5.2", '"1,5"', '"1""5"', '1"5',
    ' "1.5"', '"1.5"x', "1 2", "1\x00", '"2\n"', '"3',
]
_SPECIAL_ROWS = ["", " ", "\t", " , ", ",", ",,", " ,\t, "]
_HEADERS = {
    1: ["error", "Error", " ERROR ", '"error"', "\terror", '"error\n"', '"\nerror"'],
    2: ["y,yhat", "Y , YHAT", ' y,"yhat"', "y ,yhat", '"y\n",yhat'],
}


def _good_prefix(n_cols):
    """1 000 rows that the one-pass parse accepts."""
    return [",".join(f"{(7 * i + j) % 13 - 6.25:.3f}" for j in range(n_cols)) for i in range(1000)]


@st.composite
def error_logs(draw):
    """Bytes of an error-log CSV from the accepted grammar and just outside it."""
    n_cols = draw(st.sampled_from([1, 2]))
    header = draw(st.one_of(*[st.sampled_from(_HEADERS[n_cols])] * 3,
                            st.sampled_from(["err", "yhat,y", "", "error,"])))
    number = st.one_of(
        st.sampled_from(_NUMBER_CELLS),
        st.floats().map(repr),
        st.floats(-1e6, 1e6).map(lambda v: f"{v:.2f}"),
    )
    good = st.lists(number, min_size=n_cols, max_size=n_cols).map(",".join)
    other = st.one_of(
        st.sampled_from(_SPECIAL_ROWS),
        st.lists(st.one_of(number, st.sampled_from(_JUNK_CELLS)), min_size=1, max_size=3).map(",".join),
    )
    rows = draw(st.lists(good if draw(st.booleans()) else st.one_of(good, good, other),
                         max_size=12))
    if draw(st.booleans()):
        rows = _good_prefix(n_cols) + rows
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3))
    text = header
    for i, row in enumerate(rows):
        text += endings[i % len(endings)] + row
    if draw(st.booleans()):
        text += endings[0]
    return text.encode("utf-8") + draw(st.sampled_from([b""] * 7 + [b"\xff\xfe1\n"]))


def _read_outcome(read, path):
    try:
        out = read(path)
    except (ValueError, csv.Error) as exc:  # CliInputError, UnicodeDecodeError
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


def _read_piped(data, name):
    """``_read_outcome`` of ``read_error_csv`` on data sent through a pipe,
    with the pipe's path in an error message replaced by ``name``."""
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)  # the data may exceed the pipe's buffer
    writer.start()
    try:
        outcome = _read_outcome(read_error_csv, f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)  # a writer still blocked on the pipe now stops
        writer.join(timeout=60)
    assert not writer.is_alive()
    if isinstance(outcome[1], str):
        return outcome[0], outcome[1].replace(f"/dev/fd/{read_end}", name)
    return outcome


class TestCsvParity:
    """The one-pass reader against the row loop it replaced (tests/_oracles.py)."""

    @given(data=error_logs())
    @example(data=b"error\r1.5\r\r-2\r")
    @example(data=b"y,yhat\r\n1,2\r\n \r\n,\r\n3,5\r\n")
    @example(data=("error\n" + "\n".join(_good_prefix(1)) + "\n1_0\n").encode())
    @example(data=("y,yhat\n" + "\n".join(_good_prefix(2)) + "\n1,x\n").encode())
    @example(data=("error\n" + "\n".join(_good_prefix(1)) + "\n1,2\n").encode())
    @example(data='"error\n"\n"5"\n'.encode())
    @example(data=b"error\n1,2\n3,4\n")
    @example(data=b"y,yhat\n1\n2\n")
    @example(data=b"error\n1.5\n" + b" " * 140_000 + b"2\n")
    @example(data=b"error\n1.5\n" + b" " * 140_000 + b"2\n \n")
    @example(data=("error\r\n" + "\r\n".join(_good_prefix(1)) + "\r\n").encode())
    @example(data=b'"error\r\n"\r\n5"\r\n')  # skipping one line leaves numpy the cell "\r\n5"
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_array_or_same_error(self, data, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        want = _read_outcome(read_error_csv_rows, str(path))
        assert _read_outcome(read_error_csv, str(path)) == want
        # Piped, the same bytes are parsed from memory, behind the same gates.
        assert _read_piped(data, str(path)) == want

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_is_plain_text(self, suffix, tmp_path):
        # numpy would open a path with this suffix through a decompressor.
        path = tmp_path / f"log.csv{suffix}"
        path.write_bytes(("error\n" + "\n".join(_good_prefix(1)) + "\n").encode())
        assert _read_outcome(read_error_csv, str(path)) == _read_outcome(
            read_error_csv_rows, str(path))

    def test_numpy_gets_the_path_of_a_regular_file_only(self, tmp_path, monkeypatch):
        sources = []

        def loadtxt(fname, *args, _loadtxt=np.loadtxt, **kwargs):
            sources.append(fname)
            return _loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        data = ("y,yhat\n" + "\n".join(_good_prefix(2)) + "\n").encode()
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        from_file = read_error_csv(str(path))
        assert sources == [str(path)]  # a str, not the open handle
        sources.clear()
        read_end, write_end = os.pipe()
        try:
            with open(write_end, "wb") as fh:  # fits in the pipe's buffer
                fh.write(data)
            from_pipe = read_error_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        # A pipe cannot be opened a second time: numpy gets the bytes read.
        assert len(sources) == 1 and not isinstance(sources[0], str)
        np.testing.assert_array_equal(from_pipe, from_file)

    def test_piped_log_matches_the_path_read(self, tmp_path):
        # 100 000 rows, half rounded to 2 decimals and half with 9 significant
        # digits, under both headers: bit for bit the array read by path.
        errors = np.random.default_rng(47).laplace(size=100_000)
        cells = [f"{v:.2f}" if i % 2 else f"{v:.9g}" for i, v in enumerate(errors)]
        for header, rows in [("error", cells), ("y,yhat", [f"0.5,{c}" for c in cells])]:
            data = (header + "\n" + "\n".join(rows) + "\n").encode()
            path = tmp_path / "log.csv"
            path.write_bytes(data)
            by_path = _read_outcome(read_error_csv, str(path))
            assert by_path[1] == (100_000,)
            assert _read_piped(data, str(path)) == by_path

    @pytest.mark.parametrize("tail", [
        b"",
        b"1.5\nx\n",                         # a malformed row, named by its line
        b"\xff\xfe1\n",                      # not UTF-8
        b" " * 140_000 + b"2\n",             # a cell over csv's field size limit
    ], ids=["clean", "bad_row", "bad_utf8", "long_cell"])
    def test_piped_input_reads_like_the_file(self, tail, tmp_path):
        # Over 8 KiB, more than one buffered read of the pipe.
        errors = np.random.default_rng(5).laplace(size=1500).tolist()
        data = ("error\n" + "".join(f"{v!r}\n" for v in errors)).encode() + tail
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        argv = [sys.executable, "-m", "asymloss", "simulate", "--k1", "2", "--k2", "11",
                "--fixed-clock", "--input"]
        by_path = subprocess.run([*argv, str(path)], capture_output=True, timeout=120)
        piped = subprocess.run([*argv, "/dev/stdin"], input=data, capture_output=True,
                               timeout=120)
        renamed = [out.replace(str(path).encode(), b"/dev/stdin")
                   for out in (by_path.stdout, by_path.stderr)]
        assert (piped.returncode, [piped.stdout, piped.stderr]) == (by_path.returncode, renamed)

    @pytest.mark.parametrize("body, n_cols, rows", [
        ("1.5\n-2\n", 1, 2),
        ('"1.5"\r\n 3 \r\n\r\ninf\r\n', 1, 3),
        ("1,2\n3,4\n", 2, 2),
        ("", 1, None),             # no rows
        ("1\n \n2\n", 1, None),    # whitespace-only row
        ("1\n,\n", 1, None),       # comma-only row
        ("1_0\n", 1, None),        # Python-only spelling
        ("1,2\n", 1, None),        # column count differs from the header's
        ("1\nx\n", 1, None),       # malformed cell
    ])
    def test_parse_body_takes_clean_bodies_only(self, body, n_cols, rows, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(("error\n" if n_cols == 1 else "y,yhat\n").encode() + body.encode())
        table = cli._parse_body(str(path), n_cols)
        if rows is None:
            assert table is None
        else:
            assert table.shape == (rows, n_cols)


class TestDistSpecParsing:
    def test_families(self):
        d = parse_dist_spec("gg:a=0.5,b=1.5")
        assert d.params() == {"a": 0.5, "b": 1.5}
        assert parse_dist_spec("gauss:sigma=2").params() == {"sigma": 2.0}
        assert parse_dist_spec("laplace:b=0.25").params() == {"b": 0.25}
        assert parse_dist_spec("uniform:w=3").params() == {"w": 3.0}

    def test_whitespace_tolerated(self):
        assert parse_dist_spec("gauss: sigma = 2").params() == {"sigma": 2.0}


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestVerify:
    def test_uniform_family_grid(self, capsys):
        code = main(["verify", "--grid", "uniform:w=1,5;points=60"])
        out = capsys.readouterr()
        assert code == 0
        header, rows = parse_csv(out.out)
        assert tuple(header) == _CSV_COLUMNS
        assert len(rows) == 120
        assert all(r[-1] == "True" for r in rows)
        assert all(r[7] == "" for r in rows)  # no kernel column for uniform
        assert min(float(r[8]) for r in rows) >= -1e-9
        assert "all_passed=True" in out.err

    def test_gg_family_grid_carries_kernel(self, capsys):
        code = main(["verify", "--grid", "gg:a=0.5,1;b=1;points=40;span=6"])
        out = capsys.readouterr()
        assert code == 0
        header, rows = parse_csv(out.out)
        assert len(rows) == 80
        assert rows[0][7] == ""             # x = 0 row
        assert float(rows[1][7]) > 0.0      # interior rows carry eq1
        assert all(r[-1] == "True" for r in rows)

    def test_eq1_grid(self, capsys):
        code = main(["verify", "--grid", "eq1:a=0.5,1;x=1e-3,20,40"])
        out = capsys.readouterr()
        assert code == 0
        header, rows = parse_csv(out.out)
        assert len(rows) == 80
        assert all(r[2] == "" for r in rows)       # alpha is NaN on kernel rows
        assert all(float(r[7]) > 0.0 for r in rows)

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(["verify", "--grid", "laplace:b=1;points=30", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        header, rows = parse_csv(out.read_text(encoding="utf-8"))
        assert tuple(header) == _CSV_COLUMNS and len(rows) == 30

    @pytest.mark.parametrize("grid", [
        "eq1:a=0.5",                 # missing x
        "eq1:a=0.5;x=1,2",           # x needs lo,hi,count
        "eq1:a=0.5;x=1e-3,20,50.5",  # non-integer count
        "eq1:a=0.5;x=5,2,10",        # hi <= lo
        "uniform:w=1;points=1",      # too few points
        "nope:a=1",                  # unknown family
        "uniform:q=1",               # wrong key
        "gg:a=0.5;b=1;span=-1",      # bad span
        "uniform:",                  # empty body
        "eq1:a=0.5;x=1e-3,20,inf",   # infinite count
        "eq1:a=0.5;x=1e-3,20,nan",   # count not a number
    ])
    def test_bad_grids(self, grid, capsys):
        assert main(["verify", "--grid", grid]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("grid", [
        "gg:a=0.5,1;b=1,2;points=250001",     # 4 distributions x 250001 points
        "laplace:b=1;points=100000000000",
        "eq1:a=0.5,1;x=1e-3,20,500001",
    ])
    def test_grid_size_cap(self, grid, capsys, monkeypatch):
        # The cap is checked before any grid array exists.
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated before its size was checked")

        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr(np, "geomspace", refuse)
        assert main(["verify", "--grid", grid]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"at most {MAX_GRID_ROWS}" in err

    def test_grid_size_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(
            cli, "_sweep_blocks", lambda dists, n_points, span: [n_points * len(dists)]
        )
        monkeypatch.setattr(cli, "_eq1_blocks", lambda a, x: [len(a) * x.size])
        assert parse_grid_spec(f"laplace:b=1,2;points={MAX_GRID_ROWS // 2}") == [MAX_GRID_ROWS]
        assert parse_grid_spec(f"eq1:a=1;x=1,2,{MAX_GRID_ROWS}") == [MAX_GRID_ROWS]

    def test_parse_grid_spec_returns_columns(self):
        blocks = parse_grid_spec("laplace:b=1,2;points=10;span=4")
        assert [(dist_id, columns.shape) for dist_id, columns in blocks] == [
            ("laplace(b=1)", (10, 8)), ("laplace(b=2)", (10, 8)),
        ]
        # two-key grids: the first key varies slowest
        gg = parse_grid_spec("gg:a=0.5,1;b=1,2;points=2")
        assert [dist_id for dist_id, _ in gg] == [
            "generalized_gaussian(a=0.5,b=1)", "generalized_gaussian(a=0.5,b=2)",
            "generalized_gaussian(a=1,b=1)", "generalized_gaussian(a=1,b=2)",
        ]

    @pytest.mark.parametrize("grid, reports", [
        # the README grids
        ("gg:a=0.25,0.5,1,2;b=0.5,1,3;points=200", lambda: sweep(
            [GeneralizedGaussian(a, b) for a in (0.25, 0.5, 1, 2) for b in (0.5, 1, 3)],
            n_points=200)),
        ("eq1:a=0.1,0.5,1;x=1e-3,20,100", lambda: sweep_eq1(
            [0.1, 0.5, 1], np.geomspace(1e-3, 20, 100))),
        ("eq1:a=0.01,3,40;x=1e-5,500,77", lambda: sweep_eq1(
            [0.01, 3, 40], np.geomspace(1e-5, 500, 77))),
        # every eq1 cell is NaN
        ("laplace:b=0.5,2;points=33;span=4", lambda: sweep(
            [Laplace(0.5), Laplace(2)], n_points=33, span=4)),
        ("gauss:sigma=1e-100;points=30", lambda: sweep([Gaussian(1e-100)], n_points=30)),
    ])
    def test_csv_matches_csv_writer_oracle(self, grid, reports, tmp_path, capsys):
        reports = reports()
        want = verify_csv_text(reports)
        summary = (
            f"points={len(reports)} min_margin={min(r.margin for r in reports):.6e} "
            f"all_passed={all(r.passed for r in reports)}\n"
        )
        assert main(["verify", "--grid", grid]) == 0
        assert capsys.readouterr() == (want, summary)
        path = tmp_path / "grid.csv"
        assert main(["verify", "--grid", grid, "--out", str(path)]) == 0
        assert path.read_bytes() == want.encode("utf-8")
        assert capsys.readouterr() == ("", summary)

    @given(kind=st.lists(
        st.one_of(st.sampled_from([",", '"', "\n", "\r", "\r\n", " "]), st.text(max_size=3)),
        max_size=8,
    ).map("".join))
    @settings(max_examples=60, deadline=None)
    def test_dist_id_quoted_as_csv_quotes_it(self, kind):
        # A custom family may name itself anything; csv decides the quoting.
        dist = Laplace(1.0)
        dist.kind = kind
        want = verify_csv_text(sweep([dist], n_points=3, span=1.0))
        assert cli._verify_csv(_sweep_blocks([dist], 3, 1.0)) == want

    def test_standardized_once_per_table_and_pdf(self, monkeypatch, capsys):
        # Per GG distribution: the second-moment table, the sweep table, and
        # one X of the grid for both the pdf and the kernel column.
        calls = []
        standardized = GeneralizedGaussian._standardized

        def counted(self, x):
            calls.append(1)
            return standardized(self, x)

        monkeypatch.setattr(GeneralizedGaussian, "_standardized", counted)
        grid = "gg:a=0.3,0.5,0.9,1.6,2.8,5;b=1.3;points=50"
        assert main(["verify", "--grid", grid]) == 0
        capsys.readouterr()
        assert len(calls) == 3 * 6


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


class TestSimulate:
    def test_synthetic_backtest(self, capsys):
        code, payload, err = run_json(
            capsys,
            ["simulate", "--dist", "laplace:b=1", "--n", "6000",
             "--k1", "1", "--k2", "3", "--seed", "2", "--fixed-clock"],
        )
        assert code == 0
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["n_train"] == 3000 and payload["n_test"] == 3000
        assert 0.5 < payload["offset"] < 0.9
        pol = payload["policies"]
        assert pol["corrected"]["variance"] < pol["uncorrected"]["variance"]
        assert pol["corrected"]["mean"] < pol["uncorrected"]["mean"]
        assert payload["deltas"]["variance"] == pytest.approx(
            pol["uncorrected"]["variance"] - pol["corrected"]["variance"], rel=1e-12
        )
        assert payload["degenerate_train"] is False
        assert payload["fitted_solution"]["C"] == payload["offset"]
        assert "offset=" in err

    def test_symmetric_costs_are_a_no_op(self, capsys):
        code, payload, _ = run_json(
            capsys,
            ["simulate", "--dist", "gauss:sigma=1", "--n", "2000",
             "--k1", "2", "--k2", "2", "--seed", "1", "--fixed-clock"],
        )
        assert code == 0
        assert payload["offset"] == 0.0
        assert payload["policies"]["corrected"] == payload["policies"]["uncorrected"]

    def test_degenerate_training_split(self, capsys, tmp_path):
        path = write_errors(tmp_path / "z.csv", [0.0] * 100)
        code, payload, _ = run_json(
            capsys,
            ["simulate", "--input", path, "--k1", "1", "--k2", "3", "--fixed-clock"],
        )
        assert code == 0
        assert payload["degenerate_train"] is True
        assert payload["offset"] == 0.0
        assert payload["fitted_solution"] is None

    def test_insufficient_training_data(self, capsys):
        code = main(["simulate", "--dist", "laplace:b=1", "--n", "40",
                     "--k1", "1", "--k2", "3"])
        assert code == 2
        capsys.readouterr()

    def test_short_training_split_is_named(self, capsys, tmp_path):
        path = write_errors(tmp_path / "short.csv", [0.5, -0.25, 1.0])
        code = main(["simulate", "--input", path, "--k1", "1", "--k2", "3"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the training split holds 1 of the 3 errors at --train-frac 0.5: "
            "need at least 30 observations, got 1\n"
        )

    def test_lopsided_training_errors(self, capsys, tmp_path):
        values = list(np.abs(Laplace(1.0).sample(400, seed=9)) + 1e-9)
        path = write_errors(tmp_path / "pos.csv", values)
        code = main(["simulate", "--input", path, "--k1", "1", "--k2", "3"])
        assert code == 2
        assert "sign test" in capsys.readouterr().err

    def test_input_validation(self, capsys):
        # --dist without --n, both sources, bad train fraction
        assert main(["simulate", "--dist", "laplace:b=1",
                     "--k1", "1", "--k2", "2"]) == 1
        assert main(["simulate", "--k1", "1", "--k2", "2"]) == 1
        assert main(["simulate", "--dist", "laplace:b=1", "--n", "100",
                     "--k1", "1", "--k2", "2", "--train-frac", "1.5"]) == 1
        capsys.readouterr()


# ----------------------------------------------------------------------
# module entry point
# ----------------------------------------------------------------------


# Values for the fuzz below.  Each argv is either tame (every value from the
# accepted grammar, including huge and tiny reals) or wild (any value may be
# negative, non-finite or malformed, and flags may be missing or unknown).
# Sizes stay small: a huge sample or grid is valid input that takes as long
# as it asks for, not an error.
_TAME_REALS = st.one_of(
    *[st.floats(0.05, 20.0).map(lambda v: f"{v:.3g}")] * 4,
    st.sampled_from(["1e12", "1e-12", "1e200", "1e-200", "1e308", "1e-308", "5e-324"]),
)
_WILD_REALS = st.one_of(
    _TAME_REALS,
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e400", "-1e308", "", "x", "1,5"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_TAME_SIZES = st.integers(1000, 2500).map(str)  # sample sizes: at least 1000 are needed
_TAME_POINTS = st.integers(2, 300).map(str)
_BAD_SIZES = st.one_of(st.integers(-3, 999).map(str), st.sampled_from(["x", "1.5", "1e3"]))
_TAME_SEEDS = st.integers(0, 2**80).map(str)
_WILD_SEEDS = st.one_of(_TAME_SEEDS, st.integers(-5, -1).map(str), st.sampled_from(["x", "1.0"]))
_KEYS = {"gg": ["a", "b"], "gauss": ["sigma"], "laplace": ["b"], "uniform": ["w"]}


@st.composite
def _dist_specs(draw, wild, sep=","):
    reals = _WILD_REALS if wild else _TAME_REALS
    family = draw(st.sampled_from([*_KEYS, "cauchy", ""] if wild else [*_KEYS]))
    keys = _KEYS.get(family, ["b"])
    if wild and draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(["a", "b", "sigma", "w", "points"]), max_size=3))
    return f"{family}:" + sep.join(f"{k}={draw(reals)}" for k in keys)


@st.composite
def _grid_specs(draw, wild):
    reals = _WILD_REALS if wild else _TAME_REALS
    if draw(st.integers(0, 3)):
        extra = draw(st.sampled_from(["", ";points=5", ";span=2"]))
        if wild:
            extra += draw(st.sampled_from(["", ";points=1", ";points=x", ";span=inf"]))
        return draw(_dist_specs(wild, sep=";")) + extra
    a = ",".join(draw(st.lists(reals, min_size=1, max_size=2)))
    lo, hi = sorted(draw(st.lists(_TAME_REALS, min_size=2, max_size=2)), key=float)
    count = "20"
    if wild:
        lo, hi, count = draw(reals), draw(reals), draw(st.sampled_from(["2", "1", "2.5", "nan"]))
    return f"eq1:a={a};x={lo},{hi},{count}"


@st.composite
def _argv(draw, csv_path, out_path):
    """Options are passed as --flag=value, so that a value such as -1 is not
    read as a flag."""
    wild = not draw(st.integers(0, 2))
    reals = _WILD_REALS if wild else _TAME_REALS
    sizes = st.one_of(_TAME_SIZES, _BAD_SIZES) if wild else _TAME_SIZES
    points = st.one_of(_TAME_POINTS, _BAD_SIZES) if wild else _TAME_POINTS
    command = draw(st.sampled_from(["analyze", "verify", "simulate"] + ["fit"] * wild))
    argv = [command]
    if command == "verify":
        argv.append(f"--grid={draw(_grid_specs(wild))}")
    else:
        sources = ["dist", "input"] + ["missing", "both", "none"] * wild
        source = draw(st.sampled_from(sources))
        if source in ("dist", "both"):
            argv.append(f"--dist={draw(_dist_specs(wild))}")
        if source in ("input", "both"):
            argv.append(f"--input={csv_path}")
        if source == "missing":
            argv.append(f"--input={csv_path}.absent")
        for flag in ("--k1", "--k2"):
            if not wild or draw(st.integers(0, 5)):
                argv.append(f"{flag}={draw(reals)}")
        if draw(st.booleans()):
            argv.append(f"--seed={draw(_WILD_SEEDS if wild else _TAME_SEEDS)}")
        if command == "analyze":
            argv += [f"--mc-n={draw(sizes)}", f"--grid-points={draw(points)}"]
            if draw(st.booleans()):
                argv.append(f"--span={draw(reals)}")
        else:
            if source != "input" or (wild and draw(st.booleans())):
                argv.append(f"--n={draw(sizes)}")
            if draw(st.booleans()):
                argv.append(f"--train-frac={draw(st.floats(0.05, 0.95).map(repr) if not wild else reals)}")
        argv += draw(st.sampled_from([[], ["--fixed-clock"]]))
    argv += draw(st.sampled_from([[], [f"--out={out_path}"]] + [["--bogus"]] * wild))
    return argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMainFuzz:
    """Over argv drawn from the CLI grammar, main() returns an exit code, and
    numpy's RuntimeWarnings are errors: none may reach stderr."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_returns_an_exit_code(self, data, tmp_path, capsys):
        csv_path = write_errors(tmp_path / "log.csv", np.random.default_rng(3).laplace(size=60))
        argv = data.draw(_argv(csv_path, str(tmp_path / "out.json")))
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        assert sum(line.startswith("error:") for line in err.splitlines()) <= 1


class TestEntryPoint:
    def test_refused_argv_leaves_the_parser_as_new(self, capsys):
        # The parser is built once per process and serves every main() call.
        good = ["analyze", "--dist", "laplace:b=1", "--k1", "1", "--k2", "3",
                "--mc-n", "2000", "--grid-points", "20", "--fixed-clock"]
        fresh = subprocess.run(
            [sys.executable, "-m", "asymloss", *good], capture_output=True, timeout=120,
        )
        for bad in (
            ["analyze", "--dist", "laplace:b=1", "--seed", "5", "--span", "2", "--k1", "1"],
            ["analyze", "--dist", "laplace:b=1", "--input", "e.csv", "--k1", "1", "--k2", "3"],
            ["verify", "--grid", "uniform:w=1", "--seed", "3"],
            ["simulate", "--k1", "2"],
            [],
        ):
            assert main(bad) == 1
        capsys.readouterr()
        assert main(good) == fresh.returncode == 0
        out = capsys.readouterr()
        assert (out.out.encode(), out.err.encode()) == (fresh.stdout, fresh.stderr)

    def test_runs_as_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "asymloss", "verify",
             "--grid", "uniform:w=1;points=20"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(",".join(_CSV_COLUMNS))

    def test_import_leaves_out_scipy_stats(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, asymloss, asymloss.cli; "
             "print([m for m in ('scipy.stats', 'scipy.integrate', 'scipy.optimize') "
             "if m in sys.modules])"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_scipy_free_paths_leave_out_scipy(self):
        # scipy.special is imported on first use: nothing here needs it.
        script = (
            "import io, sys, contextlib\n"
            "import numpy as np\n"
            "import asymloss, asymloss.cli\n"
            "def loaded(step):\n"
            "    print(step, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "loaded('import')\n"
            "class Triangular(asymloss.ErrorDistribution):\n"
            "    def pdf(self, x):\n"
            "        return np.maximum(1.0 - np.abs(x), 0.0)\n"
            "tri = Triangular()\n"
            "asymloss.savings_report(tri, asymloss.LossParams(1.0, 3.0))\n"
            "asymloss.sweep([tri], n_points=20)\n"
            "tri.quantile(0.9)\n"
            "loaded('pdf_only')\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    assert asymloss.cli.main(['analyze', '--dist', 'laplace:b=1', '--k1', '1', '--k2', '3',\n"
            "                              '--mc-n', '20000', '--fixed-clock']) == 0\n"
            "loaded('analyze_laplace')\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert asymloss.cli.main(['verify', '--grid', 'uniform:w=1;points=20']) == 0\n"
            "loaded('verify_uniform')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"{step} []" for step in ("import", "pdf_only", "analyze_laplace", "verify_uniform")
        ]

    @pytest.mark.parametrize("snippet", [
        "asymloss.GeneralizedGaussian(0.75, 1.3)",
        "asymloss.Gaussian(2.0).partial_moments(0.5)",
        "asymloss.sweep_eq1([0.5], [1.0, 2.0])",
    ], ids=["gg", "gauss_moments", "eq1"])
    def test_closed_forms_load_scipy_special(self, snippet):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, asymloss; before = 'scipy.special' in sys.modules; {snippet}; "
             "print(before, 'scipy.special' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_first_use_matches_a_preloaded_run(self):
        # In a fresh process the solve is the first to reach scipy.special and
        # imports it; the report is the same as with it imported beforehand.
        argv = ["analyze", "--dist", "gauss:sigma=1.3", "--k1", "2", "--k2", "11",
                "--mc-n", "200000", "--seed", "7", "--fixed-clock"]
        fresh = subprocess.run(
            [sys.executable, "-m", "asymloss", *argv], capture_output=True, timeout=120,
        )
        preloaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, scipy.special; from asymloss.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, timeout=120,
        )
        assert fresh.returncode == preloaded.returncode == 0, fresh.stderr
        assert (fresh.stdout, fresh.stderr) == (preloaded.stdout, preloaded.stderr)

    def test_fit_empirical_imports_optimize_on_use(self):
        # 20 equal-count bins whose raw heights differ in their last bits:
        # the monotone fit pools them into 2 blocks, one piece each.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, numpy as np, asymloss; "
             "v = np.arange(1, 21) / 20.0; "
             "dist, _ = asymloss.fit_empirical(np.concatenate([-v, v])); "
             "print(dist.params()['n_pieces'], 'scipy.optimize' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "True"]

    def test_no_arguments_is_input_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "asymloss"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
