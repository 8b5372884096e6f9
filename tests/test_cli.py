"""End-to-end and unit tests for the command-line interface."""

import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from _oracles import read_error_csv_rows
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from asymloss import Gaussian, Laplace, OffsetSolution, SavingsReport, cli
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
    "uniform:w=1e300", "gg:a=3,b=1e100", "laplace:b=1e300", "gauss:sigma=1e300",
])
def test_overflowing_scale_exits_3_with_one_error_line(spec, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", "--dist", spec, "--k1", "1", "--k2", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []


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
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_array_or_same_error(self, data, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        assert _read_outcome(read_error_csv, str(path)) == _read_outcome(
            read_error_csv_rows, str(path))

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
    def test_parse_body_takes_clean_bodies_only(self, body, n_cols, rows):
        table = cli._parse_body(io.StringIO(body, newline=""), n_cols)
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
        monkeypatch.setattr(cli, "sweep", lambda dists, n_points, span: [n_points * len(dists)])
        monkeypatch.setattr(cli, "sweep_eq1", lambda a, x: [len(a) * x.size])
        assert parse_grid_spec(f"laplace:b=1,2;points={MAX_GRID_ROWS // 2}") == [MAX_GRID_ROWS]
        assert parse_grid_spec(f"eq1:a=1;x=1,2,{MAX_GRID_ROWS}") == [MAX_GRID_ROWS]

    def test_parse_grid_spec_returns_reports(self):
        reports = parse_grid_spec("laplace:b=1,2;points=10;span=4")
        assert len(reports) == 20
        assert {r.dist_id for r in reports} == {"laplace(b=1)", "laplace(b=2)"}
        # two-key grids: the first key varies slowest
        gg = parse_grid_spec("gg:a=0.5,1;b=1,2;points=2")
        assert [r.dist_id for r in gg[::2]] == [
            "generalized_gaussian(a=0.5,b=1)", "generalized_gaussian(a=0.5,b=2)",
            "generalized_gaussian(a=1,b=1)", "generalized_gaussian(a=1,b=2)",
        ]


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

    def test_fit_empirical_imports_optimize_on_use(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, numpy as np, asymloss; "
             "v = np.arange(1, 21) / 20.0; "
             "dist, _ = asymloss.fit_empirical(np.concatenate([-v, v])); "
             "print(dist.params()['n_pieces'], 'scipy.optimize' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["20", "True"]

    def test_no_arguments_is_input_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "asymloss"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
