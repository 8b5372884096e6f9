"""Command-line interface.

Three subcommands:

``analyze``
    Solve for the optimal offset of a parametric or fitted error
    distribution, price the savings, sweep the supporting inequalities,
    and cross-check the analytic moments against Monte Carlo.  Emits a
    JSON report (schema_version 1).

``verify``
    Evaluate the inequality battery on a parameter grid and emit one CSV
    row per grid point.

``simulate``
    Backtest the offset policy: fit on the first part of an error
    series, apply the offset to the rest, and report realized costs
    under the corrected and uncorrected policies.

Exit codes: 0 success; 1 malformed or unreadable input (arguments, files,
CSV, grid grammar); 2 assumption failure (gross sign asymmetry, too little
or degenerate data, empty test split); 3 numerical failure (cross-check
disagreement, failed Monte Carlo verdict, violated inequality margin).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import itertools
import json
import math
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from .distributions import (
    ErrorDistribution,
    Gaussian,
    GeneralizedGaussian,
    Laplace,
    Uniform,
    fit_empirical,
)
from .errors import (
    CrossCheckError,
    DegenerateDistributionError,
    InsufficientDataError,
    NumericError,
)
from .inequalities import MARGIN_TOL, InequalityReport, sweep, sweep_eq1
from .loss_model import LossParams, loss
from .montecarlo import estimate_loss_stats
from .solver import savings_report

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ASSUMPTION = 2
EXIT_NUMERIC = 3

SCHEMA_VERSION = 1
FIXED_CLOCK = "1970-01-01T00:00:00Z"

# Two-sided sign-test p-value below which the symmetry assumption is
# considered untenable and analysis refuses to continue.
SIGN_TEST_HARD_P = 1e-3
# Above the hard threshold but below this, the report carries a warning.
SIGN_TEST_WARN_P = 5e-2

_MC_SIGMAS = 5.0

# Most rows a verify grid may have (distributions x points, or a values x
# x count).  Every row is held in memory as a report before the CSV is
# written, so larger grids are refused before anything is allocated.
MAX_GRID_ROWS = 10**6


class CliInputError(ValueError):
    """Bad arguments, CSV contents, or grid grammar."""


# ----------------------------------------------------------------------
# input parsing
# ----------------------------------------------------------------------

# The parametric families by CLI name; each one's parameter keys are its
# constructor's arguments.
_FAMILIES = {
    "gg": GeneralizedGaussian,
    "gauss": Gaussian,
    "laplace": Laplace,
    "uniform": Uniform,
}


def _family_keys(family: str) -> tuple:
    return tuple(inspect.signature(_FAMILIES[family]).parameters)


def parse_dist_spec(spec: str) -> ErrorDistribution:
    """Parse 'gg:a=0.5,b=1' / 'gauss:sigma=2' / 'laplace:b=1' / 'uniform:w=1'."""
    family, sep, rest = spec.partition(":")
    family = family.strip()
    if family not in _FAMILIES:
        raise CliInputError(
            f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}"
        )
    if not sep or not rest.strip():
        raise CliInputError(f"missing parameters in distribution spec {spec!r}")
    keys = _family_keys(family)
    values = {}
    for item in rest.split(","):
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq or key not in keys:
            raise CliInputError(
                f"bad parameter {item!r} for family {family!r}; expected keys {keys}"
            )
        try:
            values[key] = float(val)
        except ValueError as exc:
            raise CliInputError(f"could not parse number in {item!r}") from exc
    missing = [k for k in keys if k not in values]
    if missing:
        raise CliInputError(f"missing parameters {missing} in spec {spec!r}")
    return _FAMILIES[family](**values)


def _check_grid_size(rows: int):
    if rows > MAX_GRID_ROWS:
        raise CliInputError(f"grid has {rows} rows; at most {MAX_GRID_ROWS} are allowed")


def _parse_float_list(text: str, what: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise CliInputError(f"could not parse {what} list {text!r}") from exc


def parse_grid_spec(spec: str):
    """Parse a verify grid and run the matching sweep.

    Family grids: 'gg:a=0.25,0.5;b=1,3[;points=200][;span=10]' (and
    likewise gauss/laplace/uniform with their own parameter key).
    Kernel grids: 'eq1:a=0.1,0.5;x=1e-3,20,50' with x as lo,hi,count
    (log-spaced).
    """
    head, sep, rest = spec.partition(":")
    head = head.strip()
    if not sep or not rest.strip():
        raise CliInputError(f"empty grid spec {spec!r}")
    fields = {}
    for item in rest.split(";"):
        key, eq, val = item.partition("=")
        if not eq:
            raise CliInputError(f"bad grid field {item!r}; expected key=value")
        fields[key.strip()] = val.strip()

    if head == "eq1":
        extra = set(fields) - {"a", "x"}
        if extra or "a" not in fields or "x" not in fields:
            raise CliInputError("eq1 grid needs exactly the fields a=... and x=lo,hi,count")
        a_values = _parse_float_list(fields["a"], "a")
        x_parts = _parse_float_list(fields["x"], "x")
        if len(x_parts) != 3 or not 0 < x_parts[0] < x_parts[1] < math.inf:
            raise CliInputError("eq1 x field must be lo,hi,count with 0 < lo < hi < inf")
        count = x_parts[2]
        if not (math.isfinite(count) and count >= 2 and count == int(count)):
            raise CliInputError("eq1 x count must be an integer >= 2")
        count = int(count)
        _check_grid_size(len(a_values) * count)
        return sweep_eq1(a_values, np.geomspace(x_parts[0], x_parts[1], count))

    if head not in _FAMILIES:
        raise CliInputError(
            f"unknown grid family {head!r}; expected eq1 or one of {sorted(_FAMILIES)}"
        )
    try:
        points = int(fields.pop("points", 200))
        span = float(fields.pop("span", 10.0))
    except ValueError as exc:
        raise CliInputError("points/span must be numeric") from exc
    keys = _family_keys(head)
    if set(fields) != set(keys):
        raise CliInputError(f"family {head!r} needs exactly the fields {keys}")
    lists = [_parse_float_list(fields[k], k) for k in keys]
    # One distribution per combination, the first key varying slowest.
    dists = [_FAMILIES[head](*values) for values in itertools.product(*lists)]
    if points < 2:
        raise CliInputError("points must be >= 2")
    if not (math.isfinite(span) and span > 0):
        raise CliInputError("span must be a positive real")
    _check_grid_size(len(dists) * points)
    return sweep(dists, n_points=points, span=span)


def _within_field_limit(path: str) -> bool:
    """False when a cell of the file may exceed csv's field size limit.

    An unquoted cell that long spans a whole aligned block of half the
    limit with no comma or line break in it (each is one byte in UTF-8); a
    quoted cell may hold both, so a long file with a quote is not cleared
    either.  Reads the file in blocks, so memory stays at one block.
    """
    limit = csv.field_size_limit()
    step = max(limit // 2, 1)
    size, quoted = 0, False
    with open(path, "rb") as raw:
        while block := raw.read(step):
            size += len(block)
            quoted = quoted or b'"' in block
            if len(block) == step and not (b"," in block or b"\n" in block or b"\r" in block):
                return False
    return size <= limit or not quoted


def _parse_body(fh, n_cols: int):
    """The rows after the header as an (n, n_cols) array, or None.

    One C-level pass by ``np.loadtxt``.  Every cell it accepts, ``float()``
    accepts with the same value, so a table it returns is what the row loop
    in ``read_error_csv`` would build.  It refuses more: whitespace-only or
    comma-only rows, ``1_0`` or non-ASCII digits, and malformed rows.  None
    means the caller reads the body row by row instead.
    """
    with warnings.catch_warnings():
        # An empty body is reported by the row loop, not as a warning.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = np.loadtxt(
                fh, delimiter=",", quotechar='"', comments=None, dtype=float, ndmin=2
            )
        except ValueError:  # also UnicodeDecodeError
            return None
    if table.shape[0] == 0 or table.shape[1] != n_cols:
        return None
    return table


def read_error_csv(path: str) -> np.ndarray:
    """Read errors from a CSV with header 'error' or 'y,yhat' (error = yhat - y)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CliInputError(f"{path}: empty file") from None
        cols = [c.strip().lower() for c in header]
        if cols == ["error"]:
            pair_mode = False
        elif cols == ["y", "yhat"]:
            pair_mode = True
        else:
            raise CliInputError(
                f"{path}: unsupported header {header!r}; expected 'error' or 'y,yhat'"
            )
        # Parse from this handle, not from the path: numpy opens a path by its
        # suffix (.gz, .bz2, ...), and skiprows counts lines, not csv records.
        # A file that may hold a cell over csv's field size limit goes to the
        # row loop, which refuses such a cell wherever it sits.
        table = _parse_body(fh, len(cols)) if _within_field_limit(path) else None
        if table is not None:
            with np.errstate(invalid="ignore"):  # inf - inf: refused later as non-finite
                return table[:, 1] - table[:, 0] if pair_mode else table[:, 0]
        # Read the body again row by row: this skips blank rows, accepts every
        # spelling float() does, and names the line of a malformed row.
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        out = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(cols):
                raise CliInputError(
                    f"{path}: line {lineno}: expected {len(cols)} fields, got {len(row)}"
                )
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                raise CliInputError(
                    f"{path}: line {lineno}: could not parse {row!r} as numbers"
                ) from None
            out.append(values[1] - values[0] if pair_mode else values[0])
    if not out:
        raise CliInputError(f"{path}: no data rows")
    return np.asarray(out, dtype=float)


def _timestamp(fixed_clock: bool) -> str:
    if fixed_clock:
        return FIXED_CLOCK
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _dump_json(payload: dict, out_path):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------


def _mc_check(label, dist, params, c, analytic_mean, analytic_variance, n, seed) -> dict:
    est = estimate_loss_stats(dist, params, c, n, seed)
    mean_ok = abs(est.mean - analytic_mean) <= _MC_SIGMAS * est.std_error_mean
    var_ok = (
        abs(est.variance - analytic_variance) <= _MC_SIGMAS * est.std_error_variance
    )
    return {
        "label": label,
        "c": float(c),
        "n": n,
        "seed": seed,
        "mc_mean": est.mean,
        "mc_variance": est.variance,
        "std_error_mean": est.std_error_mean,
        "std_error_variance": est.std_error_variance,
        "analytic_mean": analytic_mean,
        "analytic_variance": analytic_variance,
        "mean_ok": bool(mean_ok),
        "variance_ok": bool(var_ok),
    }


def cmd_analyze(args) -> int:
    diagnostics = None
    if args.dist is not None:
        dist = parse_dist_spec(args.dist)
    else:
        dist, diag = fit_empirical(read_error_csv(args.input))
        diagnostics = dataclasses.asdict(diag)
        diagnostics["sign_warning"] = bool(diag.sign_pvalue < SIGN_TEST_WARN_P)
        if diag.sign_pvalue < SIGN_TEST_HARD_P:
            sys.stderr.write(
                f"error: sign test rejects symmetric errors "
                f"(p={diag.sign_pvalue:.3e} < {SIGN_TEST_HARD_P}); "
                f"{diag.n_positive} positive vs {diag.n_negative} negative\n"
            )
            return EXIT_ASSUMPTION

    params = LossParams(args.k1, args.k2)
    report = savings_report(dist, params)
    sol = report.solution
    savings = dataclasses.asdict(report)
    solution = savings.pop("solution")

    reports = sweep([dist], n_points=args.grid_points, span=args.span)
    worst = min(reports, key=lambda r: r.margin)
    sweep_ok = all(r.passed for r in reports)
    inequality_summary = {
        "n_points": len(reports),
        "min_margin": worst.margin,
        "worst_x": worst.x,
        "all_passed": bool(sweep_ok),
        "tolerance": MARGIN_TOL,
    }

    mc_checks = [
        _mc_check(
            "uncorrected",
            dist,
            params,
            0.0,
            sol.expected_at_zero,
            sol.variance_at_zero,
            args.mc_n,
            args.seed,
        ),
        _mc_check(
            "corrected",
            dist,
            params,
            sol.C,
            sol.expected_at_C,
            sol.variance_at_C,
            args.mc_n,
            args.seed + 1,
        ),
    ]
    mc_ok = all(c["mean_ok"] and c["variance_ok"] for c in mc_checks)

    verdict = "ok" if (sweep_ok and mc_ok) else "numerical_check_failed"
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "generated_at": _timestamp(args.fixed_clock),
        "inputs": {
            "dist": args.dist,
            "input": args.input,
            "k1": params.k1,
            "k2": params.k2,
            "mc_n": args.mc_n,
            "seed": args.seed,
            "grid_points": args.grid_points,
            "span": args.span,
        },
        "distribution": dist.describe(),
        "solution": solution,
        "savings": savings,
        "inequality_summary": inequality_summary,
        "mc_checks": mc_checks,
        "verdict": verdict,
        "diagnostics": diagnostics,
    }
    _dump_json(payload, args.out)
    sys.stderr.write(
        f"C={sol.C:.10g} expected {report.pct_expected:.2f}% lower, "
        f"variance {report.pct_variance:.2f}% lower; verdict={verdict}\n"
    )
    return EXIT_OK if verdict == "ok" else EXIT_NUMERIC


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(InequalityReport))


def _csv_cell(value):
    if isinstance(value, float) and math.isnan(value):
        return ""
    return value


def cmd_verify(args) -> int:
    reports = parse_grid_spec(args.grid)
    rows = [[_csv_cell(getattr(r, col)) for col in _CSV_COLUMNS] for r in reports]
    if args.out:
        fh = open(args.out, "w", newline="", encoding="utf-8")
    else:
        fh = sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        writer.writerows(rows)
    finally:
        if args.out:
            fh.close()
    min_margin = min(r.margin for r in reports)
    all_passed = all(r.passed for r in reports)
    sys.stderr.write(
        f"points={len(reports)} min_margin={min_margin:.6e} all_passed={all_passed}\n"
    )
    return EXIT_OK if all_passed else EXIT_NUMERIC


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def _policy_stats(costs: np.ndarray) -> dict:
    variance = float(np.var(costs, ddof=1)) if costs.size >= 2 else 0.0
    return {
        "mean": float(np.mean(costs)),
        "variance": variance,
        "total": float(np.sum(costs)),
    }


def cmd_simulate(args) -> int:
    if args.dist is not None and not args.n:
        raise CliInputError("--dist needs --n to size the synthetic series")
    if not (0.0 < args.train_frac < 1.0):
        raise CliInputError("--train-frac must lie strictly between 0 and 1")

    if args.dist is not None:
        errors = parse_dist_spec(args.dist).sample(args.n, args.seed)
    else:
        errors = read_error_csv(args.input)

    n = errors.size
    n_train = int(n * args.train_frac)
    train, test = errors[:n_train], errors[n_train:]
    if test.size == 0:
        sys.stderr.write("error: the test split is empty\n")
        return EXIT_ASSUMPTION

    params = LossParams(args.k1, args.k2)
    degenerate_train = False
    diagnostics = None
    offset = 0.0
    try:
        dist, diag = fit_empirical(train)
    except DegenerateDistributionError:
        # No spread in training errors: nothing to correct for.
        degenerate_train = True
        solution = None
    else:
        diagnostics = dataclasses.asdict(diag)
        if diag.sign_pvalue < SIGN_TEST_HARD_P:
            sys.stderr.write(
                f"error: sign test rejects symmetric errors on the training "
                f"split (p={diag.sign_pvalue:.3e})\n"
            )
            return EXIT_ASSUMPTION
        solution = savings_report(dist, params).solution
        offset = solution.C

    uncorrected = loss(test, params)
    corrected = loss(test + offset, params)
    stats_un = _policy_stats(uncorrected)
    stats_co = _policy_stats(corrected)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "generated_at": _timestamp(args.fixed_clock),
        "inputs": {
            "dist": args.dist,
            "input": args.input,
            "n": args.n,
            "k1": params.k1,
            "k2": params.k2,
            "seed": args.seed,
            "train_frac": args.train_frac,
        },
        "n_total": int(n),
        "n_train": int(n_train),
        "n_test": int(test.size),
        "offset": float(offset),
        "degenerate_train": degenerate_train,
        "fitted_solution": dataclasses.asdict(solution) if solution else None,
        "policies": {"uncorrected": stats_un, "corrected": stats_co},
        "deltas": {
            "mean": stats_un["mean"] - stats_co["mean"],
            "variance": stats_un["variance"] - stats_co["variance"],
            "total": stats_un["total"] - stats_co["total"],
        },
        "diagnostics": diagnostics,
    }
    _dump_json(payload, args.out)
    sys.stderr.write(
        f"offset={offset:.10g} applied to {test.size} held-out errors; "
        f"mean cost {stats_un['mean']:.6g} -> {stats_co['mean']:.6g}\n"
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse's default error() exits with status 2, which collides with
    # the assumption-failure code; route through the input-error path.
    def error(self, message):
        raise CliInputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="asymloss",
        description="Variance-minimizing offsets for asymmetric piecewise-linear loss.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="solve, price, and verify one configuration")
    source = pa.add_mutually_exclusive_group(required=True)
    source.add_argument("--dist", help="distribution spec, e.g. gg:a=0.5,b=1 or laplace:b=1")
    source.add_argument("--input", help="CSV of observed errors (header 'error' or 'y,yhat')")
    pa.add_argument("--k1", type=float, required=True, help="unit cost of overshoot")
    pa.add_argument("--k2", type=float, required=True, help="unit cost of undershoot")
    pa.add_argument("--mc-n", type=int, default=200_000, help="Monte Carlo sample size")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--grid-points", type=int, default=200)
    pa.add_argument("--span", type=float, default=10.0, help="sweep reach in scale units")
    pa.add_argument("--out", help="write the JSON report here instead of stdout")
    pa.add_argument("--fixed-clock", action="store_true", help="deterministic timestamp")
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="run an inequality sweep over a parameter grid")
    pv.add_argument(
        "--grid",
        required=True,
        help="grid spec, e.g. 'gg:a=0.25,0.5;b=1,3;points=100' or 'eq1:a=0.5;x=1e-3,20,50'",
    )
    pv.add_argument("--out", help="write the CSV here instead of stdout")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("simulate", help="backtest the offset on held-out errors")
    source = ps.add_mutually_exclusive_group(required=True)
    source.add_argument("--dist", help="generate synthetic errors from this spec")
    source.add_argument("--input", help="CSV of observed errors")
    ps.add_argument("--n", type=int, help="synthetic series length (with --dist)")
    ps.add_argument("--k1", type=float, required=True)
    ps.add_argument("--k2", type=float, required=True)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--train-frac", type=float, default=0.5)
    ps.add_argument("--out", help="write the JSON report here instead of stdout")
    ps.add_argument("--fixed-clock", action="store_true")
    ps.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InsufficientDataError, DegenerateDistributionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ASSUMPTION
    except (ValueError, OSError, csv.Error) as exc:
        # After the clause above: both assumption errors are ValueErrors.
        # csv.Error is csv's own refusal, e.g. a cell over its field size limit.
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (NumericError, CrossCheckError, OverflowError) as exc:
        # OverflowError covers RangeError and any Python float arithmetic
        # past float64 that a RangeError gate does not yet catch.
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
