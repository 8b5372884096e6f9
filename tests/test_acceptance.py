"""Acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
``[acceptance] criterion N: PASS/FAIL`` line (visible even under normal
pytest capture) before asserting, so a red run still shows the verdict
table.  Tolerances are pinned here on purpose — do not loosen them to
make a failure go away.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from asymloss import (
    Gaussian,
    GeneralizedGaussian,
    Laplace,
    LossParams,
    Uniform,
    d_expected_loss,
    expected_loss,
    solve_offset,
    variance_of_loss,
)
from asymloss.inequalities import alpha, beta, d_beta, ggd_inequality_lhs, sweep
from asymloss.montecarlo import estimate_loss_stats

LN2 = math.log(2.0)
N_SWEEP = 200
K_RATIOS = (1.0, 2.0, 5.0, 10.0, 100.0)


def grid_distributions():
    """The 19-distribution acceptance grid."""
    dists = []
    for a in (0.25, 0.5, 1.0, 2.0):
        for b in (0.5, 1.0, 3.0):
            dists.append(GeneralizedGaussian(a, b))
    for sigma in (0.5, 1.0, 2.0):
        dists.append(Gaussian(sigma))
    for b in (0.5, 1.0):
        dists.append(Laplace(b))
    for w in (1.0, 5.0):
        dists.append(Uniform(w))
    assert len(dists) == 19
    return dists


@pytest.fixture(scope="session")
def solved_grid():
    """(dist, params, solution) for all 19 x 5 grid cells, plus solve time."""
    cells = []
    t0 = time.perf_counter()
    for dist in grid_distributions():
        for ratio in K_RATIOS:
            params = LossParams(1.0, ratio)
            cells.append((dist, params, solve_offset(dist, params)))
    elapsed = time.perf_counter() - t0
    return cells, elapsed


@pytest.fixture(scope="session")
def inequality_sweep():
    """Inequality sweep over the grid, 200 points per distribution."""
    dists = grid_distributions()
    t0 = time.perf_counter()
    reports = sweep(dists, n_points=N_SWEEP, span=10.0)
    elapsed = time.perf_counter() - t0
    chunks = []
    for i, dist in enumerate(dists):
        rows = reports[i * N_SWEEP:(i + 1) * N_SWEEP]
        assert len(rows) == N_SWEEP and len({r.dist_id for r in rows}) == 1
        chunks.append((dist, rows))
    return chunks, elapsed


def _emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_variance_never_increases(solved_grid, capsys):
    cells, elapsed = solved_grid
    worst_increase = -math.inf
    worst_symmetric = 0.0
    for dist, params, sol in cells:
        gap = sol.variance_at_C - sol.variance_at_zero
        worst_increase = max(worst_increase, gap)
        if params.k1 == params.k2:
            worst_symmetric = max(worst_symmetric, abs(gap))
    ok = worst_increase <= 1e-9 and worst_symmetric <= 1e-9 and elapsed < 60.0
    _emit(
        capsys, 1, ok,
        f"{len(cells)} cells: max(VarC - Var0) = {worst_increase:.3e} (tol 1e-9), "
        f"symmetric |delta| max = {worst_symmetric:.3e}, solved in {elapsed:.2f}s "
        f"(limit 60s)",
    )


def test_criterion_02_variance_drop_factors_through_beta(solved_grid, capsys):
    cells, _ = solved_grid
    worst = 0.0
    for dist, params, sol in cells:
        drop = sol.variance_at_zero - sol.variance_at_C
        pred = params.k_sum**2 * beta(dist, abs(sol.C))
        rel = abs(drop - pred) / max(abs(drop), abs(pred), 1e-300)
        worst = max(worst, rel)
    ok = worst <= 1e-8
    _emit(
        capsys, 2, ok,
        f"max relative |(Var0 - VarC) - ks^2 beta(C)| = {worst:.3e} (tol 1e-8)",
    )


def test_criterion_03_alpha_nonnegative_on_sweep(inequality_sweep, capsys):
    chunks, elapsed = inequality_sweep
    min_alpha = math.inf
    uniform_worst = 0.0
    strict_failures = 0
    underflowed = 0
    for dist, rows in chunks:
        for r in rows:
            min_alpha = min(min_alpha, r.alpha)
            if dist.kind == "uniform":
                uniform_worst = max(uniform_worst, abs(r.alpha))
            elif r.x >= 0.01 * dist.scale and not r.alpha > 0.0:
                # Strict positivity holds wherever the tail is still
                # representable; once both upper moments underflow to
                # exactly 0.0 the true (positive) value sits below the
                # float64 floor and the computed alpha is exactly 0.0.
                t = dist.partial_moments(r.x)
                if r.alpha == 0.0 and t.upper[0] == 0.0 and t.upper[1] == 0.0:
                    underflowed += 1
                else:
                    strict_failures += 1
    ok = (
        min_alpha >= -1e-9
        and uniform_worst <= 1e-9
        and strict_failures == 0
        and elapsed < 120.0
    )
    _emit(
        capsys, 3, ok,
        f"min alpha = {min_alpha:.3e} (tol -1e-9), uniform max |alpha| = "
        f"{uniform_worst:.3e} (tol 1e-9), strict-positivity failures = "
        f"{strict_failures} with {underflowed} fully-underflowed tail points "
        f"exempt, sweep in {elapsed:.2f}s (limit 120s)",
    )


def test_criterion_04_kernel_inequality_positive(capsys):
    xs = np.geomspace(1e-3, 20.0, 100)
    min_lhs = math.inf
    for a in (0.1, 0.25, 0.5, 1.0, 2.0, 5.0):
        for x in xs:
            min_lhs = min(min_lhs, ggd_inequality_lhs(a, float(x)))
    spot = ggd_inequality_lhs(1.0, 1.0)
    target = 2.0 / math.e - 3.0 / math.e**2
    spot_err = abs(spot - target)
    ok = min_lhs > 0.0 and spot_err <= 1e-12
    _emit(
        capsys, 4, ok,
        f"min lhs over 6x100 grid = {min_lhs:.3e} (> 0 required), "
        f"|lhs(1,1) - (2/e - 3/e^2)| = {spot_err:.3e} (tol 1e-12)",
    )


def test_criterion_05_solver_hits_critical_fractile(solved_grid, capsys):
    cells, _ = solved_grid
    c_err = abs(solve_offset(Laplace(1.0), LossParams(1.0, 3.0)).C - LN2)
    max_residual = 0.0
    max_fractile_err = 0.0
    for dist, params, sol in cells:
        max_residual = max(max_residual, abs(sol.residual))
        # every grid cdf is strictly increasing in a neighborhood of its C
        err = abs(float(dist.cdf(sol.C)) - params.critical_fractile)
        max_fractile_err = max(max_fractile_err, err)
    ok = c_err <= 1e-10 and max_residual <= 1e-10 and max_fractile_err <= 1e-10
    _emit(
        capsys, 5, ok,
        f"|C - ln 2| = {c_err:.3e} for laplace(1) k=(1,3), grid max residual = "
        f"{max_residual:.3e}, grid max |cdf(C) - fractile| = {max_fractile_err:.3e} "
        f"(all tol 1e-10)",
    )


MC_CONFIGS = [
    (Laplace(1.0), (1.0, 1.0), 0.0),
    (Laplace(1.0), (1.0, 3.0), LN2),
    (Laplace(1.0), (1.0, 3.0), 0.0),
    (Laplace(0.5), (2.0, 5.0), 0.3),
    (Laplace(2.0), (100.0, 1.0), -2.0),
    (Gaussian(1.0), (1.0, 1.0), 0.5),
    (Gaussian(1.0), (1.0, 2.0), 0.43),
    (Gaussian(2.0), (3.0, 1.0), -1.0),
    (Gaussian(0.5), (1.0, 100.0), 1.1),
    (Uniform(1.0), (1.0, 3.0), 0.5),
    (Uniform(1.0), (2.0, 2.0), 0.0),
    (Uniform(5.0), (1.0, 10.0), 4.0),
    (Uniform(5.0), (5.0, 1.0), -3.2),
    (GeneralizedGaussian(0.25, 1.0), (1.0, 3.0), 0.1),
    (GeneralizedGaussian(0.25, 2.0), (1.0, 1.0), 0.0),
    (GeneralizedGaussian(0.5, 1.0), (1.0, 5.0), 0.33),
    (GeneralizedGaussian(2.0, 0.7), (1.0, 3.0), 1.5),
    (GeneralizedGaussian(2.0, 1.0), (10.0, 1.0), -2.5),
    (GeneralizedGaussian(0.75, 1.3), (4.0, 7.0), 0.6),
    (GeneralizedGaussian(1.0, 1.0), (1.0, 100.0), 4.6),
]


def test_criterion_06_monte_carlo_agreement(capsys):
    assert len(MC_CONFIGS) == 20
    band_failures = []
    for i, (dist, (k1, k2), c) in enumerate(MC_CONFIGS):
        params = LossParams(k1, k2)
        (est,) = estimate_loss_stats(dist, params, [c], 1_000_000, seed=100 + i)
        mean = expected_loss(dist, params, c)
        var = variance_of_loss(dist, params, c)
        if abs(est.mean - mean) > 5.0 * est.std_error_mean:
            band_failures.append(f"mean[{i}]")
        if abs(est.variance - var) > 5.0 * est.std_error_variance:
            band_failures.append(f"variance[{i}]")

    dist, params, c = Laplace(1.0), LossParams(1.0, 3.0), 0.25
    mean = expected_loss(dist, params, c)
    var = variance_of_loss(dist, params, c)
    hits = 0
    for seed in range(100):
        (est,) = estimate_loss_stats(dist, params, [c], 100_000, seed)
        if (
            abs(est.mean - mean) <= 3.0 * est.std_error_mean
            and abs(est.variance - var) <= 3.0 * est.std_error_variance
        ):
            hits += 1
    ok = not band_failures and hits >= 95
    _emit(
        capsys, 6, ok,
        f"20 configs at n=1e6 within 5 sigma ({'none' if not band_failures else ', '.join(band_failures)} outside), "
        f"3-sigma joint coverage {hits}/100 (need >= 95)",
    )


def test_criterion_07_extremal_tail_bound(inequality_sweep, capsys):
    chunks, _ = inequality_sweep
    min_slack = math.inf
    min_gamma_slack = math.inf
    uniform_eqamax = 0.0
    for dist, rows in chunks:
        for r in rows:
            min_slack = min(min_slack, r.s_tail - r.s_extremal)
            min_gamma_slack = min(min_gamma_slack, r.gamma_slack)
            if dist.kind == "uniform" and r.x < dist.w:
                uniform_eqamax = max(uniform_eqamax, abs(r.s_tail - r.s_extremal))
    ok = min_slack >= -1e-9 and min_gamma_slack >= -1e-9 and uniform_eqamax <= 1e-10
    _emit(
        capsys, 7, ok,
        f"min (S_f - S_u) = {min_slack:.3e}, min (gamma - x f(x)) = "
        f"{min_gamma_slack:.3e} (both tol -1e-9), uniform in-support "
        f"|S_f - S_u| max = {uniform_eqamax:.3e} (tol 1e-10)",
    )


def test_criterion_08_derivative_checks(capsys):
    h = 1e-4
    worst_dexp = 0.0
    for dist in grid_distributions():
        s = dist.scale
        for params in (LossParams(1.0, 3.0), LossParams(2.0, 0.5)):
            for c in (-1.2 * s, -0.35 * s, 0.35 * s, 1.2 * s):
                analytic = d_expected_loss(dist, params, c)
                numeric = (
                    expected_loss(dist, params, c + h)
                    - expected_loss(dist, params, c - h)
                ) / (2.0 * h)
                worst_dexp = max(worst_dexp, abs(analytic - numeric))

    worst_resid = 0.0
    worst_cd = 0.0
    for dist in grid_distributions():
        for xf in (0.3, 0.8, 1.6, 3.0):
            x = xf * dist.scale
            t = dist.partial_moments(x)
            f = float(dist.pdf(x))
            parts = alpha(dist, x) + 2.0 * f * t.lower[2] + 2.0 * x * f * t.upper[1]
            db = d_beta(dist, x)
            worst_resid = max(worst_resid, abs(db - parts))
            numeric = (beta(dist, x + h) - beta(dist, x - h)) / (2.0 * h)
            worst_cd = max(worst_cd, abs(numeric - db) / max(1.0, abs(db)))
    ok = worst_dexp <= 1e-5 and worst_resid <= 1e-10 and worst_cd <= 1e-5
    _emit(
        capsys, 8, ok,
        f"max |d/dc E - central diff| = {worst_dexp:.3e} (tol 1e-5), max "
        f"d beta/dx decomposition residual = {worst_resid:.3e} (tol 1e-10), "
        f"max rel |d beta/dx - central diff| = {worst_cd:.3e} (tol 1e-5)",
    )


def test_criterion_09_cli_end_to_end(capsys):
    analyze_cmd = [
        sys.executable, "-m", "asymloss", "analyze",
        "--dist", "laplace:b=1", "--k1", "1", "--k2", "3",
        "--seed", "7", "--fixed-clock",
    ]
    run1 = subprocess.run(analyze_cmd, capture_output=True, text=True, timeout=300)
    run2 = subprocess.run(analyze_cmd, capture_output=True, text=True, timeout=300)
    problems = []
    if run1.returncode != 0:
        problems.append(f"analyze exit {run1.returncode}")
    if run1.stdout != run2.stdout:
        problems.append("repeat run differs")
    try:
        payload = json.loads(run1.stdout)
    except json.JSONDecodeError:
        problems.append("stdout is not JSON")
        payload = {}
    c_value = payload.get("solution", {}).get("C", math.nan)
    if not abs(c_value - LN2) <= 1e-9:
        problems.append(f"C={c_value!r}")
    if payload.get("verdict") != "ok":
        problems.append(f"verdict={payload.get('verdict')!r}")
    if not payload.get("inequality_summary", {}).get("all_passed"):
        problems.append("inequality sweep not all passed")
    if not all(
        c["mean_ok"] and c["variance_ok"] for c in payload.get("mc_checks", [])
    ):
        problems.append("MC check outside band")

    verify = subprocess.run(
        [
            sys.executable, "-m", "asymloss", "verify",
            "--grid", "uniform:w=1,5;points=50",
        ],
        capture_output=True, text=True, timeout=300,
    )
    if verify.returncode != 0:
        problems.append(f"verify exit {verify.returncode}")
    ok = not problems
    _emit(
        capsys, 9, ok,
        "analyze deterministic with C=ln 2, verdict ok; uniform verify exits 0"
        if ok else "; ".join(problems),
    )
