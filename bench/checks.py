"""Reference computations that the benchmark checks the program against.

Nothing here imports asymloss.  Every value is recomputed from a
definition with a different tool: a generalized Gaussian density written
out below and integrated with ``scipy.integrate.quad``, quantiles from
``scipy.stats.gennorm``, incomplete gammas from ``mpmath``, closed forms
for the triangular density 1 - |x|, and a numpy recomputation of backtest
costs.  Each ``check_*`` function raises ``CheckError`` naming the first
quantity that disagrees.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate
from scipy.stats import gennorm

# Agreement asked of the program against the references below.  Each is at
# least 50x looser than the reference's own error and at least 10x tighter
# than the 1e-6 relative perturbations the self-test must catch.
REL_TOL = 2e-8
# Absolute floor, as a share of the quantity's natural size, for values
# computed as a difference of larger terms (beta, eq1_lhs) or required to
# vanish (alpha and beta at 0).
FLOOR = 1e-12
# The same for tail values (alpha, S_f), which both sides compute without
# cancellation to full relative precision until they underflow.
UNDERFLOW = 1e-280
# Standard errors allowed between a fitted offset and the generating quantile.
FIT_SIGMAS = 6.0

_QUAD_REL = 1e-12


class CheckError(AssertionError):
    """An output of the program disagrees with its reference."""


def _close(name, got, want, *, rel=REL_TOL, floor=0.0):
    if not (math.isfinite(got) and abs(got - want) <= rel * abs(want) + floor):
        raise CheckError(f"{name}: program {got!r}, reference {want!r}")


# ----------------------------------------------------------------------
# generalized Gaussian: density exp(-(|z|/b)^(1/a)) / (2 a b Gamma(a))
# ----------------------------------------------------------------------


def gg_pdf(t, a, b):
    return math.exp(-((t / b) ** (1.0 / a))) / (2.0 * a * b * math.gamma(a))


def gg_integral(g, lo, hi, a, b):
    """integral of g(t) f(t) dt over [lo, hi] within [0, inf), f the GG density.

    For a > 1 the density has a cusp at 0 and a slowly decaying tail, so
    the integral is taken in s with t = b s^a, dt = a b s^(a-1) ds, where
    the integrand is smooth and decays like exp(-s).  For a <= 1 that
    substitution would put a singularity at s = 0, and the density is
    already smooth in t.
    """
    if hi <= lo:
        return 0.0
    if a <= 1.0:
        integrand = lambda t: g(t) * gg_pdf(t, a, b)
    else:
        lo, hi = (lo / b) ** (1.0 / a), (hi / b) ** (1.0 / a)

        def integrand(s):
            t = b * s ** a
            return g(t) * gg_pdf(t, a, b) * a * b * s ** (a - 1.0)

    value, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=_QUAD_REL, limit=400)
    return value


def gg_moments_at(x, a, b):
    """Reference alpha, beta and tail moment S_f of GG(a, b) at split point x > 0."""
    inf = math.inf
    u0 = gg_integral(lambda t: 1.0, x, inf, a, b)
    u1 = gg_integral(lambda t: t, x, inf, a, b)
    excess = gg_integral(lambda t: t - x, x, inf, a, b)
    # alpha = 4 gamma S - x/2 + 2 x gamma^2 with gamma = 1/2 - u0, S = u1,
    # rearranged so that no x/2-sized terms cancel in the tail.
    alpha = 2.0 * excess - 2.0 * u0 * (u1 + excess)

    # beta(x) is the variance gap (Var L(Z) - Var L(Z + x)) / (k1 + k2)^2
    # for the cost pair whose optimal offset is x: k2 / (k1 + k2) = F(x).
    k2 = 1.0 - u0  # F(x) = 1/2 + (1/2 - u0)
    k1 = u0
    m1 = gg_integral(lambda t: t, 0.0, inf, a, b)
    m2 = gg_integral(lambda t: t * t, 0.0, inf, a, b)
    var_0 = (k1 * k1 + k2 * k2) * m2 - ((k1 + k2) * m1) ** 2
    # L(Z + x): overshoot for z > -x (both sides of 0), undershoot for z < -x.
    e_over = gg_integral(lambda t: x - t, 0.0, x, a, b) + gg_integral(lambda t: t + x, 0.0, inf, a, b)
    e2_over = gg_integral(lambda t: (x - t) ** 2, 0.0, x, a, b) + gg_integral(
        lambda t: (t + x) ** 2, 0.0, inf, a, b
    )
    e2_under = gg_integral(lambda t: (t - x) ** 2, x, inf, a, b)
    mean_x = k1 * e_over + k2 * excess
    var_x = k1 * k1 * e2_over + k2 * k2 * e2_under - mean_x * mean_x
    return {"alpha": alpha, "beta": var_0 - var_x, "s_tail": u1, "m2": m2}


def gg_mean_abs(a, b):
    """E|Z| = b Gamma(2a) / Gamma(a)."""
    return b * math.exp(math.lgamma(2.0 * a) - math.lgamma(a))


def gg_mean_sq(a, b):
    """E[Z^2] = b^2 Gamma(3a) / Gamma(a)."""
    return b * b * math.exp(math.lgamma(3.0 * a) - math.lgamma(a))


def eq1_reference(a, big_x):
    """The incomplete-gamma kernel x^a g^2 - x^a Gamma(a)^2 + 2 g Gamma(2a, x).

    Returned with the size of its two terms, so the comparison can allow
    float64 rounding of the program's own arrangement.  The factored form
    2 g G2 - x^a G (Gamma(a) + g) avoids needing hundreds of digits once
    g is within an ulp of Gamma(a).
    """
    with mpmath.workdps(40):
        a_m = mpmath.mpf(a)
        x_m = mpmath.mpf(big_x)
        g = mpmath.gammainc(a_m, 0, x_m)
        big_g = mpmath.gammainc(a_m, x_m, mpmath.inf)
        g2 = mpmath.gammainc(2 * a_m, x_m, mpmath.inf)
        first = 2 * g * g2
        second = x_m ** a_m * big_g * (mpmath.gamma(a_m) + g)
        return float(first - second), float(abs(first) + abs(second))


def _num(cell):
    return math.nan if cell == "" else float(cell)


def check_verify_rows(rows, shapes, b, points, sampled, span=10.0):
    """Check the CSV rows of one `verify --grid gg:...` operation.

    ``rows`` are dicts keyed by the CSV header, ``shapes`` the grid's a
    values in order, ``sampled`` one row index per shape to recompute.
    """
    if len(rows) != len(shapes) * points:
        raise CheckError(f"verify: {len(rows)} rows, expected {len(shapes) * points}")
    for r in rows:
        if r["passed"] != "True":
            raise CheckError(f"verify: row {r['dist_id']} x={r['x']} did not pass")
    for i, a in enumerate(shapes):
        block = rows[i * points:(i + 1) * points]
        if len({r["dist_id"] for r in block}) != 1:
            raise CheckError(f"verify: rows of shape a={a} are not one contiguous block")
        xs = [float(r["x"]) for r in block]
        # The grid is [0, span * scale] with scale = sqrt(E[Z^2]).
        _close(f"verify a={a}: last x", xs[-1], span * math.sqrt(gg_mean_sq(a, b)), rel=1e-12)
        if xs[0] != 0.0 or any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
            raise CheckError(f"verify a={a}: x grid does not rise from 0")
        size = gg_mean_abs(a, b)
        _close(f"verify a={a}: alpha(0)", float(block[0]["alpha"]), 0.0, floor=FLOOR * size)
        _close(f"verify a={a}: beta(0)", float(block[0]["beta"]), 0.0, floor=FLOOR * size * size)

        row = block[sampled[i]]
        x = float(row["x"])
        ref = gg_moments_at(x, a, b)
        m2 = ref["m2"]
        _close(f"verify a={a} x={x}: alpha", _num(row["alpha"]), ref["alpha"], floor=UNDERFLOW * size)
        _close(f"verify a={a} x={x}: beta", _num(row["beta"]), ref["beta"], floor=FLOOR * m2)
        _close(f"verify a={a} x={x}: s_tail", _num(row["s_tail"]), ref["s_tail"], floor=UNDERFLOW * size)
        eq1, terms = eq1_reference(a, (x / b) ** (1.0 / a))
        _close(f"verify a={a} x={x}: eq1_lhs", _num(row["eq1_lhs"]), eq1, rel=0.0, floor=FLOOR * terms + 1e-300)


def check_analyze(report, a, b, k1, k2):
    """Check one `analyze --dist gg:a=..,b=..` JSON report."""
    if report["verdict"] != "ok":
        raise CheckError(f"analyze: verdict {report['verdict']!r}")
    sol = report["solution"]
    c_ref = float(gennorm.ppf(k2 / (k1 + k2), 1.0 / a, scale=b))
    _close("analyze: C", sol["C"], c_ref, floor=FLOOR * b)
    mean_abs = gg_mean_abs(a, b)
    _close("analyze: expected_at_zero", sol["expected_at_zero"], 0.5 * (k1 + k2) * mean_abs)
    var_0 = 0.5 * (k1 * k1 + k2 * k2) * gg_mean_sq(a, b) - (0.5 * (k1 + k2) * mean_abs) ** 2
    _close("analyze: variance_at_zero", sol["variance_at_zero"], var_0)
    if not sol["variance_at_C"] <= sol["variance_at_zero"]:
        raise CheckError("analyze: variance at C exceeds variance at zero")


def backtest_policies(test_errors, offset, k1, k2):
    """Mean, variance and total of realized costs without and with the offset."""
    out = {}
    for name, z in (("uncorrected", test_errors), ("corrected", test_errors + offset)):
        cost = np.where(z >= 0.0, k1 * z, -k2 * z)
        out[name] = {"mean": float(np.mean(cost)), "variance": float(np.var(cost, ddof=1)),
                     "total": float(np.sum(cost))}
    return out


def check_backtest(report, errors, train_frac, k1, k2, gen_a, gen_b, resolution):
    """Check one `simulate --input log.csv` JSON report against the log itself."""
    n_train = int(errors.size * train_frac)
    if (report["n_total"], report["n_train"]) != (errors.size, n_train):
        raise CheckError(f"simulate: split {report['n_total']}/{report['n_train']}, expected {errors.size}/{n_train}")
    offset = report["offset"]
    if report["fitted_solution"] is None or report["fitted_solution"]["C"] != offset:
        raise CheckError("simulate: offset differs from the fitted solution's C")
    want = backtest_policies(errors[n_train:], offset, k1, k2)
    for policy, stats in want.items():
        for key, value in stats.items():
            _close(f"simulate: {policy} {key}", report["policies"][policy][key], value, rel=1e-9)
    # The fitted offset estimates the generating distribution's critical
    # fractile; rounding half the log to `resolution` moves it by at most
    # half a step.
    p = k2 / (k1 + k2)
    q = float(gennorm.ppf(p, 1.0 / gen_a, scale=gen_b))
    density = float(gennorm.pdf(q, 1.0 / gen_a, scale=gen_b))
    std_error = math.sqrt(p * (1.0 - p) / n_train) / density
    if not abs(offset - q) <= FIT_SIGMAS * std_error + 0.5 * resolution:
        raise CheckError(f"simulate: offset {offset!r} is not within {FIT_SIGMAS} SE of {q!r}")


# ----------------------------------------------------------------------
# triangular density 1 - |x| on [-1, 1]
# ----------------------------------------------------------------------


def tri_tail(x):
    """Upper partial moments u0 = P(Z > x), u1 = E[Z; Z > x] for x >= 0."""
    if x >= 1.0:
        return 0.0, 0.0
    return 0.5 * (1.0 - x) ** 2, 1.0 / 6.0 - 0.5 * x * x + x ** 3 / 3.0


def tri_alpha(x):
    u0, u1 = tri_tail(x)
    return 2.0 * (u1 - x * u0) - 2.0 * u0 * (2.0 * u1 - x * u0)


def tri_cdf(z):
    """P(Z <= z) for the triangular density."""
    return 0.5 * (1.0 + z) ** 2 if z < 0.0 else 1.0 - 0.5 * (1.0 - z) ** 2


def tri_offset(k1, k2):
    """Critical fractile of the triangular density: F(C) = k2 / (k1 + k2)."""
    small = min(k1, k2)
    return math.copysign(1.0 - math.sqrt(2.0 * small / (k1 + k2)), k2 - k1)


def check_custom(report, sweep_rows, quantiles, levels, k1, k2, margin_tol):
    """Check one savings report, sweep and set of quantiles on the triangular density."""
    sol = report["solution"]
    _close("triangular: C", sol["C"], tri_offset(k1, k2), floor=1e-12)
    _close("triangular: expected_at_zero", sol["expected_at_zero"], (k1 + k2) / 6.0)
    var_0 = (k1 * k1 + k2 * k2) / 12.0 - ((k1 + k2) / 6.0) ** 2
    _close("triangular: variance_at_zero", sol["variance_at_zero"], var_0)
    # expected_at_C is not compared with its closed form (k1 + k2) u1(|C|):
    # the quadrature fallback's upper moments are off by up to 4e-7 relative
    # at some split points, with an error estimate of 1e-15, so the check
    # would fail for some cost pairs and not others.
    if not sol["variance_at_C"] <= sol["variance_at_zero"]:
        raise CheckError("triangular: variance at C exceeds variance at zero")
    for x, alpha, margin in sweep_rows:
        if not margin >= -margin_tol:
            raise CheckError(f"triangular: margin {margin!r} at x={x} is below -{margin_tol}")
        _close(f"triangular: alpha at x={x}", alpha, tri_alpha(x), floor=1e-12)
    if len(quantiles) != len(levels):
        raise CheckError(f"triangular: {len(quantiles)} quantiles for {len(levels)} levels")
    for z, p in zip(np.asarray(quantiles, dtype=float).tolist(), np.asarray(levels).tolist()):
        # Compared in probability, where the density's slope near the
        # support's ends does not magnify the allowed error.
        if not (-1.0 <= z <= 1.0 and abs(tri_cdf(z) - p) <= REL_TOL):
            raise CheckError(f"triangular: quantile {z!r} at level {p!r}, exact {tri_quantile(p)!r}")


def tri_quantile(p):
    return math.sqrt(2.0 * p) - 1.0 if p < 0.5 else 1.0 - math.sqrt(2.0 * (1.0 - p))
