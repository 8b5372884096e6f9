"""Independent numerical instruments for checking the library.

Everything here works only from a density callable and generic
quadrature/root-finding, configured tighter than the library's own
fallback path, so agreement between these values and the library's
closed forms is evidence rather than tautology.

``StepOracle`` works in exact rational arithmetic instead: a symmetric
step density (the uniform law and every fitted ``EmpiricalSymmetric``
among them) has loss moments and partial moments that are finite sums of
polynomials, so ``fractions.Fraction`` gives them with no rounding at all.

``fit_empirical_sorts`` is ``fit_empirical`` as three sorts (one per sign
half, one in ``np.unique``) and one piece per distinct magnitude, the
reference the one-sort, one-piece-per-block fit is held to.

``read_error_csv_rows`` is the CLI's error-log reader as a plain row loop
(``csv`` plus ``float()``), the reference the one-pass reader is held to.
``verify_csv_text`` is the verify CSV as ``csv.writer`` writes report rows,
the reference the columnar writer is held to.
"""

import csv
import dataclasses
import io
import math
from fractions import Fraction

import numpy as np
from scipy import integrate, optimize, special

from asymloss import (
    AssumptionDiagnostics,
    DegenerateDistributionError,
    DomainError,
    InequalityReport,
    InsufficientDataError,
    RangeError,
)
from asymloss.cli import CliInputError

_ABS = 1e-13
_REL = 1e-12


def moment_quad(pdf, k, lo, hi, *, kinks=()):
    """integral of t^k pdf(t) over [lo, hi] by adaptive quadrature.

    ``kinks`` lists interior points where the integrand is not smooth;
    the integral is split there so the error estimate stays honest.
    """
    pts = sorted({lo, hi, *[p for p in kinks if lo < p < hi]})
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, err = integrate.quad(
            lambda t: (t ** k) * pdf(t), a, b, epsabs=_ABS, epsrel=_REL, limit=400
        )
        assert err < 1e-9 * max(1.0, abs(val)), f"oracle quadrature failed on [{a},{b}]"
        total += val
    return total


def cdf_quad(pdf, x, *, kinks=()):
    """P(Z <= x) for a symmetric density, by quadrature of the density."""
    mass = moment_quad(pdf, 0, 0.0, abs(x), kinks=kinks)
    return 0.5 + math.copysign(mass, x) if x != 0 else 0.5


def fractile_root(pdf, level, *, hi0=1.0, kinks=()):
    """The point where the quadrature CDF crosses ``level`` (bisection)."""
    assert 0.0 < level < 1.0
    target = lambda c: cdf_quad(pdf, c, kinks=kinks) - level
    hi = hi0
    for _ in range(200):
        if target(-hi) * target(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise AssertionError("oracle could not bracket the fractile")
    return optimize.brentq(target, -hi, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)


def loss_moment_quad(pdf, c, k1, k2, power, *, support=math.inf, kinks=()):
    """E[L(Z+c)^power] by quadrature, splitting at the loss kink z = -c."""

    def integrand(z):
        u = z + c
        l = k1 * u if u >= 0 else -k2 * u
        return (l ** power) * pdf(z)

    lo, hi = -support, support
    pts = sorted({lo, hi, *[p for p in (-c, 0.0, *kinks, *[-k for k in kinks]) if lo < p < hi]})
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, err = integrate.quad(integrand, a, b, epsabs=_ABS, epsrel=_REL, limit=400)
        assert err < 1e-8 * max(1.0, abs(val)), "oracle loss-moment quadrature failed"
        total += val
    return total


class StepOracle:
    """Exact moments of the symmetric density equal to ``heights[j]`` for
    |z| in (breakpoints[j], breakpoints[j + 1]], taken as given: the floats
    are read as the rationals they are, and every result is a Fraction.

    Every float is a dyadic rational, so the sums run over Python ints, the
    values times one power of two, and only the result is a Fraction.
    """

    def __init__(self, breakpoints, heights):
        self.t = [Fraction(float(v)) for v in breakpoints]
        self.h = [Fraction(float(v)) for v in heights]

    @classmethod
    def of(cls, dist):
        """The oracle of an ``EmpiricalSymmetric``, or of a ``Uniform`` with
        its density 1/(2w) as a float (exact when w is a power of two)."""
        if hasattr(dist, "w"):
            return cls([0.0, dist.w], [float(dist.pdf(0.0))])
        return cls(dist.breakpoints, dist.heights)

    def _scaled(self, *extra):
        """(pieces, extra values, scale): each breakpoint, height and extra
        value times ``scale``, a power of two that makes all of them ints;
        the pieces as (start, stop, height) triples."""
        values = [*self.t, *self.h, *(Fraction(float(v)) for v in extra)]
        scale = max(v.denominator for v in values)  # each denominator divides it
        ints = [v.numerator * (scale // v.denominator) for v in values]
        n = len(self.t)
        t, h = ints[:n], ints[n:2 * n - 1]
        return list(zip(t, t[1:], h)), ints[2 * n - 1:], scale

    def loss_moment(self, k1, k2, c, power):
        """E[L(Z + c)^power] for the loss k1 u (u >= 0), -k2 u (u < 0)."""
        pieces, (k1, k2, c), scale = self._scaled(k1, k2, c)
        k1, k2 = k1 ** power, k2 ** power

        def integral(u):  # integral_0^u L(v)^power dv, times (power + 1)
            return k1 * u ** (power + 1) if u >= 0 else -k2 * (-u) ** (power + 1)

        total = sum(
            h * (integral(b + c) - integral(a + c) + integral(c - a) - integral(c - b))
            for a, b, h in pieces
        )
        return Fraction(total, (power + 1) * scale ** (2 * power + 2))

    def loss_stats(self, k1, k2, c):
        """(E[L(Z + c)], Var[L(Z + c)])."""
        mean = self.loss_moment(k1, k2, c, 1)
        return mean, self.loss_moment(k1, k2, c, 2) - mean * mean

    def partial_moments(self, x):
        """(lower, upper): integral_0^x t^k f and integral_x^inf t^k f, k = 0, 1, 2."""
        pieces, (x,), scale = self._scaled(x)
        lower, upper = [], []
        for n in (1, 2, 3):
            below = sum(h * (min(b, x) ** n - min(a, x) ** n) for a, b, h in pieces)
            whole = sum(h * (b ** n - a ** n) for a, b, h in pieces)
            lower.append(Fraction(below, n * scale ** (n + 1)))
            upper.append(Fraction(whole - below, n * scale ** (n + 1)))
        return lower, upper

    def beta(self, x):
        """The library's beta kernel, -T1^2 + 2 g L2 + 4 x g U1 + U1^2 - x^2 U0 (g + 1/2)."""
        x = Fraction(x)
        (g, l1, l2), (u0, u1, _) = self.partial_moments(x)
        t1 = l1 + u1
        return -t1 * t1 + 2 * g * l2 + 4 * x * g * u1 + u1 * u1 - x * x * u0 * (g + Fraction(1, 2))


def relative_error(got, exact):
    """|got - exact| / |exact| in exact arithmetic (|got| when exact is 0)."""
    gap = abs(Fraction(got) - exact)
    return float(gap / abs(exact)) if exact else float(gap)


def fit_empirical_sorts(errors, *, min_observations=30):
    """(breakpoints, heights, diagnostics) of the fit, one piece per raw bin:
    the breakpoints are 0 and every distinct nonzero magnitude, and each
    height is half the monotone projection of that bin's density."""
    z = np.asarray(errors, dtype=float).ravel()
    if not np.all(np.isfinite(z)):
        raise DomainError("errors must be finite")
    n = z.size
    if n < min_observations:
        raise InsufficientDataError(f"need at least {min_observations} observations, got {n}")
    n_pos = int(np.sum(z > 0.0))
    n_neg = int(np.sum(z < 0.0))
    mags = np.abs(z)
    if float(mags.max()) == 0.0:
        raise DegenerateDistributionError("all errors are zero; no spread to model")
    n_signed = n_pos + n_neg
    m = min(n_pos, n_neg)
    pos_sorted = np.sort(z[z > 0.0])
    neg_sorted = np.sort(-z[z < 0.0])
    values, counts = np.unique(mags, return_counts=True)
    if values[0] == 0.0:
        values = values[1:]
        counts = np.array([counts[0] + counts[1], *counts[2:]])
    breaks = np.concatenate([[0.0], values])
    widths = np.diff(breaks)
    with np.errstate(over="ignore"):
        raw = (counts / n) / widths
    if not np.all(np.isfinite(raw)):
        raise RangeError("the fitted density overflows float64: a magnitude bin is too narrow")
    iso = optimize.isotonic_regression(raw, weights=widths, increasing=False).x
    diag = AssumptionDiagnostics(
        n=n,
        n_positive=n_pos,
        n_negative=n_neg,
        n_zero=n - n_pos - n_neg,
        sign_statistic=float((n_pos - n_neg) / math.sqrt(n_signed) if n_signed else 0.0),
        sign_pvalue=float(
            1.0 if n_pos == n_neg else min(1.0, 2.0 * special.betainc(n_signed - m, m + 1, 0.5))
        ),
        symmetric_input=pos_sorted.size == neg_sorted.size
        and bool(np.array_equal(pos_sorted, neg_sorted)),
        monotonicity_violation_mass=0.5 * float(np.sum(np.abs(raw - iso) * widths)),
    )
    return breaks, iso / 2.0, diag


def read_error_csv_rows(path):
    """Errors from a CSV with header 'error' or 'y,yhat', read row by row."""
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


def verify_csv_text(reports):
    """The verify CSV of InequalityReport rows: ``csv.writer`` over every
    field of each row, header first, with a NaN written as an empty cell."""
    columns = [f.name for f in dataclasses.fields(InequalityReport)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in reports:
        row = [getattr(r, c) for c in columns]
        writer.writerow(["" if isinstance(v, float) and math.isnan(v) else v for v in row])
    return buf.getvalue()
