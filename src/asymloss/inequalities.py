"""Certificates behind the variance reduction: alpha, beta, and friends.

The variance saved by the optimal offset C factors as

    Var[L(Z)] - Var[L(Z + C)] = (k1 + k2)^2 * beta(|C|)

and the non-negativity of beta reduces, through its derivative, to the
pointwise inequality alpha(x) >= 0 for every symmetric density that is
non-increasing on [0, inf).  This module evaluates those quantities
directly from the partial moments so the chain can be checked
numerically on grids, together with the two auxiliary bounds the proof
of alpha >= 0 leans on:

  * the mass condition gamma(x) = integral_0^x f >= x f(x), and
  * the extremal tail bound S_f(x) >= S_u(x), where S_f is the first
    upper partial moment and u is the worst-case rearranged density
    (constant at level f(x) until its remaining mass 1/2 - gamma runs
    out).

For generalized Gaussian errors, alpha at x = b X^a is a positive
multiple of the incomplete-gamma expression

    x^a gamma(a,x)^2 - x^a Gamma(a)^2 + 2 gamma(a,x) Gamma(2a,x)

which is exposed separately (``ggd_inequality_lhs``) and evaluated in a
factored form that avoids the catastrophic cancellation of the textbook
arrangement in the far tail.

Every certificate takes a scalar point or an array of points and returns
a float or an array of the same shape, from one body: a sweep builds one
moment table per distribution and evaluates its whole grid in one pass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special as _sc

from .distributions import (
    ErrorDistribution,
    GeneralizedGaussian,
    MomentTable,
    _scalar_or_array,
    _table_for,
)
from .errors import DomainError, RangeError

__all__ = [
    "MARGIN_TOL",
    "ExtremalBound",
    "InequalityReport",
    "alpha",
    "beta",
    "d_beta",
    "extremal_bound",
    "ggd_inequality_lhs",
    "sweep",
    "sweep_eq1",
]

# Slack allowed on every ">= 0" check before a grid point is declared failed.
MARGIN_TOL = 1e-9


def alpha(dist: ErrorDistribution, x, *, table: MomentTable | None = None):
    """4 gamma(x) S_f(x) - x/2 + 2 x gamma(x)^2; non-negative under the
    shape assumptions, zero exactly for uniform errors (and at x = 0).

    Evaluated in the rearranged tail form

        2 (u1 - x u0) - 2 u0 (2 u1 - x u0),

    with u0, u1 the upper partial moments (substitute gamma = 1/2 - u0
    into the display to see they agree).  The display form loses all
    precision once gamma rounds to 1/2 -- its x/2 terms then cancel to
    noise of order eps * x -- whereas the tail form keeps the true
    magnitude, which for thin-tailed densities stays strictly positive
    all the way down to the float64 underflow floor.
    """
    t = _table_for(dist, x, table)
    u0, u1 = t.upper[0], t.upper[1]
    excess = u1 - t.x * u0
    return 2.0 * excess - 2.0 * u0 * (u1 + excess)


def beta(dist: ErrorDistribution, x, *, table: MomentTable | None = None):
    """The variance-gap kernel: (Var[L(Z)] - Var[L(Z+C)]) / (k1+k2)^2 at
    x = |C|.  beta(0) = 0 identically.

    The display's -x^2/4 + x^2 gamma^2 pair is folded into
    -x^2 u0 (gamma + 1/2), the same quantity without the x^2/4-scale
    cancellation (u0 is the upper mass 1/2 - gamma).
    """
    t = _table_for(dist, x, table)
    g = t.lower[0]
    u0 = t.upper[0]
    u1 = t.upper[1]
    t1 = t.total(1)
    x = t.x
    # x * x overflows past about 1.3e154 (and inf * 0 is nan): a RangeError.
    with np.errstate(over="ignore", invalid="ignore"):
        value = (
            -t1 * t1
            + 2.0 * g * t.lower[2]
            + 4.0 * x * g * u1
            + u1 * u1
            - x * x * u0 * (g + 0.5)
        )
    if not np.all(np.isfinite(value)):
        raise RangeError(f"beta of {dist.kind} overflows float64 at x up to {np.max(x)!r}")
    return value


def d_beta(dist: ErrorDistribution, x, *, table: MomentTable | None = None):
    """Derivative of beta; decomposes as alpha(x) plus two manifestly
    non-negative density terms, which is the whole point of alpha."""
    t = _table_for(dist, x, table)
    f = dist.pdf(t.x)
    return alpha(dist, t.x, table=t) + 2.0 * f * t.lower[2] + 2.0 * t.x * f * t.upper[1]


class ExtremalBound(NamedTuple):
    """Tail first-moment vs. its worst-case lower bound at a point."""

    s_extremal: float  # S_u(x): the rearranged flat-density tail moment
    s_tail: float      # S_f(x): the actual tail moment, upper[1]

    @property
    def slack(self) -> float:
        return self.s_tail - self.s_extremal


def extremal_bound(dist: ErrorDistribution, x, *, table: MomentTable | None = None) -> ExtremalBound:
    """Compare S_f(x) against the extremal configuration S_u(x).

    u puts density f(x) flat on [x, x + (1/2 - gamma)/f(x)] and nothing
    beyond: among all admissible tails with the same mass it minimizes
    the first moment, so s_tail >= s_extremal certifies the alpha bound.
    When f(x) = 0 the tail is empty and both sides collapse to 0.
    """
    t = _table_for(dist, x, table)
    f = np.asarray(dist.pdf(t.x))
    rest = t.upper[0]  # remaining tail mass 1/2 - gamma, uncancelled
    with np.errstate(divide="ignore", invalid="ignore"):
        s_u = np.where(f > 0.0, t.x * rest + rest * rest / (2.0 * f), 0.0)
    return ExtremalBound(s_extremal=_scalar_or_array(s_u), s_tail=t.upper[1])


def ggd_inequality_lhs(a, x):
    """The incomplete-gamma inequality kernel at shape a > 0, point x > 0
    (scalars or arrays, broadcast together).

    Evaluated as 2 g G2 - x^a G (Gamma(a) + g) with g = gamma(a, x),
    G = Gamma(a, x), G2 = Gamma(2a, x); algebraically identical to the
    direct form but stable when g is within an ulp of Gamma(a).
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (np.all(np.isfinite(a) & (a > 0.0)) and np.all(np.isfinite(x) & (x > 0.0))):
        raise DomainError(f"a and x must be finite and > 0, got a={a}, x={x}")
    # gamma overflows float64 for a > 171.6; the inf (or inf * 0 = nan)
    # then fails the finiteness gate below.
    with np.errstate(over="ignore", invalid="ignore"):
        gamma_a = _sc.gamma(a)
        g = gamma_a * _sc.gammainc(a, x)
        big_g = gamma_a * _sc.gammaincc(a, x)
        g2 = _sc.gamma(2.0 * a) * _sc.gammaincc(2.0 * a, x)
        value = 2.0 * g * g2 - np.float_power(x, a) * big_g * (gamma_a + g)
    if not np.all(np.isfinite(value)):
        raise RangeError(f"inequality kernel overflows float64 at a={a}, x={x}")
    return _scalar_or_array(value)


@dataclass(frozen=True)
class InequalityReport:
    """One grid point's worth of inequality checks.

    ``margin`` is the smallest slack across every inequality evaluated at
    the point (NaN fields are skipped); ``passed`` allows MARGIN_TOL of
    numerical forgiveness.
    """

    dist_id: str
    x: float
    alpha: float
    beta: float
    s_extremal: float
    s_tail: float
    gamma_slack: float
    eq1_lhs: float
    margin: float
    passed: bool


def _dist_id(dist: ErrorDistribution) -> str:
    inner = ",".join(f"{k}={v:g}" for k, v in dist.params().items())
    return f"{dist.kind}({inner})"


def _reports(dist_id, x, a_val, b_val, s_extremal, s_tail, gamma_slack, eq1):
    """One InequalityReport per grid point x from its columns (arrays over
    x, or scalars that every row shares).  The margin is the NaN-skipping
    minimum of the slacks."""
    columns = np.broadcast_arrays(x, a_val, b_val, s_extremal, s_tail, gamma_slack, eq1)
    _, a_val, b_val, s_extremal, s_tail, gamma_slack, eq1 = columns
    margin = np.fmin.reduce([a_val, b_val, s_tail - s_extremal, gamma_slack, eq1])
    rows = zip(*(c.tolist() for c in (*columns, margin)))
    return [InequalityReport(dist_id, *row, passed=row[-1] >= -MARGIN_TOL) for row in rows]


def sweep(
    distributions: Sequence[ErrorDistribution],
    *,
    n_points: int = 200,
    span: float = 10.0,
) -> list[InequalityReport]:
    """Evaluate every inequality on [0, span * scale] for each distribution.

    Returns one report per grid point, n_points per distribution, grid
    including both endpoints.  Raises RangeError when the grid leaves
    float64: a second moment below the smallest normal float collapses it.
    """
    dists = list(distributions)
    if not dists:
        raise ValueError("need at least one distribution to sweep")
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    if not (math.isfinite(span) and span > 0.0):
        raise ValueError(f"span must be finite and > 0, got {span!r}")
    reports = []
    for dist in dists:
        end = span * dist.scale
        if not (dist.second_moment >= sys.float_info.min and math.isfinite(end)):
            raise RangeError(
                f"the sweep grid of {dist.kind} leaves float64 (second moment "
                f"{dist.second_moment!r}, end {end!r}); rescale the errors"
            )
        x = np.linspace(0.0, end, n_points)
        t = dist.partial_moments(x)
        bound = extremal_bound(dist, x, table=t)
        eq1 = np.full(x.shape, math.nan)
        if isinstance(dist, GeneralizedGaussian):
            inside = x > 0.0
            eq1[inside] = ggd_inequality_lhs(dist.a, dist._standardized(x[inside]))
        reports += _reports(
            _dist_id(dist),
            x,
            alpha(dist, x, table=t),
            beta(dist, x, table=t),
            bound.s_extremal,
            bound.s_tail,
            t.lower[0] - x * dist.pdf(x),
            eq1,
        )
    return reports


def sweep_eq1(a_values, x_values) -> list[InequalityReport]:
    """Evaluate the incomplete-gamma kernel on an (a, x) product grid.

    Rows carry only eq1_lhs (the other fields are NaN); the margin is the
    kernel value itself.
    """
    a_list = [float(a) for a in np.atleast_1d(a_values)]
    x = np.atleast_1d(np.asarray(x_values, dtype=float))
    if not a_list or x.size == 0:
        raise ValueError("need at least one a and one x value")
    nan = math.nan
    reports = []
    for a in a_list:
        eq1 = ggd_inequality_lhs(a, x)
        reports += _reports(f"eq1(a={a:g})", x, nan, nan, nan, nan, nan, eq1)
    return reports
