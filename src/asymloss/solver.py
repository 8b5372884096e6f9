"""Finding the variance-minimizing offset and pricing what it saves.

The offset C that minimizes expected loss is the critical fractile of
the error distribution, F(C) = k2/(k1 + k2).  For symmetric errors with
a central peak, the same C also lowers the variance of the realized
loss, never raising it -- so the solver reports both the first- and
second-moment effects, plus the beta kernel that certificates the
variance claim.

The solver starts from the distribution's own quantile at that
fractile and polishes it with at most two safeguarded Newton steps on
the expected-loss derivative in tail form (its slope is (k1 + k2) f(c)).
Densities that vanish on an interval make the optimizer set-valued; the
quantile is then the smallest-magnitude optimum, which the solver
reports and flags.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import ErrorDistribution
from .errors import CrossCheckError, NumericError, RangeError
from .inequalities import beta
from .loss_model import (
    LossParams,
    d_expected_loss,
    expected_loss,
    expected_loss_sq,
    variance_of_loss,
)

__all__ = ["OffsetSolution", "SavingsReport", "solve_offset", "savings_report"]

# |d/dc E[L]| allowed at the returned offset.
RESIDUAL_TOL = 1e-10
# Relative disagreement tolerated between independent evaluation routes.
CROSS_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class OffsetSolution:
    """The optimal offset and the moments that justify it."""

    C: float
    residual: float          # d/dc E[L] at C
    flat_optimum: bool       # True when a whole interval of offsets ties
    expected_at_C: float
    variance_at_C: float
    expected_at_zero: float
    variance_at_zero: float
    beta_at_C: float


@dataclass(frozen=True)
class SavingsReport:
    """What moving from c = 0 to c = C buys, absolutely and in percent."""

    solution: OffsetSolution
    delta_expected: float
    delta_variance: float
    pct_expected: float
    pct_variance: float


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def solve_offset(dist: ErrorDistribution, params: LossParams) -> OffsetSolution:
    """Minimize c -> E[L(Z + c)] and report the moments at 0 and C.

    Raises
    ------
    NumericError
        If the derivative at C misses ``RESIDUAL_TOL`` (scaled down to the
        smaller cost, plus what one ulp of C moves it).
    CrossCheckError
        If independent expressions for the moments at C disagree beyond
        ``CROSS_CHECK_TOL`` (relative).
    """
    def g(c):
        # The derivative at c, and the moment table it was read from.
        table = dist.partial_moments(abs(c))
        return d_expected_loss(dist, params, c, table=table), table

    ks = params.k_sum
    k_min = min(params.k1, params.k2)

    if params.k1 == params.k2:
        # g(0) = 0 identically; symmetry pins the optimum at the median.
        c_opt, gc, flat = 0.0, 0.0, False
        table_c = dist._table_at_zero()
    else:
        # F(C) = k2/(k1 + k2) means P(|Z| <= |C|) = |k1 - k2|/(k1 + k2).
        side = 1.0 if params.k2 > params.k1 else -1.0
        q = abs(params.k_diff) / ks
        with np.errstate(divide="ignore", over="ignore"):
            c_opt = side * float(dist._magnitude_quantile(q))
        if not math.isfinite(c_opt):
            raise NumericError(f"the magnitude quantile at {q!r} is not a finite float64")
        gc, table_c = g(c_opt)
        for _ in range(2):
            # The slope is 0 on a flat stretch, or where ks * f underflows.
            slope = ks * float(dist.pdf(c_opt))
            if slope <= 0.0 or gc == 0.0:
                break
            candidate = c_opt - gc / slope
            if candidate == c_opt:  # the step rounds away: g is known there
                break
            g_candidate, table_candidate = g(candidate)
            if abs(g_candidate) >= abs(gc):
                break
            c_opt, gc, table_c = candidate, g_candidate, table_candidate

        # No density just beyond a critical C: a whole interval ties, C at its near end.
        beyond = float(dist.pdf(np.nextafter(abs(c_opt), math.inf)))
        flat = abs(gc) <= 1e-12 * k_min and beyond == 0.0

    residual = gc + 0.0  # + 0.0 turns -0.0 into 0.0
    tol = RESIDUAL_TOL * min(1.0, k_min) + ks * float(dist.pdf(c_opt)) * math.ulp(c_opt)
    if abs(residual) > tol:
        raise NumericError(
            f"offset residual {residual:.3e} exceeds {tol:.1e}", achieved=abs(residual)
        )

    # Moments at the optimum, each via two independent arrangements.
    expected_c = expected_loss(dist, params, c_opt, table=table_c)
    expected_c_direct = ks * table_c.upper[1]  # the cancelled form, valid only at C
    if not _close(expected_c, expected_c_direct, CROSS_CHECK_TOL):
        raise CrossCheckError(
            f"expected loss at C disagrees between routes: "
            f"{expected_c!r} vs {expected_c_direct!r}"
        )

    e2_c = expected_loss_sq(dist, params, c_opt, table=table_c)
    variance_c = e2_c - expected_c * expected_c
    variance_c_direct = e2_c - expected_c_direct * expected_c_direct
    if not _close(variance_c, variance_c_direct, CROSS_CHECK_TOL):
        raise CrossCheckError(
            f"variance at C disagrees between routes: "
            f"{variance_c!r} vs {variance_c_direct!r}"
        )

    table_0 = dist._table_at_zero()
    return OffsetSolution(
        C=c_opt,
        residual=residual,
        flat_optimum=flat,
        expected_at_C=expected_c,
        variance_at_C=variance_c,
        expected_at_zero=expected_loss(dist, params, 0.0, table=table_0),
        variance_at_zero=variance_of_loss(dist, params, 0.0, table=table_0),
        beta_at_C=beta(dist, abs(c_opt), table=table_c),
    )


def savings_report(dist: ErrorDistribution, params: LossParams) -> SavingsReport:
    """Solve for C and express both savings absolutely and in percent.

    Raises RangeError when the loss moments at c = 0 fall below the smallest
    normal float64 (a tiny scale), where the percentages cannot be formed.
    """
    sol = solve_offset(dist, params)
    tiny = sys.float_info.min
    if not (sol.expected_at_zero >= tiny and sol.variance_at_zero >= tiny):
        raise RangeError(
            f"loss moments at c = 0 underflow float64 (expected "
            f"{sol.expected_at_zero!r}, variance {sol.variance_at_zero!r}); "
            f"rescale the errors"
        )
    d_exp = sol.expected_at_zero - sol.expected_at_C
    d_var = sol.variance_at_zero - sol.variance_at_C
    return SavingsReport(
        solution=sol,
        delta_expected=d_exp,
        delta_variance=d_var,
        pct_expected=100.0 * d_exp / sol.expected_at_zero,
        pct_variance=100.0 * d_var / sol.variance_at_zero,
    )
