"""Asymmetric piecewise-linear loss and its moments under shifted errors.

The loss charges k1 per unit of positive deviation and k2 per unit of
negative deviation:

    L(z) = k1 * z   for z >= 0
         = -k2 * z  for z < 0.

Adding a deliberate offset c to the error Z changes both the expected
loss and its variance.  All moments below are exact expressions in the
partial moments of the underlying symmetric error distribution around
the split point |c|, so a single MomentTable evaluation serves every
quantity at a given offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ErrorDistribution, _table_for
from .errors import DomainError, RangeError

__all__ = [
    "LossParams",
    "loss",
    "expected_loss",
    "expected_loss_sq",
    "variance_of_loss",
    "d_expected_loss",
]


def _sgn(c: float) -> float:
    """Sign with the convention sgn(0) = +1 (pinned; the formulas below
    are continuous at 0 either way, but the convention keeps them
    well-defined pointwise)."""
    return 1.0 if c >= 0.0 else -1.0


def _costs_by_side(params, c: float) -> tuple[float, float]:
    """(near, far): the cost charged on the side of 0 that c lies on
    (k1 for c >= 0, k2 otherwise), then the other one."""
    return (params.k1, params.k2) if c >= 0.0 else (params.k2, params.k1)


@dataclass(frozen=True)
class LossParams:
    """Unit costs of over- and under-shooting.  Both strictly positive."""

    k1: float
    k2: float

    def __post_init__(self):
        for name in ("k1", "k2"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise DomainError(f"{name} must be a real number, got {v!r}")
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be finite and > 0, got {v!r}")
        object.__setattr__(self, "k1", float(self.k1))
        object.__setattr__(self, "k2", float(self.k2))

    @property
    def k_sum(self) -> float:
        return self.k1 + self.k2

    @property
    def k_diff(self) -> float:
        return self.k1 - self.k2

    @property
    def critical_fractile(self) -> float:
        """The CDF level k2/(k1+k2) at which expected loss is minimized."""
        return self.k2 / (self.k1 + self.k2)


def loss(z, params: LossParams):
    """Pointwise loss; vectorized over z."""
    z = np.asarray(z, dtype=float)
    out = np.where(z >= 0.0, params.k1 * z, -params.k2 * z)
    return float(out) if out.ndim == 0 else out


def expected_loss(dist: ErrorDistribution, params: LossParams, c, *, table=None) -> float:
    """E[L(Z + c)] for a scalar offset c.

    Passing ``table`` (a precomputed ``dist.partial_moments(abs(c))``)
    avoids recomputing the partial moments.
    """
    c = float(c)
    t = _table_for(dist, abs(c), table)
    x = abs(c)
    near, _ = _costs_by_side(params, c)
    # Tail form: at the optimum near = (k1 + k2) excess[0], the mass above
    # |c|, so the second term vanishes instead of cancelling two large terms.
    value = params.k_sum * t.upper[1] + x * (near - params.k_sum * t.excess[0])
    if not math.isfinite(value):
        raise RangeError("expected loss is not representable in float64")
    return value


def expected_loss_sq(dist: ErrorDistribution, params: LossParams, c, *, table=None) -> float:
    """E[L(Z + c)^2] for a scalar offset c; needs a finite second moment."""
    c = float(c)
    t = _table_for(dist, abs(c), table)
    x = abs(c)
    m2_half = t.total(2)  # integral_0^inf z^2 f(z) dz = E[Z^2] / 2
    if not math.isfinite(m2_half):
        raise RangeError("second moment is not representable in float64")
    near, far = _costs_by_side(params, c)
    # near^2 E[(Z + c)^2], plus the far cost's excess where Z + c has the
    # other sign than c: integral_|c|^inf (t - |c|)^2 f(t) dt, the table's
    # tail about |c|, so nothing cancels far out in the tail.
    # k * k overflows to inf where k ** 2 raises OverflowError; the gate below reports it.
    value = near * near * (2.0 * m2_half + x * x) + (far * far - near * near) * t.excess[2]
    if not math.isfinite(value):
        raise RangeError("expected squared loss is not representable in float64")
    return value


def variance_of_loss(dist: ErrorDistribution, params: LossParams, c, *, table=None) -> float:
    """Var[L(Z + c)] = E[L^2] - E[L]^2, both from one moment table.

    The value can undershoot zero by a few ulps of E[L^2] for degenerate
    parameter corners; it is returned unclamped.
    """
    c = float(c)
    t = _table_for(dist, abs(c), table)
    e = expected_loss(dist, params, c, table=t)
    e2 = expected_loss_sq(dist, params, c, table=t)
    return e2 - e * e


def d_expected_loss(dist: ErrorDistribution, params: LossParams, c, *, table=None) -> float:
    """Derivative of c -> E[L(Z + c)].

    Equals (k1 - k2)/2 + sgn(c) (k1 + k2) integral_0^|c| f, which is the
    same as (k1 + k2) (F(c) - k2/(k1 + k2)) for the error CDF F; it
    vanishes exactly at the critical fractile.  Evaluated in tail form,
    sgn(c) (k - (k1 + k2) integral_|c|^inf f) with k = k1 for c >= 0 and
    k2 otherwise, it does not cancel far out in the tail.
    """
    c = float(c)
    mass_above = _table_for(dist, abs(c), table).excess[0]
    near, _ = _costs_by_side(params, c)
    return _sgn(c) * (near - params.k_sum * mass_above)
