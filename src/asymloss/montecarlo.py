"""Simulation-side estimates of the loss moments, for cross-checking.

Everything here is deliberately blind to the closed forms: draws come
from the distribution's sampler, losses from the pointwise loss
function, moments from streamed power sums.  Agreement (or not) with
the analytic expressions is then evidence about the analytics, which is
the whole point of an oracle.

Estimates are deterministic in (n, seed): sampling is chunked with
per-chunk seeding and the accumulation order is fixed, so a given
configuration reproduces bit-identically across runs and machines with
the same BLAS-free reduction path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ErrorDistribution
from .errors import RangeError
from .loss_model import LossParams, loss

__all__ = ["McEstimate", "estimate_loss_stats", "estimate_quantile"]

_MIN_STATS_N = 1_000
_MIN_QUANTILE_N = 10_000


@dataclass(frozen=True)
class McEstimate:
    """Sample mean/variance of the loss with delta-method standard errors.

    ``std_error_variance`` uses the classical Var(S^2) expression
    (mu4 - sigma^4 (n-3)/(n-1)) / n from the sample's own fourth central
    moment, so 5-sigma bands for both moments come straight off the
    record.
    """

    mean: float
    variance: float
    std_error_mean: float
    std_error_variance: float
    n: int
    seed: int


def estimate_loss_stats(
    dist: ErrorDistribution,
    params: LossParams,
    c,
    n: int,
    seed: int,
) -> McEstimate:
    """Estimate E[L(Z + c)] and Var[L(Z + c)] from n simulated errors.

    Accumulates power sums of the losses shifted by the first observed
    value, which keeps four moments' worth of precision without holding
    the sample in memory.  The shifted losses are scaled by a power of two
    taken from the first chunk, which brings its largest one into
    [1/2, 1): the fourth powers then neither underflow nor overflow at
    extreme scales, and the scale comes back out exactly at the end.
    """
    n = int(n)
    if n < _MIN_STATS_N:
        raise ValueError(f"need n >= {_MIN_STATS_N} for stable estimates, got {n}")
    c = float(c)

    pivot = None
    s1 = s2 = s3 = s4 = 0.0
    for chunk in dist.sample_chunks(n, seed):
        y = loss(chunk + c, params)
        # Overflow lands in the sums as inf, which the check below refuses.
        with np.errstate(over="ignore", invalid="ignore"):
            if pivot is None:
                pivot = float(y[0])
                # frexp gives exponent 0 for 0, inf and nan.
                exponent = math.frexp(float(np.max(np.abs(y - pivot))))[1]
            d = np.ldexp(y - pivot, -exponent)
            d2 = d * d
            s1 += float(d.sum())
            s2 += float(d2.sum())
            s3 += float((d2 * d).sum())
            s4 += float((d2 * d2).sum())

    if not all(math.isfinite(s) for s in (s1, s2, s3, s4)):
        raise RangeError("power sums of the simulated losses overflow float64")
    # Every moment below is homogeneous in the scaled losses, and so is
    # each square root, so undoing the scale by ldexp is exact.
    delta = s1 / n
    mean = pivot + math.ldexp(delta, exponent)
    m2 = s2 / n - delta * delta
    m4 = (
        s4 / n
        - 4.0 * delta * (s3 / n)
        + 6.0 * delta * delta * (s2 / n)
        - 3.0 * delta ** 4
    )
    variance = m2 * n / (n - 1)
    var_of_variance = max(0.0, (m4 - m2 * m2 * (n - 3) / (n - 1)) / n)
    try:
        return McEstimate(
            mean=mean,
            variance=math.ldexp(variance, 2 * exponent),
            std_error_mean=math.ldexp(math.sqrt(max(0.0, variance) / n), exponent),
            std_error_variance=math.ldexp(math.sqrt(var_of_variance), 2 * exponent),
            n=n,
            seed=int(seed),
        )
    except OverflowError:
        raise RangeError("the variance of the simulated losses overflows float64") from None


def estimate_quantile(dist: ErrorDistribution, p, n: int, seed: int) -> float:
    """Order-statistic estimate of the p-quantile from n simulated errors."""
    n = int(n)
    if n < _MIN_QUANTILE_N:
        raise ValueError(f"need n >= {_MIN_QUANTILE_N} for quantiles, got {n}")
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    sample = dist.sample(n, seed)
    k = min(n - 1, max(0, math.ceil(p * n) - 1))
    return float(np.partition(sample, k)[k])
