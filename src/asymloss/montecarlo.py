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

__all__ = ["McEstimate", "estimate_loss_stats"]

_MIN_STATS_N = 1_000


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
    offsets,
    n: int,
    seed: int,
) -> list[McEstimate]:
    """Estimate E[L(Z + c)] and Var[L(Z + c)] at each offset c from the same
    n simulated errors: one estimate per offset, in order.

    Accumulates power sums of the losses shifted by the first observed
    value, which keeps four moments' worth of precision without holding
    the sample in memory.  The shifted losses are scaled by a power of two
    taken from the first chunk, which brings its largest one into
    [1/2, 1): the fourth powers then neither underflow nor overflow at
    extreme scales, and the scale comes back out exactly at the end.
    Each offset has its own pivot, scale and power sums, taken as a lone
    offset's would be: its estimate does not depend on the others.
    """
    n = int(n)
    if n < _MIN_STATS_N:
        raise ValueError(f"need n >= {_MIN_STATS_N} for stable estimates, got {n}")
    offsets = np.asarray(offsets, dtype=float)
    if offsets.ndim != 1 or offsets.size == 0:
        raise ValueError(f"offsets must be a non-empty 1-D sequence, got shape {offsets.shape}")

    pivots, exponents = [], []
    sums = np.zeros((offsets.size, 4))
    for chunk in dist.sample_chunks(n, seed):
        # One offset at a time: a (k, m) block of the chunk at every offset
        # falls out of cache and measured slower.
        for i, c in enumerate(offsets.tolist()):
            y = loss(chunk + c, params)
            # Overflow lands in the sums as inf, which the check below refuses.
            with np.errstate(over="ignore", invalid="ignore"):
                if i == len(pivots):  # the first chunk sets the pivot and scale
                    pivots.append(float(y[0]))
                    # frexp gives exponent 0 for 0, inf and nan.
                    exponents.append(math.frexp(float(np.max(np.abs(y - pivots[i]))))[1])
                d = np.ldexp(y - pivots[i], -exponents[i])
                d2 = d * d
                sums[i] += (d.sum(), d2.sum(), (d2 * d).sum(), (d2 * d2).sum())

    if not np.all(np.isfinite(sums)):
        raise RangeError("power sums of the simulated losses overflow float64")
    estimates = []
    for (s1, s2, s3, s4), pivot, exponent in zip(sums.tolist(), pivots, exponents):
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
            estimates.append(McEstimate(
                mean=mean,
                variance=math.ldexp(variance, 2 * exponent),
                std_error_mean=math.ldexp(math.sqrt(max(0.0, variance) / n), exponent),
                std_error_variance=math.ldexp(math.sqrt(var_of_variance), 2 * exponent),
                n=n,
                seed=int(seed),
            ))
        except OverflowError:
            raise RangeError("the variance of the simulated losses overflows float64") from None
    return estimates
