"""Symmetric error distributions with non-increasing density on [0, inf).

Every distribution here models a forecast error Z whose density satisfies
f(x) = f(-x) and f(x) >= f(y) whenever 0 <= x <= y.  Under that symmetry
the half line [0, inf) carries mass exactly 1/2, and everything the loss
and offset machinery needs reduces to six partial moments around a split
point x >= 0:

    lower[k] = integral_0^x   t^k f(t) dt
    upper[k] = integral_x^inf t^k f(t) dt,        k in {0, 1, 2}.

Closed forms are used wherever the family admits them: the generalized
Gaussian reduces to regularized incomplete gamma functions, the Gaussian
to erf/erfc, the Laplace and uniform families to elementary expressions,
and the piecewise-constant empirical family to cumulative sums.  A custom
subclass only has to provide ``pdf``; the base class then falls back to
adaptive quadrature (and bisection for quantiles), slower but correct, and
takes each upper moment as a half-line total minus the lower moment.

Sampling is deterministic and chunked: a draw of n variates is produced in
fixed-size chunks, chunk i seeded with ``default_rng([seed, i])``, so the
same (n, seed) pair yields bit-identical output regardless of how the
chunks are consumed.  All variates come from one scheme shared by every
family -- inverse magnitude CDF times a random sign -- which keeps streams
comparable across families under a common seed.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize
from scipy import special as _sc

from .errors import (
    DegenerateDistributionError,
    DomainError,
    InsufficientDataError,
    NumericError,
    RangeError,
)

__all__ = [
    "SAMPLE_CHUNK",
    "MomentTable",
    "ErrorDistribution",
    "GeneralizedGaussian",
    "Gaussian",
    "Laplace",
    "Uniform",
    "EmpiricalSymmetric",
    "AssumptionDiagnostics",
    "fit_empirical",
]

# Chunk length for deterministic streamed sampling.
SAMPLE_CHUNK = 1 << 16

# Quadrature targets for the generic fallback path.
_QUAD_ABS = 1e-11
_QUAD_REL = 1e-9

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _check_finite(name, value):
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return arr


def _scalar_or_array(arr):
    arr = np.asarray(arr)
    return float(arr) if arr.ndim == 0 else arr


def _split_point(x):
    """x as a float (scalar input) or float array, checked finite and >= 0."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr) & (arr >= 0.0)):
        raise DomainError(f"split point must be finite and >= 0, got {x!r}")
    return _scalar_or_array(arr)


def _table_for(dist, x, table):
    """``dist.partial_moments(x)``, or ``table`` once it is checked to be
    built at exactly x (scalar or array)."""
    if table is None:
        return dist.partial_moments(x)
    x = _split_point(x)
    if not np.array_equal(table.x, x):
        raise DomainError(f"moment table was built at x={table.x}, not {x}")
    return table


@dataclass(frozen=True)
class MomentTable:
    """Partial moments of orders 0..2 on both sides of a split point.

    ``lower[k]`` integrates t^k f(t) over [0, x], ``upper[k]`` over
    [x, inf).  ``lower[0] + upper[0] == 1/2`` up to evaluation error.
    For an array of split points every entry is an array of x's shape.
    """

    x: float | np.ndarray
    lower: tuple
    upper: tuple

    def total(self, k: int) -> float:
        """Half-line moment integral_0^inf t^k f(t) dt."""
        return self.lower[k] + self.upper[k]


class ErrorDistribution:
    """Base class for symmetric, centrally peaked error distributions.

    Subclasses must implement ``pdf`` and may override the hooks
    ``_half_moment_below``, ``_half_total`` and ``_magnitude_quantile``
    with closed forms.  The upper side ``_half_moment_above`` is derived
    as total minus lower; a family overrides it only where a direct
    tail form is more accurate.  Instances are immutable after
    construction and safe for concurrent use; sampling derives all
    randomness from explicit seeds.
    """

    kind = "custom"

    # ------------------------------------------------------------------
    # subclass surface
    # ------------------------------------------------------------------

    def pdf(self, x):
        """Density at x (scalar or array)."""
        raise NotImplementedError

    def params(self) -> dict:
        """Family parameters as a plain dict (for reports), one entry per
        constructor argument, read back from the attribute of that name."""
        names = inspect.signature(type(self)).parameters
        return {name: getattr(self, name) for name in names}

    def _half_moment_below(self, k, x):
        """integral_0^x t^k f(t) dt for x >= 0; generic quadrature."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return self._quad_moment(k, 0.0, float(x))
        return np.array([self._quad_moment(k, 0.0, xi) for xi in x.ravel()]).reshape(x.shape)

    def _half_total(self, k):
        """integral_0^inf t^k f(t) dt; generic quadrature, cached per order."""
        totals = self.__dict__.setdefault("_totals_cache", {})
        if k not in totals:
            totals[k] = self._quad_moment(k, 0.0, np.inf)
        return totals[k]

    def _half_moment_above(self, k, x):
        """integral_x^inf t^k f(t) dt for x >= 0, as total minus lower."""
        return np.maximum(self._half_total(k) - self._half_moment_below(k, x), 0.0)

    def _magnitude_quantile(self, q):
        """Smallest m >= 0 with P(|Z| <= m) = q; generic root bracketing."""
        q = np.asarray(q, dtype=float)
        if q.ndim == 0:
            return self._root_magnitude(float(q))
        return np.array([self._root_magnitude(qi) for qi in q.ravel()]).reshape(q.shape)

    # ------------------------------------------------------------------
    # generic numerics
    # ------------------------------------------------------------------

    def _quad_moment(self, k, lo, hi):
        if hi <= lo:
            return 0.0

        def integrand(t):
            return (t ** k) * float(self.pdf(t)) if k else float(self.pdf(t))

        value, err = integrate.quad(
            integrand, lo, hi, epsabs=_QUAD_ABS, epsrel=_QUAD_REL, limit=200
        )
        if err > 10.0 * max(_QUAD_ABS, _QUAD_REL * abs(value)):
            raise NumericError(
                f"quadrature of order-{k} moment on [{lo}, {hi}] did not converge",
                achieved=err,
            )
        return value

    def _root_magnitude(self, q):
        if q <= 0.0:
            return 0.0
        half_mass = lambda m: 2.0 * float(self._half_moment_below(0, m)) - q
        hi = max(self.scale, 1e-12)
        for _ in range(200):
            if half_mass(hi) >= 0.0:
                break
            hi *= 2.0
        else:
            raise NumericError(f"could not bracket the magnitude quantile for q={q}")
        return optimize.brentq(half_mass, 0.0, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)

    # ------------------------------------------------------------------
    # shared public API
    # ------------------------------------------------------------------

    @property
    def second_moment(self) -> float:
        """E[Z^2]; raises RangeError if it is not a finite float64."""
        cached = getattr(self, "_m2_cache", None)
        if cached is None:
            table = self.partial_moments(0.0)
            cached = 2.0 * table.total(2)
            if not np.isfinite(cached):
                raise RangeError(f"second moment of {self.kind} is not representable")
            object.__setattr__(self, "_m2_cache", cached)
        return cached

    @property
    def scale(self) -> float:
        """Root-mean-square error, sqrt(E[Z^2])."""
        return math.sqrt(self.second_moment)

    def cdf(self, x):
        """P(Z <= x).  Exactly 1/2 at x = 0 by symmetry."""
        x = _check_finite("x", x)
        below = np.asarray(self._half_moment_below(0, np.abs(x)))
        out = 0.5 + np.sign(x) * np.minimum(below, 0.5)
        return _scalar_or_array(np.clip(out, 0.0, 1.0))

    def quantile(self, p):
        """Inverse CDF on (0, 1); the smallest such point on flat stretches."""
        p = np.asarray(p, dtype=float)
        if not np.all((p > 0.0) & (p < 1.0)):
            raise DomainError(f"p must lie strictly inside (0, 1), got {p!r}")
        q = 2.0 * p - 1.0
        mag = np.asarray(self._magnitude_quantile(np.abs(q)))
        return _scalar_or_array(np.sign(q) * mag)

    def partial_moments(self, x) -> MomentTable:
        """All six partial moments around a split point x >= 0.

        ``x`` is a scalar (the table holds floats) or an array (the table
        holds arrays of its shape); one non-finite entry raises RangeError.
        """
        x = _split_point(x)
        # inf * 0 -> nan and overflow to inf are fine here: the finiteness
        # gate below turns either into a RangeError.
        with np.errstate(over="ignore", invalid="ignore"):
            lower = tuple(_scalar_or_array(self._half_moment_below(k, x)) for k in (0, 1, 2))
            upper = tuple(_scalar_or_array(self._half_moment_above(k, x)) for k in (0, 1, 2))
        if not np.all(np.isfinite(lower + upper)):
            raise RangeError(
                f"partial moments of {self.kind} are not float64-representable"
            )
        return MomentTable(x=x, lower=lower, upper=upper)

    def sample(self, n, seed):
        """Draw n variates, deterministically in (n, seed)."""
        return np.concatenate(list(self.sample_chunks(n, seed)))

    def sample_chunks(self, n, seed, chunk_size=SAMPLE_CHUNK):
        """Yield the sample in chunks without materializing all of it."""
        n = int(n)
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        for index, start in enumerate(range(0, n, chunk_size)):
            m = min(chunk_size, n - start)
            rng = np.random.default_rng([seed, index])
            yield self._draw(rng, m)

    def _draw(self, rng, m):
        # Inverse magnitude CDF times an independent random sign.
        u = rng.random(m)
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=m)
        return signs * np.asarray(self._magnitude_quantile(u), dtype=float)

    def describe(self) -> dict:
        return {"kind": self.kind, **self.params()}

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"


# ----------------------------------------------------------------------
# parametric families
# ----------------------------------------------------------------------


class GeneralizedGaussian(ErrorDistribution):
    """Density exp(-(|z|/b)^(1/a)) / (2 a b gamma(a)).

    ``a`` is the shape (a = 1/2 is Gaussian, a = 1 is Laplace; larger a
    gives heavier tails), ``b`` the scale.  Partial moments reduce to
    regularized incomplete gamma functions of order (k+1)a at
    X = (x/b)^(1/a).
    """

    kind = "generalized_gaussian"

    def __init__(self, a, b):
        a = float(a)
        b = float(b)
        if not (math.isfinite(a) and a > 0.0):
            raise DomainError(f"shape a must be a finite positive real, got {a!r}")
        if not (math.isfinite(b) and b > 0.0):
            raise DomainError(f"scale b must be a finite positive real, got {b!r}")
        self.a = a
        self.b = b
        # The normalizing constant needs gamma(a) directly.
        gamma_a = float(_sc.gamma(a))
        if not math.isfinite(gamma_a):
            raise RangeError(f"gamma(a) overflows float64 at a={a!r}")
        denom = a * b * gamma_a
        if math.isfinite(denom):
            self._norm = 0.5 / denom
        else:
            # The product overflows before gamma(a) does (a near 171, or a
            # large b); the constant itself may still be a (subnormal) float.
            self._norm = math.exp(-(math.log(2.0 * a) + math.log(b) + _sc.gammaln(a)))
        # Half-line moments of orders 0..2, needed by every moment table.
        self._totals = tuple(self._half_total(k) for k in range(3))

    def _standardized(self, x):
        # X = (x/b)^(1/a); overflow to inf is fine (tail is then exactly 0/1).
        # float_power calls libm pow per element, as a scalar ** does, so an
        # array rounds exactly like its elements; numpy's ** on arrays uses a
        # SIMD pow that is 1 ulp off libm on about 5% of inputs.
        with np.errstate(over="ignore"):
            return np.float_power(np.asarray(x, dtype=float) / self.b, 1.0 / self.a)

    def pdf(self, x):
        x = _check_finite("x", x)
        with np.errstate(over="ignore"):
            out = self._norm * np.exp(-self._standardized(np.abs(x)))
        return _scalar_or_array(out)

    def _half_total(self, k):
        # integral_0^inf t^k f = b^k gamma((k+1)a) / (2 gamma(a))
        log_val = (
            k * math.log(self.b)
            + _sc.gammaln((k + 1.0) * self.a)
            - _sc.gammaln(self.a)
            - math.log(2.0)
        )
        try:
            return math.exp(log_val)
        except OverflowError:
            # Let inf flow into the moment tables; the finiteness gate on
            # second_moment turns it into a RangeError for the caller.
            return math.inf

    def _half_moment_below(self, k, x):
        return self._totals[k] * _sc.gammainc((k + 1.0) * self.a, self._standardized(x))

    def _half_moment_above(self, k, x):
        return self._totals[k] * _sc.gammaincc((k + 1.0) * self.a, self._standardized(x))

    def _magnitude_quantile(self, q):
        with np.errstate(over="ignore"):
            return self.b * _sc.gammaincinv(self.a, q) ** self.a


class Gaussian(ErrorDistribution):
    """Normal errors with mean zero and standard deviation sigma."""

    kind = "gaussian"

    def __init__(self, sigma):
        sigma = float(sigma)
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise DomainError(f"sigma must be a finite positive real, got {sigma!r}")
        self.sigma = sigma

    def pdf(self, x):
        x = _check_finite("x", x)
        z = x / self.sigma
        return _scalar_or_array(np.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI))

    def _half_moment_below(self, k, x):
        x = np.asarray(x, dtype=float)
        s = self.sigma
        if k == 0:
            return 0.5 * _sc.erf(x / (s * _SQRT2))
        if k == 1:
            # s/sqrt(2 pi) (1 - exp(-x^2/2s^2)), kept stable near 0 via expm1
            return (s / _SQRT_2PI) * (-np.expm1(-0.5 * np.float_power(x / s, 2)))
        return s * s * (0.5 * _sc.erf(x / (s * _SQRT2)) - x * self.pdf(x))

    def _half_moment_above(self, k, x):
        x = np.asarray(x, dtype=float)
        s = self.sigma
        if k == 0:
            return 0.5 * _sc.erfc(x / (s * _SQRT2))
        if k == 1:
            return s * s * self.pdf(x)
        return s * s * (0.5 * _sc.erfc(x / (s * _SQRT2)) + x * self.pdf(x))

    def _magnitude_quantile(self, q):
        return self.sigma * _SQRT2 * _sc.erfinv(np.asarray(q, dtype=float))


class Laplace(ErrorDistribution):
    """Double-exponential errors, density exp(-|x|/b) / (2b)."""

    kind = "laplace"

    def __init__(self, b):
        b = float(b)
        if not (math.isfinite(b) and b > 0.0):
            raise DomainError(f"scale b must be a finite positive real, got {b!r}")
        self.b = b

    def pdf(self, x):
        x = _check_finite("x", x)
        return _scalar_or_array(np.exp(-np.abs(x) / self.b) / (2.0 * self.b))

    def _half_moment_below(self, k, x):
        x = np.asarray(x, dtype=float)
        b = self.b
        e = np.exp(-x / b)
        if k == 0:
            return -0.5 * np.expm1(-x / b)
        if k == 1:
            return 0.5 * b * (-np.expm1(-x / b)) - 0.5 * x * e
        return b * b - 0.5 * e * (x * x + 2.0 * b * x + 2.0 * b * b)

    def _half_moment_above(self, k, x):
        x = np.asarray(x, dtype=float)
        b = self.b
        e = np.exp(-x / b)
        if k == 0:
            return 0.5 * e
        if k == 1:
            return 0.5 * (x + b) * e
        return 0.5 * e * (x * x + 2.0 * b * x + 2.0 * b * b)

    def _magnitude_quantile(self, q):
        return -self.b * np.log1p(-np.asarray(q, dtype=float))


class Uniform(ErrorDistribution):
    """Uniform errors on [-w, w]."""

    kind = "uniform"

    def __init__(self, w):
        w = float(w)
        if not (math.isfinite(w) and w > 0.0):
            raise DomainError(f"half width w must be a finite positive real, got {w!r}")
        self.w = w

    def pdf(self, x):
        x = _check_finite("x", x)
        out = np.where(np.abs(x) <= self.w, 1.0 / (2.0 * self.w), 0.0)
        return _scalar_or_array(out)

    def _half_moment_below(self, k, x):
        r = np.minimum(np.asarray(x, dtype=float), self.w)
        return np.float_power(r, k + 1) / (2.0 * self.w * (k + 1))

    def _half_moment_above(self, k, x):
        r = np.minimum(np.asarray(x, dtype=float), self.w)
        return (np.float_power(self.w, k + 1) - np.float_power(r, k + 1)) / (2.0 * self.w * (k + 1))

    def _magnitude_quantile(self, q):
        return self.w * np.asarray(q, dtype=float)


class EmpiricalSymmetric(ErrorDistribution):
    """Symmetrized piecewise-constant density on magnitudes.

    ``breakpoints`` is an increasing grid starting at 0; ``heights[j]`` is
    the (two-sided) density on (breakpoints[j], breakpoints[j+1]].  Heights
    must be non-increasing, matching the central-peak assumption; they are
    rescaled on construction so the half line carries mass exactly 1/2.
    """

    kind = "empirical_symmetric"

    def __init__(self, breakpoints, heights):
        t = np.asarray(breakpoints, dtype=float).ravel()
        h = np.asarray(heights, dtype=float).ravel()
        if t.ndim != 1 or t.size < 2:
            raise DomainError("need at least two breakpoints")
        if h.size != t.size - 1:
            raise DomainError("need exactly one height per interval")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(h))):
            raise DomainError("breakpoints and heights must be finite")
        if t[0] != 0.0:
            raise DomainError("breakpoints must start at 0")
        if np.any(np.diff(t) <= 0.0):
            raise DomainError("breakpoints must be strictly increasing")
        if np.any(h < 0.0):
            raise DomainError("heights must be non-negative")
        if np.any(np.diff(h) > 1e-9 * max(h.max(initial=0.0), 1.0)):
            raise DomainError("heights must be non-increasing away from zero")

        widths = np.diff(t)
        half_mass = float(np.sum(h * widths))
        if half_mass <= 0.0:
            raise DegenerateDistributionError("density has zero total mass")
        h = h / (2.0 * half_mass)

        self._t = t
        self._h = h
        # Order-k integrals at the breakpoints, summed from 0 and from the
        # top: a tail taken as total minus lower would cancel far out.
        self._cum = []
        self._tail = []
        for k in range(3):
            piece = h * np.diff(t ** (k + 1)) / (k + 1.0)
            self._cum.append(np.concatenate([[0.0], np.cumsum(piece)]))
            self._tail.append(np.concatenate([np.cumsum(piece[::-1])[::-1], [0.0]]))

    def params(self):
        return {
            "n_pieces": int(self._h.size),
            "support": float(self._t[-1]),
        }

    @property
    def breakpoints(self):
        return self._t.copy()

    @property
    def heights(self):
        return self._h.copy()

    def _piece_index(self, ax):
        idx = np.searchsorted(self._t, ax, side="right") - 1
        return np.clip(idx, 0, self._h.size - 1)

    def pdf(self, x):
        x = _check_finite("x", x)
        ax = np.abs(np.asarray(x, dtype=float))
        j = self._piece_index(ax)
        out = np.where(ax <= self._t[-1], self._h[j], 0.0)
        return _scalar_or_array(out)

    def _half_moment_below(self, k, x):
        ax = np.asarray(x, dtype=float)
        xi = np.minimum(ax, self._t[-1])
        j = self._piece_index(xi)
        partial = self._h[j] * (
            np.float_power(xi, k + 1) - np.float_power(self._t[j], k + 1)
        ) / (k + 1.0)
        return self._cum[k][j] + partial

    def _half_moment_above(self, k, x):
        xi = np.minimum(np.asarray(x, dtype=float), self._t[-1])
        j = self._piece_index(xi)
        partial = self._h[j] * (
            np.float_power(self._t[j + 1], k + 1) - np.float_power(xi, k + 1)
        ) / (k + 1.0)
        return self._tail[k][j + 1] + partial

    def _magnitude_quantile(self, q):
        q = np.asarray(q, dtype=float)
        grid = 2.0 * self._cum[0]  # magnitude CDF at the breakpoints, ends at 1
        i = np.searchsorted(grid, q, side="left")
        i = np.clip(i, 0, grid.size - 1)
        exact = grid[i] == q
        lo = np.clip(i - 1, 0, grid.size - 1)
        width = grid[i] - grid[lo]
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(width > 0.0, (q - grid[lo]) / width, 0.0)
        interp = self._t[lo] + frac * (self._t[i] - self._t[lo])
        return np.where(exact, self._t[i], interp)


# ----------------------------------------------------------------------
# fitting from observed errors
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionDiagnostics:
    """How well a sample of errors matches the symmetry/shape assumptions."""

    n: int
    n_positive: int
    n_negative: int
    n_zero: int
    sign_statistic: float
    sign_pvalue: float
    symmetric_input: bool
    monotonicity_violation_mass: float


def fit_empirical(errors, *, min_observations=30):
    """Fit a symmetric decreasing density to observed errors.

    The magnitudes |z| are pooled (symmetrization), their empirical CDF
    slopes are projected onto the non-increasing cone (the classical
    shape-constrained maximum-likelihood estimate for a decreasing
    density), and the result is mirrored around zero.

    Parameters
    ----------
    errors : array_like
        Observed forecast errors.  Needs at least ``min_observations``
        finite entries and nonzero spread.
    min_observations : int
        Refuse to fit below this sample size.

    Returns
    -------
    (EmpiricalSymmetric, AssumptionDiagnostics)
        The fitted distribution plus diagnostics: an exact two-sided sign
        test of the symmetry assumption, whether the input was exactly
        sign-symmetric as a multiset, and how much mass the monotone
        projection had to move.
    """
    z = np.asarray(errors, dtype=float).ravel()
    if not np.all(np.isfinite(z)):
        raise DomainError("errors must be finite")
    n = z.size
    if n < min_observations:
        raise InsufficientDataError(
            f"need at least {min_observations} observations, got {n}"
        )

    n_pos = int(np.sum(z > 0.0))
    n_neg = int(np.sum(z < 0.0))
    n_zero = n - n_pos - n_neg

    mags = np.abs(z)
    if float(mags.max()) == 0.0:
        raise DegenerateDistributionError("all errors are zero; no spread to model")

    n_signed = n_pos + n_neg
    sign_stat = (n_pos - n_neg) / math.sqrt(n_signed) if n_signed else 0.0
    # Exact two-sided sign test at p = 1/2: twice the binomial tail of the
    # rarer sign, P(X <= m) = I_1/2(n - m, m + 1), and 1 when the signs tie.
    m = min(n_pos, n_neg)
    sign_p = 1.0 if n_pos == n_neg else min(1.0, 2.0 * _sc.betainc(n_signed - m, m + 1, 0.5))

    pos_sorted = np.sort(z[z > 0.0])
    neg_sorted = np.sort(-z[z < 0.0])
    symmetric = pos_sorted.size == neg_sorted.size and bool(
        np.array_equal(pos_sorted, neg_sorted)
    )

    # Grenander step on the magnitudes.  Exact zeros carry no magnitude
    # information; their mass is folded into the first positive bin.
    values, counts = np.unique(mags, return_counts=True)
    if values[0] == 0.0:
        values = values[1:]
        counts = np.array([counts[0] + counts[1], *counts[2:]])
    breaks = np.concatenate([[0.0], values])
    widths = np.diff(breaks)
    raw = (counts / n) / widths  # empirical magnitude density per bin
    iso = optimize.isotonic_regression(raw, weights=widths, increasing=False).x
    violation = 0.5 * float(np.sum(np.abs(raw - iso) * widths))

    dist = EmpiricalSymmetric(breaks, iso / 2.0)
    diag = AssumptionDiagnostics(
        n=n,
        n_positive=n_pos,
        n_negative=n_neg,
        n_zero=n_zero,
        sign_statistic=float(sign_stat),
        sign_pvalue=float(sign_p),
        symmetric_input=symmetric,
        monotonicity_violation_mass=violation,
    )
    return dist, diag
