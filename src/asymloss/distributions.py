"""Symmetric error distributions with non-increasing density on [0, inf).

Every distribution here models a forecast error Z whose density satisfies
f(x) = f(-x) and f(x) >= f(y) whenever 0 <= x <= y.  Under that symmetry
the half line [0, inf) carries mass exactly 1/2, and everything the loss
and offset machinery needs reduces to six partial moments around a split
point x >= 0:

    lower[k] = integral_0^x   t^k f(t) dt
    upper[k] = integral_x^inf t^k f(t) dt,        k in {0, 1, 2}.

Each family returns all six in one call of its ``_half_moments(x)`` hook,
as ``(lower, upper)``, so the pieces both sides share are evaluated once.
Closed forms are used wherever the family admits them: the generalized
Gaussian reduces to regularized incomplete gamma functions, the Gaussian
to erf/erfc, the Laplace and uniform families to elementary expressions,
and the piecewise-constant empirical family to cumulative sums.  A custom
subclass only has to provide a vectorized ``pdf``; the base class then
builds, once per instance, a table of Gauss-Legendre panels over the
density's support and answers every moment and quantile from it: sums of
whole panels plus one short pass inside the panel that holds the point,
and a safeguarded Newton-bisection there for quantiles.

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

# Panel table of the pdf-only fallback: 20-node Gauss-Legendre rule, the
# disagreement allowed per panel (relative to that order's half-line
# total), the most panels a table may hold, the allowed error of the
# half-line mass 1/2, and the Newton-bisection steps per quantile.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_PANEL_REL = 1e-15
_PANEL_BUDGET = 20_000
_MASS_TOL = 1e-9
_NEWTON_MAX = 100
_TINY = np.finfo(float).tiny

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _check_finite(name, value):
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return arr


def _positive(value, name):
    """value as a float, checked finite and > 0 (DomainError otherwise)."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be a finite positive real, got {value!r}")
    return value


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


def _gauss(values, half):
    """Gauss-Legendre sums of each row of node values, times the half widths.
    numpy reduces each row on its own, so a point rounds the same alone or
    in an array (a BLAS matrix product does not)."""
    return np.sum(values * _GL_WEIGHTS, axis=-1) * half


class _PanelTable:
    """Partial moments and magnitude quantiles of a density given by its pdf.

    [0, end] is covered by Gauss-Legendre panels, where ``end`` is the
    first point at which the pdf is exactly 0 (a non-increasing density
    is positive on an interval around 0 and zero past it).  The starting
    edges double away from the half-height point, so the table does not
    depend on the scale; then every panel whose 20-node value disagrees
    with the sum of its halves by more than ``_PANEL_REL`` of that
    order's total is bisected.  Sums of the panel values from the bottom
    (``cum``) and from the top (``tail``) serve every query, with one
    short Gauss-Legendre pass inside the panel that holds the point.
    The pdf is only ever called on a 1-D float array.
    """

    def __init__(self, pdf):
        self._pdf = pdf
        f0 = float(self._density(np.zeros(1))[0])
        if not (math.isfinite(f0) and f0 > 0.0 and math.isfinite(1.0 / f0)):
            raise NumericError(f"the density at 0 must be finite and positive, got {f0!r}")
        # f(x) x <= integral_0^x f <= 1/2, so the half-height point lies
        # below 1/f0; the anchor is the last grid point above half height.
        # The grid spans the float64 range, where a pdf may overflow inside.
        with np.errstate(over="ignore", invalid="ignore"):
            grid = np.ldexp(1.0 / f0, np.arange(-1100, 1100))
            grid = grid[(grid > 0.0) & np.isfinite(grid)]
            f = self._density(grid)
        anchor = grid[max(int(np.argmax(~(f > 0.5 * f0))) - 1, 0)]
        if np.all(f > 0.0):
            raise NumericError("the density stays positive past the float64 range")
        first_zero = int(np.argmax(~(f > 0.0)))
        lo, hi = (grid[first_zero - 1] if first_zero else 0.0), grid[first_zero]
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if self._density(np.array([mid]))[0] > 0.0:
                lo = mid
            else:
                hi = mid
        self.end = hi
        with np.errstate(over="ignore"):
            inner = np.ldexp(anchor, np.arange(-8, 1100))
        edges = np.concatenate([[0.0], inner[inner < hi], [hi]])
        with np.errstate(over="ignore", invalid="ignore"):
            self.edges, values = self._refine(edges)
        self.cum = np.concatenate([np.zeros((3, 1)), np.cumsum(values, axis=1)], axis=1)
        self.tail = np.concatenate(
            [np.cumsum(values[:, ::-1], axis=1)[:, ::-1], np.zeros((3, 1))], axis=1
        )
        mass_error = abs(2.0 * self.tail[0, 0] - 1.0)
        if not mass_error <= _MASS_TOL:
            raise NumericError(
                f"the density's half-line mass is {self.tail[0, 0]!r}, not 1/2",
                achieved=mass_error,
            )

    def _density(self, t):
        return np.asarray(self._pdf(t.ravel()), dtype=float).reshape(t.shape)

    @staticmethod
    def _nodes(a, b):
        """Gauss-Legendre nodes on each [a_i, b_i], one row per interval,
        and the half widths that scale the weights."""
        half = 0.5 * (b - a)
        return (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES, half

    def _moments(self, a, b):
        """integral_a^b t^k f for k = 0, 1, 2 on each panel, shape (3, n)."""
        t, half = self._nodes(a, b)
        f = self._density(t)
        return np.stack([_gauss(t ** k * f, half) for k in range(3)])

    def _refine(self, edges):
        a, b = edges[:-1], edges[1:]
        whole = self._moments(a, b)
        done_a, done_v = [], []
        n_done = 0
        while a.size:
            mid = 0.5 * (a + b)
            halves = self._moments(np.concatenate([a, mid]), np.concatenate([mid, b]))
            left, right = halves[:, : a.size], halves[:, a.size :]
            totals = sum(v.sum(axis=1) for v in done_v) + (left + right).sum(axis=1)
            # A NaN or inf disagreement is kept, not refined: the mass check
            # or the moment tables' finiteness gate reports it.
            gap = np.abs(whole - (left + right))
            split = np.any(gap > _PANEL_REL * np.abs(totals)[:, None] + _TINY, axis=0)
            split &= (a < mid) & (mid < b)
            done_a.append(a[~split])
            done_v.append(whole[:, ~split])
            n_done += int(np.sum(~split))
            if split.any() and n_done + 2 * int(np.sum(split)) > _PANEL_BUDGET:
                worst = float(np.max(gap[:, split] / (np.abs(totals)[:, None] + _TINY)))
                raise NumericError(
                    f"the panel table needs more than {_PANEL_BUDGET} panels", achieved=worst
                )
            a, b = np.concatenate([a[split], mid[split]]), np.concatenate([mid[split], b[split]])
            whole = np.concatenate([left[:, split], right[:, split]], axis=1)
        lo = np.concatenate(done_a)
        order = np.argsort(lo)
        return np.append(lo[order], self.end), np.concatenate(done_v, axis=1)[:, order]

    def moments(self, x):
        """(lower, upper) moments of orders 0..2 at each entry of x: whole
        panels summed from the bottom and from the top, plus the stretches
        from x (clipped to [0, end]) to the two edges of the panel holding
        it, all from one density pass."""
        flat = np.minimum(np.asarray(x, dtype=float).ravel(), self.end)
        j = np.clip(np.searchsorted(self.edges, flat, side="right") - 1, 0, self.edges.size - 2)
        parts = self._moments(
            np.concatenate([self.edges[j], flat]), np.concatenate([flat, self.edges[j + 1]])
        )
        lower = self.cum[:, j] + parts[:, : flat.size]
        upper = self.tail[:, j + 1] + parts[:, flat.size :]
        shape = np.shape(x)
        return tuple(v.reshape(shape) for v in lower), tuple(v.reshape(shape) for v in upper)

    def magnitude_quantile(self, q):
        """Smallest m with P(|Z| <= m) = q.  Levels above 1/2 are solved on
        the tail side, against the mass (1 - q)/2 beyond m."""
        q = np.asarray(q, dtype=float)
        flat = q.ravel()
        tail_side = flat > 0.5
        target = np.where(tail_side, 0.5 * (1.0 - flat), 0.5 * flat)
        # First edge whose mass below reaches the target (or mass above
        # falls to it); the answer is that edge or lies in the panel before.
        i = np.where(
            tail_side,
            np.searchsorted(-self.tail[0], -target, side="left"),
            np.searchsorted(self.cum[0], target, side="left"),
        )
        i = np.clip(i, 0, self.edges.size - 1)
        at_edge = np.where(tail_side, self.tail[0, i], self.cum[0, i]) == target
        j = np.clip(i - 1, 0, self.edges.size - 2)
        start, stop = self.edges[j], self.edges[j + 1]
        lo, hi = start.copy(), stop.copy()
        # Residual r(m), increasing in m with slope f(m) on both sides.
        base = np.where(tail_side, target - self.tail[0, j + 1], self.cum[0, j] - target)
        mass = self.cum[0, j + 1] - self.cum[0, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(tail_side, 1.0 - base / mass, -base / mass)
        m = start + (stop - start) * np.clip(np.nan_to_num(frac), 0.0, 1.0)
        out = np.where(at_edge, self.edges[i], m)
        active = np.flatnonzero(~at_edge)
        for _ in range(_NEWTON_MAX):
            if not active.size:
                return out.reshape(q.shape)
            ma, la, ha, ts = m[active], lo[active], hi[active], tail_side[active]
            t, half = self._nodes(np.where(ts, ma, start[active]), np.where(ts, stop[active], ma))
            f = self._density(np.concatenate([t.ravel(), ma]))
            part = _gauss(f[: t.size].reshape(t.shape), half)
            slope = f[t.size :]
            r = base[active] + np.where(ts, -part, part)
            la = np.where(r < 0.0, ma, la)
            ha = np.where(r >= 0.0, ma, ha)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = ma - r / slope
            # A root, a Newton step within 2 ulp, or a bracket of adjacent
            # floats, whose upper end is the smallest point reaching q.
            root = (r == 0.0) & (slope > 0.0)
            settled = (slope > 0.0) & (np.abs(newton - ma) <= 2.0 * np.spacing(ma))
            mid = 0.5 * (la + ha)
            collapsed = ~((la < mid) & (mid < ha))
            out[active] = np.where(root, ma, np.where(settled, np.clip(newton, la, ha), ha))
            inside = (slope > 0.0) & (newton > la) & (newton < ha)
            m[active], lo[active], hi[active] = np.where(inside, newton, mid), la, ha
            active = active[~(root | settled | collapsed)]
        if active.size:
            raise NumericError(f"magnitude quantile did not converge in {_NEWTON_MAX} steps")
        return out.reshape(q.shape)


class ErrorDistribution:
    """Base class for symmetric, centrally peaked error distributions.

    Subclasses must implement ``pdf`` and may override the hooks
    ``_half_moments`` (the whole moment table) and ``_magnitude_quantile``
    with closed forms.  A hook left alone is served by a panel table built
    from ``pdf`` on first use and kept for the instance; building it raises
    NumericError when the density is not finite at 0, stays positive past
    the float64 range, does not carry mass 1/2 on [0, inf), or needs more
    panels than the table allows.
    Instances are immutable after construction, apart from that cache,
    and safe for concurrent use; sampling derives all randomness from
    explicit seeds.
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

    def _half_moments(self, x):
        """(lower, upper) for x >= 0: integral_0^x t^k f(t) dt and
        integral_x^inf t^k f(t) dt for k = 0, 1, 2, each of x's shape, from
        the panel table (upper summed from the top, accurate far out)."""
        return self._panels().moments(x)

    def _magnitude_quantile(self, q):
        """Smallest m >= 0 with P(|Z| <= m) = q, from the panel table."""
        return self._panels().magnitude_quantile(q)

    def _panels(self):
        # Built on first use and kept, as _m2_cache is.
        table = getattr(self, "_panel_cache", None)
        if table is None:
            table = _PanelTable(self.pdf)
            object.__setattr__(self, "_panel_cache", table)
        return table

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
        with np.errstate(over="ignore", invalid="ignore"):
            below = np.asarray(self._half_moments(np.abs(x))[0][0])
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
            lower, upper = (tuple(map(_scalar_or_array, side)) for side in self._half_moments(x))
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
        # A quantile past the float64 range overflows to inf: a RangeError.
        with np.errstate(over="ignore"):
            magnitudes = np.asarray(self._magnitude_quantile(u), dtype=float)
        if not np.all(np.isfinite(magnitudes)):
            raise RangeError(f"draws of {self.kind} overflow float64")
        return signs * magnitudes

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
        self.a = a = _positive(a, "shape a")
        self.b = b = _positive(b, "scale b")
        # The normalizing constant needs gamma(a) directly.
        gamma_a = float(_sc.gamma(a))
        if not math.isfinite(gamma_a):
            raise RangeError(f"gamma(a) overflows float64 at a={a!r}")
        denom = a * b * gamma_a
        if math.isfinite(denom) and denom > 0.0 and math.isfinite(0.5 / denom):
            self._norm = 0.5 / denom
        else:
            # The product overflows before gamma(a) does (a near 171, or a
            # large b), or it or its reciprocal leaves float64 at a tiny b;
            # the constant itself may still be a (subnormal) float.
            try:
                self._norm = math.exp(-(math.log(2.0 * a) + math.log(b) + _sc.gammaln(a)))
            except OverflowError:
                raise RangeError(f"the density at 0 overflows float64 at a={a!r}, b={b!r}") from None
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

    def _half_moments(self, x):
        X = self._standardized(x)
        orders = [((k + 1.0) * self.a, total) for k, total in enumerate(self._totals)]
        return (
            tuple(total * _sc.gammainc(order, X) for order, total in orders),
            tuple(total * _sc.gammaincc(order, X) for order, total in orders),
        )

    def _magnitude_quantile(self, q):
        q = np.asarray(q, dtype=float)
        x = _sc.gammaincinv(self.a, q)
        with np.errstate(over="ignore"):
            # Below the smallest normal float, where x underflows at small a,
            # P(a, x) = x^a / gamma(a + 1) to relative O(x): b x^a = b q a gamma(a).
            return self.b * np.where(x < _TINY, q * self.a * _sc.gamma(self.a), x ** self.a)


class Gaussian(ErrorDistribution):
    """Normal errors with mean zero and standard deviation sigma."""

    kind = "gaussian"

    def __init__(self, sigma):
        sigma = _positive(sigma, "sigma")
        if not math.isfinite(1.0 / (sigma * _SQRT_2PI)):
            raise RangeError(f"the density at 0 overflows float64 at sigma={sigma!r}")
        self.sigma = sigma

    def pdf(self, x):
        x = _check_finite("x", x)
        # z * z overflows to inf far out, where the density is exactly 0.
        with np.errstate(over="ignore"):
            z = x / self.sigma
            return _scalar_or_array(np.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI))

    def _half_moments(self, x):
        x = np.asarray(x, dtype=float)
        s = self.sigma
        below = 0.5 * _sc.erf(x / (s * _SQRT2))
        above = 0.5 * _sc.erfc(x / (s * _SQRT2))
        f = self.pdf(x)
        # s/sqrt(2 pi) (1 - exp(-x^2/2s^2)), kept stable near 0 via expm1
        lower1 = (s / _SQRT_2PI) * (-np.expm1(-0.5 * np.float_power(x / s, 2)))
        return (
            (below, lower1, s * s * (below - x * f)),
            (above, s * s * f, s * s * (above + x * f)),
        )

    def _magnitude_quantile(self, q):
        return self.sigma * _SQRT2 * _sc.erfinv(np.asarray(q, dtype=float))


class Laplace(ErrorDistribution):
    """Double-exponential errors, density exp(-|x|/b) / (2b)."""

    kind = "laplace"

    def __init__(self, b):
        b = _positive(b, "scale b")
        if not math.isfinite(0.5 / b):
            raise RangeError(f"the density at 0 overflows float64 at b={b!r}")
        self.b = b

    def pdf(self, x):
        x = _check_finite("x", x)
        # |x| / b overflows to inf far out, where the density is exactly 0.
        with np.errstate(over="ignore"):
            return _scalar_or_array(np.exp(-np.abs(x) / self.b) / (2.0 * self.b))

    def _half_moments(self, x):
        x = np.asarray(x, dtype=float)
        b = self.b
        e = np.exp(-x / b)
        mass = -np.expm1(-x / b)  # 1 - e, kept stable near 0
        upper2 = 0.5 * e * (x * x + 2.0 * b * x + 2.0 * b * b)
        return (
            (0.5 * mass, 0.5 * b * mass - 0.5 * x * e, b * b - upper2),
            (0.5 * e, 0.5 * (x + b) * e, upper2),
        )

    def _magnitude_quantile(self, q):
        return -self.b * np.log1p(-np.asarray(q, dtype=float))


class Uniform(ErrorDistribution):
    """Uniform errors on [-w, w]."""

    kind = "uniform"

    def __init__(self, w):
        w = _positive(w, "half width w")
        if not math.isfinite(0.5 / w):
            raise RangeError(f"the density overflows float64 at w={w!r}")
        self.w = w

    def pdf(self, x):
        x = _check_finite("x", x)
        out = np.where(np.abs(x) <= self.w, 1.0 / (2.0 * self.w), 0.0)
        return _scalar_or_array(out)

    def _half_moments(self, x):
        r = np.minimum(np.asarray(x, dtype=float), self.w)
        lower, upper = [], []
        for n in (1, 2, 3):
            r_n, denom = np.float_power(r, n), 2.0 * self.w * n
            lower.append(r_n / denom)
            upper.append((np.float_power(self.w, n) - r_n) / denom)
        return tuple(lower), tuple(upper)

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

        # Overflow to inf (and inf - inf to nan) is fine here: the
        # finiteness gate below turns it into a RangeError.
        with np.errstate(over="ignore", invalid="ignore"):
            half_mass = float(np.sum(h * np.diff(t)))
            if half_mass <= 0.0:
                raise DegenerateDistributionError("density has zero total mass")
            h = h / (2.0 * half_mass)
            # Order-k integrals at the breakpoints, summed from 0 and from the
            # top: a tail taken as total minus lower would cancel far out.
            pieces = [h * np.diff(t ** (k + 1)) / (k + 1.0) for k in range(3)]
        if not (math.isfinite(half_mass) and np.all(np.isfinite(pieces))):
            raise RangeError("moments of the empirical density are not float64-representable")
        self._t = t
        self._h = h
        self._cum = [np.concatenate([[0.0], np.cumsum(piece)]) for piece in pieces]
        self._tail = [np.concatenate([np.cumsum(piece[::-1])[::-1], [0.0]]) for piece in pieces]

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

    def _half_moments(self, x):
        xi = np.minimum(np.asarray(x, dtype=float), self._t[-1])
        j = self._piece_index(xi)
        h, start, stop = self._h[j], self._t[j], self._t[j + 1]
        lower, upper = [], []
        for k in range(3):
            xi_n = np.float_power(xi, k + 1)
            lower.append(self._cum[k][j] + h * (xi_n - np.float_power(start, k + 1)) / (k + 1.0))
            upper.append(self._tail[k][j + 1] + h * (np.float_power(stop, k + 1) - xi_n) / (k + 1.0))
        return tuple(lower), tuple(upper)

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
    with np.errstate(over="ignore"):
        raw = (counts / n) / widths  # empirical magnitude density per bin
    if not np.all(np.isfinite(raw)):
        raise RangeError("the fitted density overflows float64: a magnitude bin is too narrow")
    # Imported here: the rest of the package has no use for scipy.optimize.
    from scipy import optimize

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
