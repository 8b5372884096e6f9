"""Symmetric error distributions with non-increasing density on [0, inf).

Every distribution here models a forecast error Z whose density satisfies
f(x) = f(-x) and f(x) >= f(y) whenever 0 <= x <= y.  Under that symmetry
the half line [0, inf) carries mass exactly 1/2, and everything the loss
and offset machinery needs reduces to six partial moments around a split
point x >= 0, the tail measured from x (from 0 it cancels near the end of a
bounded support, where large cost ratios put the offset):

    lower[k]  = integral_0^x   t^k f(t) dt
    excess[k] = integral_x^inf (t - x)^k f(t) dt,     k in {0, 1, 2}.

Each family returns all six in one call of its ``_half_moments(x)`` hook,
as ``(lower, excess)``, so the pieces both sides share are evaluated once.
Closed forms are used wherever the family admits them: the generalized
Gaussian reduces to regularized incomplete gamma functions, the Gaussian
to erf/erfc, the Laplace and uniform families to elementary expressions.
The two piecewise densities share one table (``_Piecewise``): the step
density ``EmpiricalSymmetric``, and the Gauss-Legendre panels that the
base class builds, once per instance, for a custom subclass that gives
only a vectorized ``pdf``.  Its sides are summed from their own ends, so
neither subtracts, and a query adds the two stretches from x to the ends
of its piece.  A pdf-only quantile is solved inside the panel that holds
it by Newton steps kept in a bisection bracket, started at the root of
the density that is linear between the panel's edge values.

Sampling is deterministic and chunked: a draw of n variates is produced in
fixed-size chunks, chunk i seeded with ``default_rng([seed, i])``, so the
same (n, seed) pair yields bit-identical output regardless of how the
chunks are consumed.  Every variate is a magnitude times an independent
random sign.  The magnitude comes from the ``_draw_magnitudes`` hook: by
default the inverse magnitude CDF of a uniform draw, and for the
generalized Gaussian an exact Gamma-variate transform that needs no
inverse incomplete gamma function.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

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


class _LazySpecial:
    """``scipy.special``, imported on the first attribute access.

    Only the generalized-Gaussian and Gaussian closed forms, the eq1
    kernel and the sign test of a fit need it, and it is more than half
    of the package's import time.  Each function resolved is kept on the
    instance, so later lookups are plain attribute reads.  Two threads
    that arrive together both go through ``import``, whose module lock
    makes the later one wait for the finished module.
    """

    def __getattr__(self, name):
        from scipy import special

        value = getattr(special, name)
        setattr(self, name, value)
        return value


_sc = _LazySpecial()


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


@functools.cache
def _param_names(cls) -> tuple:  # a distribution class's constructor arguments
    return tuple(inspect.signature(cls).parameters)


def _table_for(dist, x, table):
    """``dist.partial_moments(x)``, or ``table`` once it is checked to be
    built at exactly x (scalar or array)."""
    if table is None:
        return dist.partial_moments(x)
    x = _split_point(x)
    if not np.array_equal(table.x, x):
        raise DomainError(f"moment table was built at x={table.x}, not {x}")
    return table


def _about(x, upper):
    """The tail's moments about x from those about 0 (cancels near a support end)."""
    u0, u1, u2 = upper
    # Where x * x overflows, inf * 0 would turn an empty tail's 0 into nan.
    return u0, u1 - x * u0, np.where(u2 > 0.0, u2 - 2.0 * x * u1 + x * x * u0, 0.0)


def _shift(d, moments):
    """``moments`` retaken about the point d below their own: non-negative sums."""
    m0, m1, m2 = moments
    dm0 = d * m0
    return m0, m1 + dm0, m2 + d * (2.0 * m1 + dm0)


@dataclass(frozen=True)
class MomentTable:
    """Partial moments of orders 0..2 on both sides of a split point.

    ``lower[k]`` integrates t^k f(t) over [0, x], ``excess[k]`` (t - x)^k f(t)
    over [x, inf).  ``lower[0] + excess[0] == 1/2`` up to evaluation error.
    For an array of split points every entry is an array of x's shape.
    """

    x: float | np.ndarray
    lower: tuple
    excess: tuple

    @property
    def upper(self) -> tuple:
        """integral_x^inf t^k f(t) dt for k = 0, 1, 2, expanding t^k about x."""
        return _shift(self.x, self.excess)

    def total(self, k: int) -> float:
        """Half-line moment integral_0^inf t^k f(t) dt."""
        return self.lower[k] + self.upper[k]


def _gauss(values, half):
    """Gauss-Legendre sums of each row of node values, times the half widths.
    numpy reduces each row on its own, so a point rounds the same alone or
    in an array (a BLAS matrix product does not)."""
    return np.sum(values * _GL_WEIGHTS, axis=-1) * half


class _Piecewise:
    """Partial moments of a density on the pieces [t_j, t_j+1] of breakpoints
    0 = t_0 < ... < t_n, zero past t_n.  ``_lower[:, j]`` holds the moments
    about 0 below t_j, summed from the bottom, ``_excess[:, j]`` the mass
    above t_j about t_j, summed from the top.  A query at x adds the stretch
    [t_j, x] below, moved to 0, and [x, t_j+1] above, with the mass above
    t_j+1 moved down to x.  The hook ``_stretch(j, a, b)`` integrates
    (t - a)^k f over each [a, b] in piece j, k = 0, 1, 2 (three arrays)."""

    def _tabulate(self, t, pieces):
        """The table at breakpoints t, from each piece's moments about t_j."""
        self._t = t
        w = np.diff(t)
        below = np.cumsum(_shift(t[:-1], pieces), axis=1)
        self._lower = np.concatenate([np.zeros((3, 1)), below], axis=1)
        # Each piece plus the mass above it, moved down by its width.
        e = np.zeros((3, t.size))
        e[0, :-1] = np.cumsum(pieces[0][::-1])[::-1]
        e[1, :-1] = np.cumsum((pieces[1] + w * e[0, 1:])[::-1])[::-1]
        e[2, :-1] = np.cumsum((pieces[2] + w * (2.0 * e[1, 1:] + w * e[0, 1:]))[::-1])[::-1]
        self._excess = e

    def _piece(self, x):
        """Index j of the piece that holds each x >= 0 (the last past t_n)."""
        return np.searchsorted(self._t[:-1], x, side="right") - 1

    def _half_moments(self, x):
        """(lower, excess) at each entry of x, from one ``_stretch`` call."""
        t = self._t
        xi = np.minimum(x, t[-1])
        j = self._piece(xi)
        start, stop = t[j], t[j + 1]
        ends = np.array([start, xi, stop])
        below, above = zip(*self._stretch(j, ends[:2], ends[1:]))
        lower = [whole + part for whole, part in zip(self._lower[:, j], _shift(start, below))]
        moved = _shift(stop - xi, self._excess[:, j + 1])
        return lower, [part + whole for part, whole in zip(above, moved)]


class _PanelTable(_Piecewise):
    """Partial moments and magnitude quantiles of a density given by its pdf.

    [0, end] is covered by Gauss-Legendre panels, the pieces of the
    table, where ``end`` is the first point at which the pdf is exactly 0
    (a non-increasing density is positive on an interval around 0 and
    zero past it).  The starting edges double away from the half-height
    point, so the table does not depend on the scale; then every panel
    whose 20-node moments about 0 disagree with the sums of its halves by
    more than ``_PANEL_REL`` of that order's total is bisected.  Each
    panel, and each stretch of a query, is one 20-node pass, its moments
    taken about the stretch's left end.  The density at every edge
    (``edge_density``, one more pdf call) gives each quantile solve its
    start.  The pdf is only ever called on a 1-D float array.
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
        with np.errstate(over="ignore", invalid="ignore"):
            inner = np.ldexp(anchor, np.arange(-8, 1100))
            edges, pieces = self._refine(np.concatenate([[0.0], inner[inner < hi], [hi]]))
            self.edge_density = self._density(edges)
        self._tabulate(edges, pieces)
        mass_error = abs(2.0 * self._excess[0, 0] - 1.0)
        if not mass_error <= _MASS_TOL:
            message = f"the density's half-line mass is {self._excess[0, 0]!r}, not 1/2"
            raise NumericError(message, achieved=mass_error)

    def _density(self, t):
        return np.asarray(self._pdf(t.ravel()), dtype=float).reshape(t.shape)

    @staticmethod
    def _nodes(a, b):
        """Gauss-Legendre nodes on each [a_i, b_i], one row per interval,
        their offsets t - a_i (from the half width, without cancelling),
        and the half widths that scale the weights."""
        half = 0.5 * (b - a)
        h = half[..., None]
        return (0.5 * (a + b))[..., None] + h * _GL_NODES, h * (1.0 + _GL_NODES), half

    def _stretch(self, j, a, b):
        t, offsets, half = self._nodes(a, b)
        f = self._density(t)
        return _gauss(f, half), _gauss(offsets * f, half), _gauss(offsets * offsets * f, half)

    def _refine(self, edges):
        """The refined edges and each panel's moments about its left edge
        (rows 3-5 of the sums here); rows 0-2, about 0, judge the panel."""
        def sums(a, b):
            t, offsets, half = self._nodes(a, b)
            f = self._density(t)
            return np.stack([_gauss(v ** k * f, half) for v in (t, offsets) for k in range(3)])

        a, b = edges[:-1], edges[1:]
        whole = sums(a, b)
        done_a, done_v = [], []
        while a.size:
            mid = 0.5 * (a + b)
            halves = sums(np.concatenate([a, mid]), np.concatenate([mid, b]))
            left, right = halves[:, : a.size], halves[:, a.size :]
            joined = (left + right)[:3]
            totals = sum(v[:3].sum(axis=1) for v in done_v) + joined.sum(axis=1)
            # A NaN or inf disagreement is kept, not refined: the mass check
            # or the moment tables' finiteness gate reports it.
            gap = np.abs(whole[:3] - joined)
            split = np.any(gap > _PANEL_REL * np.abs(totals)[:, None] + _TINY, axis=0)
            split &= (a < mid) & (mid < b)
            done_a.append(a[~split])
            done_v.append(whole[:, ~split])
            if split.any() and sum(map(len, done_a)) + 2 * int(np.sum(split)) > _PANEL_BUDGET:
                worst = float(np.max(gap[:, split] / (np.abs(totals)[:, None] + _TINY)))
                raise NumericError(
                    f"the panel table needs more than {_PANEL_BUDGET} panels", achieved=worst
                )
            a, b = np.concatenate([a[split], mid[split]]), np.concatenate([mid[split], b[split]])
            whole = np.concatenate([left[:, split], right[:, split]], axis=1)
        lo = np.concatenate(done_a)
        order = np.argsort(lo)
        return np.append(lo[order], edges[-1]), np.concatenate(done_v, axis=1)[3:, order]

    def magnitude_quantile(self, q):
        """Smallest m with P(|Z| <= m) = q.  Levels above 1/2 are solved on
        the tail side, against the mass (1 - q)/2 beyond m.

        Each level is solved inside the panel that holds it by a Newton
        iteration kept in a bisection bracket, one pdf call per iteration
        for every level still open.  It starts at the root of the density
        that is linear between the panel's edge values and scaled to the
        panel's mass: exact where the density is linear on the panel, so
        that one confirming iteration is left.  Where that model has zero
        or non-finite mass, or its root falls outside the panel, it starts
        from the constant density instead.  Either way it stops at a root,
        at a Newton step within 2 ulp, or at a bracket of adjacent floats.
        """
        q = np.asarray(q, dtype=float)
        flat = q.ravel()
        tail_side = flat > 0.5
        target = np.where(tail_side, 0.5 * (1.0 - flat), 0.5 * flat)
        # First edge whose mass below reaches the target (or mass above
        # falls to it); the answer is that edge or lies in the panel before.
        i = np.where(
            tail_side,
            np.searchsorted(-self._excess[0], -target, side="left"),
            np.searchsorted(self._lower[0], target, side="left"),
        )
        i = np.clip(i, 0, self._t.size - 1)
        at_edge = np.where(tail_side, self._excess[0, i], self._lower[0, i]) == target
        j = np.clip(i - 1, 0, self._t.size - 2)
        start, stop = self._t[j], self._t[j + 1]
        lo, hi = start.copy(), stop.copy()
        # Residual r(m), increasing in m with slope f(m) on both sides.
        base = np.where(tail_side, target - self._excess[0, j + 1], self._lower[0, j] - target)
        mass = self._lower[0, j + 1] - self._lower[0, j]
        width = stop - start
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(tail_side, 1.0 - base / mass, -base / mass)
            constant = start + width * np.clip(np.nan_to_num(frac), 0.0, 1.0)
            # The density linear between the panel's edge values, scaled to
            # its mass: in units of the panel's width and mass, measured from
            # the edge the residual counts from, it is a + (2 - 2a) u, so the
            # share p = |base| / mass is reached at the root u of
            # a u + (1 - a) u^2 = p, taken without cancellation.
            fs, fe = self.edge_density[j], self.edge_density[j + 1]
            both = fs + fe
            a = np.where(tail_side, fe, fs) / both * 2.0
            p = np.abs(base) / mass
            u = 2.0 * p / (a + np.sqrt(a * a + 4.0 * (1.0 - a) * p))
            linear = np.where(tail_side, stop - width * u, start + width * u)
        # A model of zero or non-finite mass, or a root outside the panel,
        # starts from the constant density instead.
        model = (both > 0.0) & np.isfinite(both) & (u >= 0.0) & (u <= 1.0)
        m = np.where(model, linear, constant)
        out = np.where(at_edge, self._t[i], m)
        active = np.flatnonzero(~at_edge)
        for _ in range(_NEWTON_MAX):
            if not active.size:
                return out.reshape(q.shape)
            ma, la, ha, ts = m[active], lo[active], hi[active], tail_side[active]
            ends = np.where(ts, ma, start[active]), np.where(ts, stop[active], ma)
            t, _, half = self._nodes(*ends)
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
    ``_half_moments`` (the whole moment table), ``_magnitude_quantile``
    and ``_draw_magnitudes`` with closed forms.  A hook left alone is
    served by a panel table built from ``pdf`` on first use and kept for
    the instance; building it raises NumericError when the density is not
    finite at 0, stays positive past the float64 range, does not carry
    mass 1/2 on [0, inf), or needs more panels than the table allows.
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
        return {name: getattr(self, name) for name in _param_names(type(self))}

    def _half_moments(self, x):
        """(lower, excess) for x >= 0 (see the module docstring), from the panel table."""
        return self._panels()._half_moments(x)

    def _magnitude_quantile(self, q):
        """Smallest m >= 0 with P(|Z| <= m) = q, from the panel table."""
        return self._panels().magnitude_quantile(q)

    def _panels(self):
        # Built on first use and kept, as _zero_cache is.
        table = getattr(self, "_panel_cache", None)
        if table is None:
            table = _PanelTable(self.pdf)
            object.__setattr__(self, "_panel_cache", table)
        return table

    def _table_at_zero(self) -> MomentTable:
        """``partial_moments(0.0)``, built on first use and kept: it holds
        the half-line totals that the second moment and the loss moments
        at c = 0 read."""
        table = getattr(self, "_zero_cache", None)
        if table is None:
            table = self.partial_moments(0.0)
            object.__setattr__(self, "_zero_cache", table)
        return table

    # ------------------------------------------------------------------
    # shared public API
    # ------------------------------------------------------------------

    @property
    def second_moment(self) -> float:
        """E[Z^2]; raises RangeError if it is not a finite float64."""
        m2 = 2.0 * self._table_at_zero().total(2)
        if not math.isfinite(m2):
            raise RangeError(f"second moment of {self.kind} is not representable")
        return m2

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
            lower, excess = (tuple(map(_scalar_or_array, side)) for side in self._half_moments(x))
        if not np.all(np.isfinite(lower + excess)):
            raise RangeError(
                f"partial moments of {self.kind} are not float64-representable"
            )
        return MomentTable(x=x, lower=lower, excess=excess)

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

    def _draw_magnitudes(self, rng, m):
        """m draws of |Z|: the inverse magnitude CDF of uniform draws."""
        return self._magnitude_quantile(rng.random(m))

    def _draw(self, rng, m):
        # Magnitudes first, then an independent sign for each: inverse-CDF
        # families draw u before the signs, so their streams keep this order.
        # A magnitude past the float64 range overflows to inf: a RangeError.
        with np.errstate(over="ignore"):
            magnitudes = np.asarray(self._draw_magnitudes(rng, m), dtype=float)
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=m)
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
        return _scalar_or_array(self._pdf_from_standardized(self._standardized(np.abs(x))))

    def _pdf_from_standardized(self, X):
        # The density at |x| = b X^a, for callers that already hold X.
        with np.errstate(over="ignore"):
            return self._norm * np.exp(-X)

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
            _about(x, [total * _sc.gammaincc(order, X) for order, total in orders]),
        )

    def _magnitude_quantile(self, q):
        q = np.asarray(q, dtype=float)
        x = _sc.gammaincinv(self.a, q)
        with np.errstate(over="ignore"):
            # Below the smallest normal float, where x underflows at small a,
            # P(a, x) = x^a / gamma(a + 1) to relative O(x): b x^a = b q a gamma(a).
            return self.b * np.where(x < _TINY, q * self.a * _sc.gamma(self.a), x ** self.a)

    def _draw_magnitudes(self, rng, m):
        # |Z| = b X^a with X ~ Gamma(a).  X = Y U^(1/a) with Y ~ Gamma(a + 1)
        # and U uniform on (0, 1] (the boost numpy's standard_gamma uses below
        # shape 1), so |Z| = b Y^a U exactly in law, with no inverse gamma and
        # no power of U that underflows at small a.  float_power calls libm pow
        # per element (see _standardized), so draws do not depend on which
        # SIMD pow numpy dispatches to.
        y = rng.standard_gamma(self.a + 1.0, m)
        u = 1.0 - rng.random(m)
        return self.b * (np.float_power(y, self.a) * u)


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
            _about(x, (above, s * s * f, s * s * (above + x * f))),
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
        # Memoryless: the tail about x is the whole half line's about 0, times e.
        return (
            (0.5 * mass, 0.5 * b * mass - 0.5 * x * e, b * b - upper2),
            (0.5 * e, 0.5 * b * e, b * b * e),
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
        # Flat on both sides: length r from 0, w - r from x (exact by Sterbenz near w).
        def flat(length):  # integral_0^length s^k ds / (2w)
            return tuple(np.float_power(length, n) / (2.0 * self.w * n) for n in (1, 2, 3))
        return flat(r), flat(self.w - r)

    def _magnitude_quantile(self, q):
        return self.w * np.asarray(q, dtype=float)


class EmpiricalSymmetric(_Piecewise, ErrorDistribution):
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
        if np.any(np.diff(h) > 1e-9 * h.max(initial=0.0)):
            raise DomainError("heights must be non-increasing away from zero")

        # Overflow to inf (and inf - inf to nan) is fine here: the
        # finiteness gate below turns it into a RangeError.
        with np.errstate(over="ignore", invalid="ignore"):
            half_mass = float(np.sum(h * np.diff(t)))
            if half_mass <= 0.0:
                raise DegenerateDistributionError("density has zero total mass")
            self._h = h / (2.0 * half_mass)
            self._tabulate(t, self._stretch(slice(None), t[:-1], t[1:]))
        # The half-line totals bound every entry of the table.
        if not (math.isfinite(half_mass) and np.all(np.isfinite(self._excess[:, 0]))):
            raise RangeError("moments of the empirical density are not float64-representable")

    def params(self):
        """``n_pieces``, the number of constant pieces (for a fit, one per
        pooled block of the monotone fit, so its Grenander knots), and
        ``support``, the last breakpoint."""
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

    def pdf(self, x):
        ax = np.abs(_check_finite("x", x))
        out = np.where(ax <= self._t[-1], self._h[self._piece(ax)], 0.0)
        return _scalar_or_array(out)

    def _stretch(self, j, a, b):
        # Each power of w multiplies the mass h w: nothing overflows ahead of the product.
        w = b - a
        mass = self._h[j] * w
        return mass, mass * w / 2.0, mass * w * w / 3.0

    def _magnitude_quantile(self, q):
        q = np.asarray(q, dtype=float)
        grid = 2.0 * self._lower[0]  # magnitude CDF at the breakpoints, ends at 1
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
    density), and the result is mirrored around zero.  The fit has one
    piece per pooled block of that projection, so its ``n_pieces`` counts
    the Grenander knots, not the distinct magnitudes.

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
    s = np.sort(np.asarray(errors, dtype=float).ravel())
    n = s.size
    if n and not (math.isfinite(s[0]) and math.isfinite(s[-1])):  # NaN sorts last
        raise DomainError("errors must be finite")
    if n < min_observations:
        raise InsufficientDataError(
            f"need at least {min_observations} observations, got {n}"
        )

    # -0.0 == 0.0, so both zeros fall between the two sign halves.
    n_neg = int(np.searchsorted(s, 0.0, side="left"))
    n_nonpos = int(np.searchsorted(s, 0.0, side="right"))
    n_pos = n - n_nonpos
    n_zero = n_nonpos - n_neg
    if n_zero == n:
        raise DegenerateDistributionError("all errors are zero; no spread to model")

    n_signed = n_pos + n_neg
    sign_stat = (n_pos - n_neg) / math.sqrt(n_signed) if n_signed else 0.0
    # Exact two-sided sign test at p = 1/2: twice the binomial tail of the
    # rarer sign, P(X <= m) = I_1/2(n - m, m + 1), and 1 when the signs tie.
    m = min(n_pos, n_neg)
    sign_p = 1.0 if n_pos == n_neg else min(1.0, 2.0 * _sc.betainc(n_signed - m, m + 1, 0.5))

    # Each sign half, as magnitudes, is already an ascending run.
    neg = -s[:n_neg][::-1]
    pos = s[n_nonpos:]
    symmetric = n_pos == n_neg and bool(np.array_equal(pos, neg))
    mags = np.concatenate([neg, pos])
    mags.sort()  # the default sort merges the two runs faster than timsort

    # Grenander step on the magnitudes.  Exact zeros carry no magnitude
    # information; their mass is folded into the first positive bin.
    first = np.flatnonzero(np.concatenate([[True], mags[1:] != mags[:-1]]))
    counts = np.diff(first, append=mags.size)
    counts[0] += n_zero
    breaks = np.concatenate([[0.0], mags[first]])
    widths = np.diff(breaks)
    with np.errstate(over="ignore"):
        raw = (counts / n) / widths  # empirical magnitude density per bin
    if not np.all(np.isfinite(raw)):
        raise RangeError("the fitted density overflows float64: a magnitude bin is too narrow")
    # Imported here: the rest of the package has no use for scipy.optimize.
    from scipy import optimize

    iso = optimize.isotonic_regression(raw, weights=widths, increasing=False).x
    violation = 0.5 * float(np.sum(np.abs(raw - iso) * widths))

    # One piece per pooled block: a run of equal fitted heights is one step.
    block = np.flatnonzero(np.concatenate([[True], iso[1:] != iso[:-1]]))
    dist = EmpiricalSymmetric(np.append(breaks[block], breaks[-1]), iso[block] / 2.0)
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
