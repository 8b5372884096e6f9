"""One moment path for scalars and arrays.

``partial_moments`` and the certificates broadcast over the split point
with a single body each.  The references here are elementwise scalar
calls (the loop the sweep used to run); array calls must match them to
within 4 ulp, and the sweeps must keep their rows, order and ids.
"""

import math

import numpy as np
import pytest

from _testdists import GappedDensity, Triangular
from asymloss import (
    DomainError,
    Gaussian,
    GeneralizedGaussian,
    Laplace,
    LossParams,
    RangeError,
    Uniform,
    alpha,
    beta,
    d_beta,
    extremal_bound,
    fit_empirical,
    ggd_inequality_lhs,
    sweep,
    sweep_eq1,
)
from asymloss.loss_model import d_expected_loss, expected_loss

MAX_ULP = 4


def _fitted():
    dist, _ = fit_empirical(GeneralizedGaussian(0.8, 1.0).sample(500, 11))
    return dist


FAMILIES = [
    Laplace(1.0),
    Gaussian(1.5),
    GeneralizedGaussian(0.25, 2.0),
    GeneralizedGaussian(0.75, 1.3),
    GeneralizedGaussian(3.0, 0.7),
    Uniform(2.0),
    Triangular(),
    GappedDensity(),
    _fitted(),
]


def _points(dist):
    # 0, interior points, and points past a bounded support (where the
    # density vanishes); the quadrature fallback gets a short grid.
    n = 5 if isinstance(dist, Triangular) else 40
    return np.linspace(0.0, 8.0 * dist.scale, n)


def assert_ulp(actual, desired):
    np.testing.assert_array_max_ulp(np.asarray(actual), np.asarray(desired), maxulp=MAX_ULP)


@pytest.mark.parametrize("dist", FAMILIES, ids=repr)
class TestArrayMatchesScalar:
    def test_partial_moments(self, dist):
        xs = _points(dist)
        t = dist.partial_moments(xs)
        assert np.array_equal(t.x, xs)
        scalar = [dist.partial_moments(x) for x in xs.tolist()]
        for k in range(3):
            assert t.lower[k].shape == xs.shape
            assert_ulp(t.lower[k], [s.lower[k] for s in scalar])
            assert_ulp(t.upper[k], [s.upper[k] for s in scalar])

    def test_certificates(self, dist):
        xs = _points(dist)
        t = dist.partial_moments(xs)
        tables = [dist.partial_moments(x) for x in xs.tolist()]
        bound = extremal_bound(dist, xs, table=t)
        scalar_bounds = [extremal_bound(dist, x, table=s) for x, s in zip(xs.tolist(), tables)]
        for fn in (alpha, beta, d_beta):
            assert_ulp(fn(dist, xs, table=t), [fn(dist, x, table=s) for x, s in zip(xs.tolist(), tables)])
        assert_ulp(bound.s_extremal, [b.s_extremal for b in scalar_bounds])
        assert_ulp(bound.s_tail, [b.s_tail for b in scalar_bounds])

    def test_scalar_in_scalar_out(self, dist):
        x = 0.5 * dist.scale
        t = dist.partial_moments(x)
        assert isinstance(t.x, float)
        assert all(isinstance(v, float) for v in t.lower + t.upper)
        bound = extremal_bound(dist, x, table=t)
        for value in (alpha(dist, x, table=t), beta(dist, x, table=t),
                      d_beta(dist, x, table=t), *bound):
            assert isinstance(value, float)


def test_table_keeps_input_shape():
    xs = np.array([[0.0, 0.5], [1.0, 2.0]])
    for dist in (Laplace(1.0), Triangular()):
        t = dist.partial_moments(xs)
        assert all(v.shape == (2, 2) for v in t.lower + t.upper)
        assert alpha(dist, xs, table=t).shape == (2, 2)


class TestKernel:
    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.5, 6.0])
    def test_array_matches_scalar(self, a):
        xs = np.geomspace(1e-3, 40.0, 60)
        assert_ulp(ggd_inequality_lhs(a, xs), [ggd_inequality_lhs(a, x) for x in xs.tolist()])

    def test_broadcasts_over_shape(self):
        a = np.array([[0.5], [2.0]])
        xs = np.array([0.3, 1.0, 4.0])
        got = ggd_inequality_lhs(a, xs)
        assert got.shape == (2, 3)
        want = [[ggd_inequality_lhs(ai, xi) for xi in xs.tolist()] for ai in (0.5, 2.0)]
        assert_ulp(got, want)
        assert isinstance(ggd_inequality_lhs(0.5, 1.0), float)

    def test_one_bad_point_is_a_domain_error(self):
        with pytest.raises(DomainError):
            ggd_inequality_lhs(1.0, [0.5, 0.0, 2.0])
        with pytest.raises(DomainError):
            ggd_inequality_lhs([1.0, math.nan], 1.0)

    def test_one_overflowing_point_is_a_range_error(self):
        assert math.isfinite(ggd_inequality_lhs(50.0, 1.0))
        with pytest.raises(RangeError):
            ggd_inequality_lhs(50.0, [1.0, 1e10])


class TestGates:
    def test_one_overflowing_point_is_a_range_error(self):
        # The second moment about a split point of 1e200 overflows float64.
        d = Laplace(1.0)
        d.partial_moments(np.array([0.5, 3.0]))
        with pytest.raises(RangeError), np.errstate(over="ignore", invalid="ignore"):
            d.partial_moments(np.array([0.5, 1e200, 3.0]))

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_one_bad_split_point_is_a_domain_error(self, bad):
        with pytest.raises(DomainError):
            Laplace(1.0).partial_moments(np.array([0.5, bad]))

    def test_table_built_elsewhere_is_a_domain_error(self):
        d = Gaussian(1.0)
        xs = np.linspace(0.0, 3.0, 7)
        t = d.partial_moments(xs)
        for fn in (alpha, beta, d_beta, extremal_bound):
            with pytest.raises(DomainError):
                fn(d, 2.0 * xs, table=t)      # other points
            with pytest.raises(DomainError):
                fn(d, xs[:-1], table=t)       # other shape
            with pytest.raises(DomainError):
                fn(d, 1.5, table=t)           # a scalar against an array table
            with pytest.raises(DomainError):
                fn(d, xs, table=d.partial_moments(1.5))
        params = LossParams(1.0, 3.0)
        for fn in (expected_loss, d_expected_loss):
            with pytest.raises(DomainError):
                fn(d, params, 0.5, table=t)


class TestSweepRows:
    def test_sweep_rows_order_and_ids(self):
        dists = [Laplace(1.0), GeneralizedGaussian(0.5, 2.0), Uniform(1.5)]
        reports = sweep(dists, n_points=25, span=6.0)
        ids = ["laplace(b=1)", "generalized_gaussian(a=0.5,b=2)", "uniform(w=1.5)"]
        assert [r.dist_id for r in reports] == [i for i in ids for _ in range(25)]
        for j, dist in enumerate(dists):
            rows = reports[25 * j: 25 * (j + 1)]
            xs = np.linspace(0.0, 6.0 * dist.scale, 25).tolist()
            assert [r.x for r in rows] == xs
            assert_ulp([r.alpha for r in rows], [alpha(dist, x) for x in xs])
            assert_ulp([r.beta for r in rows], [beta(dist, x) for x in xs])
            assert_ulp([r.s_extremal for r in rows], [extremal_bound(dist, x).s_extremal for x in xs])
            gamma_slack = [dist.partial_moments(x).lower[0] - x * dist.pdf(x) for x in xs]
            assert_ulp([r.gamma_slack for r in rows], gamma_slack)
            for r in rows:
                fields = (r.alpha, r.beta, r.s_tail - r.s_extremal, r.gamma_slack, r.eq1_lhs)
                assert r.margin == min(v for v in fields if not math.isnan(v))
                assert r.passed is (r.margin >= -1e-9)
            # gamma_slack alone sets the margin on some rows of every family
            # here but the uniform: its alpha, tail slack and gamma_slack are
            # all 0 inside the support, so which is least is rounding noise.
            if not isinstance(dist, Uniform):
                assert any(r.margin == r.gamma_slack < min(r.alpha, r.beta, r.s_tail - r.s_extremal)
                           for r in rows)
            assert all(type(r.x) is float and type(r.passed) is bool for r in rows)
            if isinstance(dist, GeneralizedGaussian):
                assert math.isnan(rows[0].eq1_lhs)
                kernel = [ggd_inequality_lhs(dist.a, (x / dist.b) ** (1.0 / dist.a)) for x in xs[1:]]
                assert_ulp([r.eq1_lhs for r in rows[1:]], kernel)
            else:
                assert all(math.isnan(r.eq1_lhs) for r in rows)

    def test_sweep_eq1_rows_order_and_ids(self):
        xs = np.geomspace(1e-3, 20.0, 9)
        reports = sweep_eq1([0.1, 0.5, 1.0], xs)
        assert [r.dist_id for r in reports] == [
            f"eq1(a={a})" for a in ("0.1", "0.5", "1") for _ in range(9)
        ]
        assert [r.x for r in reports] == xs.tolist() * 3
        want = [ggd_inequality_lhs(a, x) for a in (0.1, 0.5, 1.0) for x in xs.tolist()]
        assert_ulp([r.eq1_lhs for r in reports], want)
        assert all(r.margin == r.eq1_lhs and r.passed for r in reports)
        assert all(math.isnan(r.alpha) and math.isnan(r.s_tail) for r in reports)
