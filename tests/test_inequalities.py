"""Tests for the inequality certificates (alpha, beta, tail bounds, kernel)."""

import math
import warnings

from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc, gammaincc

from _oracles import moment_quad
from _testdists import PdfOnly
from asymloss import (
    MARGIN_TOL,
    DomainError,
    EmpiricalSymmetric,
    ExtremalBound,
    Gaussian,
    GeneralizedGaussian,
    Laplace,
    RangeError,
    Uniform,
    alpha,
    beta,
    d_beta,
    extremal_bound,
    ggd_inequality_lhs,
    sweep,
    sweep_eq1,
)
from asymloss.cli import _CSV_COLUMNS

LN2 = math.log(2.0)

# Laplace b=1 closed forms, checked against 40-digit arithmetic
ALPHA_LAP_AT_1 = 0.16487651631652328
ALPHA_LAP_AT_08 = 0.16667383892470402
DBETA_LAP_AT_08 = 0.33334767784940804   # = 2 alpha(0.8): a Laplace identity
BETA_LAP_AT_LN2 = 0.14914339756999316
S_EXTREMAL_LAP_AT_1 = 0.27590958087858174

# incomplete-gamma kernel spot values (mpmath)
EQ1_AT_1_1 = 0.32975303263304657        # = 2/e - 3/e^2
EQ1_AT_05_2 = 0.062815579572774696
EQ1_AT_2_05 = 0.83258627549499258
EQ1_AT_01_1E3 = 0.65334914733588998


class TestFrozenValues:
    def test_alpha_laplace(self):
        d = Laplace(1.0)
        assert alpha(d, 1.0) == pytest.approx(ALPHA_LAP_AT_1, rel=1e-13)
        assert alpha(d, 0.8) == pytest.approx(ALPHA_LAP_AT_08, rel=1e-13)

    def test_beta_laplace_at_optimum(self):
        assert beta(Laplace(1.0), LN2) == pytest.approx(BETA_LAP_AT_LN2, rel=1e-13)

    def test_d_beta_laplace(self):
        assert d_beta(Laplace(1.0), 0.8) == pytest.approx(DBETA_LAP_AT_08, rel=1e-13)

    def test_extremal_laplace(self):
        b = extremal_bound(Laplace(1.0), 1.0)
        assert b.s_extremal == pytest.approx(S_EXTREMAL_LAP_AT_1, rel=1e-13)
        assert b.s_tail == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert b.slack == pytest.approx(b.s_tail - b.s_extremal, rel=1e-14)

    def test_eq1_spots(self):
        assert ggd_inequality_lhs(1.0, 1.0) == pytest.approx(EQ1_AT_1_1, rel=1e-13)
        assert ggd_inequality_lhs(0.5, 2.0) == pytest.approx(EQ1_AT_05_2, rel=1e-12)
        assert ggd_inequality_lhs(2.0, 0.5) == pytest.approx(EQ1_AT_2_05, rel=1e-13)
        assert ggd_inequality_lhs(0.1, 1e-3) == pytest.approx(EQ1_AT_01_1E3, rel=1e-12)


ZOO = [
    Laplace(1.0),
    Gaussian(1.5),
    GeneralizedGaussian(0.75, 1.3),
    GeneralizedGaussian(2.0, 0.7),
]


class TestAlpha:
    @pytest.mark.parametrize("dist", [*ZOO, Uniform(2.0)], ids=repr)
    def test_exact_zero_at_origin(self, dist):
        assert alpha(dist, 0.0) == 0.0
        assert beta(dist, 0.0) == 0.0

    def test_uniform_vanishes_identically(self):
        u = Uniform(1.5)
        inside = np.linspace(0.0, 1.5, 40)
        assert max(abs(alpha(u, x)) for x in inside) <= 1e-12
        # beyond the support both tail moments are exactly zero
        assert alpha(u, 2.0) == 0.0
        assert alpha(u, 40.0) == 0.0

    @pytest.mark.parametrize("dist", ZOO, ids=repr)
    def test_strictly_positive_for_peaked_families(self, dist):
        for x in np.linspace(0.01 * dist.scale, 8.0 * dist.scale, 60):
            assert alpha(dist, float(x)) > 0.0

    @pytest.mark.parametrize("dist", ZOO, ids=repr)
    def test_matches_display_form_via_quadrature(self, dist):
        # 4 gamma S - x/2 + 2 x gamma^2 with gamma, S from blind quadrature
        for x in (0.31, 0.9, 2.1):
            x *= dist.scale
            g = moment_quad(dist.pdf, 0, 0.0, x)
            s = moment_quad(dist.pdf, 1, x, math.inf)
            display = 4.0 * g * s - 0.5 * x + 2.0 * x * g * g
            assert alpha(dist, x) == pytest.approx(display, rel=1e-7, abs=1e-12)

    def test_underflowed_tail_reports_exact_zero(self):
        # (x/b)^(1/a) beyond ~745 kills the float64 tail entirely; alpha
        # collapses to 0 exactly, not to noise of either sign.
        d = GeneralizedGaussian(0.25, 1.0)
        t = d.partial_moments(9.0)
        assert t.upper == (0.0, 0.0, 0.0)
        assert alpha(d, 9.0) == 0.0
        assert d_beta(d, 9.0) == 0.0

    def test_matches_kernel_scaling(self):
        # alpha(b X^a) = b / (2 gamma(a)^2) * kernel(a, X)
        for a, b in [(1.0, 1.0), (0.6, 1.7), (0.5, 2.0), (2.0, 0.4)]:
            d = GeneralizedGaussian(a, b)
            for X in (0.5, 1.0, 2.0):
                lhs = alpha(d, b * X ** a)
                rhs = b / (2.0 * gamma_fn(a) ** 2) * ggd_inequality_lhs(a, X)
                assert lhs == pytest.approx(rhs, rel=1e-9)


class TestBeta:
    @pytest.mark.parametrize("dist", ZOO, ids=repr)
    def test_matches_display_form_via_quadrature(self, dist):
        hi = math.inf
        for x in (0.2, 0.8, 1.6):
            x *= dist.scale
            g = moment_quad(dist.pdf, 0, 0.0, x)
            low2 = moment_quad(dist.pdf, 2, 0.0, x)
            up1 = moment_quad(dist.pdf, 1, x, hi)
            t1 = moment_quad(dist.pdf, 1, 0.0, hi)
            display = (-t1 * t1 + 2.0 * g * low2 + 4.0 * x * g * up1
                       + up1 * up1 - 0.25 * x * x + x * x * g * g)
            assert beta(dist, x) == pytest.approx(display, rel=1e-7, abs=1e-12)

    @pytest.mark.parametrize("dist", ZOO, ids=repr)
    def test_derivative_is_d_beta(self, dist):
        h = 1e-5 * dist.scale
        for x in (0.4, 1.1, 2.3):
            x *= dist.scale
            numeric = (beta(dist, x + h) - beta(dist, x - h)) / (2.0 * h)
            assert d_beta(dist, x) == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("dist", ZOO, ids=repr)
    def test_d_beta_decomposition(self, dist):
        # d beta/dx - alpha must equal the two density terms, rebuilt here
        # from blind quadrature
        hi = math.inf
        for x in (0.3, 1.0, 2.0):
            x *= dist.scale
            f = float(dist.pdf(x))
            low2 = moment_quad(dist.pdf, 2, 0.0, x)
            up1 = moment_quad(dist.pdf, 1, x, hi)
            parts = 2.0 * f * low2 + 2.0 * x * f * up1
            assert d_beta(dist, x) - alpha(dist, x) == pytest.approx(parts, rel=1e-8)

    @pytest.mark.parametrize("dist", ZOO, ids=repr)
    def test_nonnegative_and_increasing(self, dist):
        xs = np.linspace(0.0, 6.0 * dist.scale, 50)
        vals = [beta(dist, float(x)) for x in xs]
        assert all(v >= -1e-15 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestExtremalBound:
    @pytest.mark.parametrize("dist", ZOO, ids=repr)
    def test_tail_moment_dominates(self, dist):
        for x in np.linspace(0.0, 5.0 * dist.scale, 30):
            b = extremal_bound(dist, float(x))
            assert b.slack >= -1e-15
            assert b.s_extremal >= 0.0

    def test_uniform_attains_equality(self):
        u = Uniform(1.5)
        for x in np.linspace(0.0, 1.5, 10):
            b = extremal_bound(u, float(x))
            assert abs(b.slack) <= 1e-12

    def test_vanished_density_collapses(self):
        b = extremal_bound(Uniform(1.0), 3.0)
        assert b == ExtremalBound(0.0, 0.0)

    def test_mass_condition(self):
        # gamma(x) >= x f(x) for non-increasing densities
        for dist in ZOO:
            for x in np.linspace(0.0, 5.0 * dist.scale, 30):
                t = dist.partial_moments(float(x))
                assert t.lower[0] - x * float(dist.pdf(float(x))) >= -1e-15


class TestKernel:
    def test_factored_equals_naive_form(self):
        # naive: x^a (g^2 - Gamma(a)^2) + 2 g Gamma(2a, x)
        for a in (0.5, 1.0, 2.0):
            for x in (0.1, 0.7, 1.5, 5.0):
                g = gamma_fn(a) * gammainc(a, x)
                g2 = gamma_fn(2.0 * a) * gammaincc(2.0 * a, x)
                naive = x ** a * (g * g - gamma_fn(a) ** 2) + 2.0 * g * g2
                assert ggd_inequality_lhs(a, x) == pytest.approx(naive, rel=1e-10)

    def test_positive_on_wide_grid(self):
        for a in (0.1, 0.5, 1.0, 3.0):
            for x in np.geomspace(1e-3, 20.0, 40):
                assert ggd_inequality_lhs(a, float(x)) > 0.0

    def test_domain_errors(self):
        for a, x in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                     (math.nan, 1.0), (1.0, math.inf)]:
            with pytest.raises(DomainError):
                ggd_inequality_lhs(a, x)

    def test_overflow_is_range_error(self):
        with pytest.raises(RangeError):
            ggd_inequality_lhs(150.0, 1000.0)
        with pytest.raises(RangeError):
            ggd_inequality_lhs(200.0, 1.0)


class TestSweep:
    def test_structure(self):
        dists = [Laplace(1.0), Gaussian(1.0)]
        reports = sweep(dists, n_points=50, span=8.0)
        assert len(reports) == 100
        lap = [r for r in reports if r.dist_id == "laplace(b=1)"]
        assert len(lap) == 50
        assert lap[0].x == 0.0
        assert lap[-1].x == pytest.approx(8.0 * dists[0].scale, rel=1e-15)
        assert all(r.passed for r in reports)
        assert all(math.isnan(r.eq1_lhs) for r in reports)  # non-gg rows

    def test_gg_rows_carry_the_kernel(self):
        reports = sweep([GeneralizedGaussian(0.5, 1.0)], n_points=20, span=3.0)
        assert math.isnan(reports[0].eq1_lhs)  # x = 0 has no kernel point
        assert all(r.eq1_lhs > 0.0 for r in reports[1:])
        assert all(r.passed for r in reports)

    def test_non_numeric_params_are_shown_by_repr(self):
        dist = PdfOnly(GeneralizedGaussian(0.75, 2.0))
        reports = sweep([dist], n_points=3, span=1.0)
        assert reports[0].dist_id == "pdf_only(base=GeneralizedGaussian(a=0.75, b=2.0))"
        fitted = EmpiricalSymmetric([0.0, 1.0, 2.5], [0.3, 0.1])
        assert sweep([fitted], n_points=2)[0].dist_id == "empirical_symmetric(n_pieces=2,support=2.5)"

    def test_margin_is_min_of_finite_fields(self):
        r = sweep([Laplace(1.0)], n_points=5, span=2.0)[2]
        finite = [r.alpha, r.beta, r.s_tail - r.s_extremal, r.gamma_slack]
        assert r.margin == min(finite)

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep([])
        with pytest.raises(ValueError):
            sweep([Laplace(1.0)], n_points=1)
        with pytest.raises(ValueError):
            sweep([Laplace(1.0)], span=0.0)
        with pytest.raises(ValueError):
            sweep([Laplace(1.0)], span=math.inf)

    @pytest.mark.parametrize("dist", [Laplace(1e-300), Gaussian(1e-170), GeneralizedGaussian(1.0, 1e-300)])
    def test_underflowing_second_moment_is_range_error(self, dist):
        # The grid [0, span * scale] would collapse onto x = 0 and pass.
        with pytest.raises(RangeError):
            sweep([dist], n_points=3)

    @pytest.mark.parametrize("dist, span", [
        (Gaussian(2.0), 1e308),  # span * scale overflows
        (Uniform(1.0), 1e200),   # x * x in beta overflows
    ])
    def test_grid_past_float64_is_range_error(self, dist, span):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError):
                sweep([dist], n_points=3, span=span)

    def test_report_dict_matches_csv_columns(self):
        r = sweep([Laplace(1.0)], n_points=3, span=1.0)[0]
        assert tuple(asdict(r)) == _CSV_COLUMNS

    def test_margin_tolerance_pinned(self):
        assert MARGIN_TOL == 1e-9


class TestSweepEq1:
    def test_structure(self):
        reports = sweep_eq1([0.5, 1.0], [0.5, 1.0, 2.0])
        assert len(reports) == 6
        r = reports[0]
        assert r.dist_id == "eq1(a=0.5)"
        assert math.isnan(r.alpha) and math.isnan(r.beta)
        assert math.isnan(r.s_extremal) and math.isnan(r.gamma_slack)
        assert r.margin == r.eq1_lhs
        assert all(rep.passed for rep in reports)

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep_eq1([], [1.0])
        with pytest.raises(ValueError):
            sweep_eq1([1.0], [])
