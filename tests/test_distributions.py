"""Tests for the error-distribution families.

Closed-form partial moments are checked three ways: against hand-derived
values, against frozen 50-digit quadrature references, and against a live
quadrature oracle (tests/_oracles.py) that knows nothing about the closed
forms.
"""

import math
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import asdict
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc, gammaln
from scipy.stats import binomtest, kstest

from _oracles import cdf_quad, fit_empirical_sorts, moment_quad
from _testdists import PdfOnly, Triangular
from asymloss import (
    SAMPLE_CHUNK,
    DegenerateDistributionError,
    DomainError,
    EmpiricalSymmetric,
    ErrorDistribution,
    Gaussian,
    GeneralizedGaussian,
    InsufficientDataError,
    Laplace,
    NumericError,
    RangeError,
    Uniform,
    fit_empirical,
)
from asymloss import distributions

LN2 = math.log(2.0)

# mpmath (50 digits): generalized Gaussian a=0.25, b=2, split at x=1.5
GG_LOWER = (0.38968526225615553, 0.28045253778918143, 0.272143956409486)
GG_UPPER = (0.11031473774384447, 0.20841799593428047, 0.40383428365779873)
GG_CDF_15 = 0.88968526225615553
GG_PDF_15 = 0.20100434088809498
GG_SECOND_MOMENT = 1.3519564801345695

# Laplace b=1, split at x = ln 2 (elementary antiderivatives)
LAP_LOWER = (0.25, 0.076713204860013673, 0.033313156240476989)
LAP_UPPER = (0.25, 0.42328679513998633, 0.96668684375952301)

PHI_AT_ONE = 0.8413447460685429  # standard normal CDF at 1

# Incomplete gamma functions, reached through generalized Gaussian tables
# (2 Gamma(a) lower[0] at x = b X^a is the lower incomplete gamma at X).
# gamma(0.5, 1) lower: substitute t = u^2 so the integrand is smooth,
# 2 * integral_0^1 exp(-u^2) du; frozen from that quadrature (= sqrt(pi) erf(1)).
LOWER_HALF_ONE = 1.4936482656248540
# Gamma(2, 1) upper: integration by parts gives (1 + 1) e^-1 = 2/e.
UPPER_TWO_ONE = 0.7357588823428847
# mpmath, 40 digits:
LOWER_FIVE_2P5 = 2.6117275460603702
UPPER_TENTH_THREE = 0.014891224816681061


# ----------------------------------------------------------------------
# closed-form spot values
# ----------------------------------------------------------------------


class TestSpotValues:
    def test_gaussian_cdf_at_one_sigma(self):
        assert Gaussian(1.0).cdf(1.0) == pytest.approx(PHI_AT_ONE, rel=1e-14)
        assert Gaussian(2.0).cdf(2.0) == pytest.approx(PHI_AT_ONE, rel=1e-14)

    def test_gaussian_quantile(self):
        assert Gaussian(1.0).quantile(PHI_AT_ONE) == pytest.approx(1.0, rel=1e-12)
        assert Gaussian(3.0).quantile(0.5) == 0.0

    def test_laplace_upper_quartile_is_ln2(self):
        assert Laplace(1.0).quantile(0.75) == pytest.approx(LN2, rel=1e-14)
        assert Laplace(1.0).cdf(LN2) == pytest.approx(0.75, rel=1e-14)

    def test_laplace_pdf(self):
        assert Laplace(2.0).pdf(0.0) == pytest.approx(0.25, rel=1e-15)
        assert Laplace(1.0).pdf(-1.0) == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-14)

    def test_uniform_hand_values(self):
        u = Uniform(2.0)
        t = u.partial_moments(1.5)
        assert t.lower == pytest.approx((0.375, 0.28125, 0.28125), rel=1e-15)
        assert t.upper[0] == pytest.approx(0.125, rel=1e-15)
        assert t.upper[1] == pytest.approx(0.21875, rel=1e-15)
        assert t.upper[2] == pytest.approx((8.0 - 3.375) / 12.0, rel=1e-15)
        # beyond the support everything sits in `lower`
        t5 = u.partial_moments(5.0)
        assert t5.upper == (0.0, 0.0, 0.0)
        assert t5.lower[2] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert u.second_moment == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_gg_frozen_table(self):
        t = GeneralizedGaussian(0.25, 2.0).partial_moments(1.5)
        for k in range(3):
            assert t.lower[k] == pytest.approx(GG_LOWER[k], rel=1e-13)
            assert t.upper[k] == pytest.approx(GG_UPPER[k], rel=1e-13)

    def test_gg_frozen_pointwise(self):
        d = GeneralizedGaussian(0.25, 2.0)
        assert d.cdf(1.5) == pytest.approx(GG_CDF_15, rel=1e-13)
        assert d.pdf(1.5) == pytest.approx(GG_PDF_15, rel=1e-13)
        assert d.second_moment == pytest.approx(GG_SECOND_MOMENT, rel=1e-13)

    def test_laplace_frozen_table(self):
        t = Laplace(1.0).partial_moments(LN2)
        for k in range(3):
            assert t.lower[k] == pytest.approx(LAP_LOWER[k], rel=1e-14)
            assert t.upper[k] == pytest.approx(LAP_UPPER[k], rel=1e-14)


def lower_incomplete(a, X):
    return 2.0 * gamma_fn(a) * GeneralizedGaussian(a, 1.0).partial_moments(X ** a).lower[0]


def upper_incomplete(a, X):
    return 2.0 * gamma_fn(a) * GeneralizedGaussian(a, 1.0).partial_moments(X ** a).upper[0]


def lower_half_by_substitution(x):
    # integral_0^x t^(-1/2) e^(-t) dt with t = u^2
    val, err = integrate.quad(lambda u: 2.0 * math.exp(-u * u), 0.0, math.sqrt(x),
                              epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-12
    return val


class TestIncompleteGammaSpotValues:
    def test_frozen_singular_shape(self):
        got = lower_incomplete(0.5, 1.0)
        assert got == pytest.approx(LOWER_HALF_ONE, rel=1e-12)
        assert got == pytest.approx(lower_half_by_substitution(1.0), rel=1e-12)

    def test_frozen_spot_values(self):
        assert lower_incomplete(5.0, 2.5) == pytest.approx(LOWER_FIVE_2P5, rel=1e-13)
        assert upper_incomplete(0.1, 3.0) == pytest.approx(UPPER_TENTH_THREE, rel=1e-13)
        assert upper_incomplete(2.0, 1.0) == pytest.approx(UPPER_TWO_ONE, rel=1e-13)


def gamma_from_peak(a):
    # pdf(0) = 1 / (2 a b Gamma(a)), so Gamma(a) comes back out of the peak.
    return 1.0 / (2.0 * a * GeneralizedGaussian(a, 1.0).pdf(0.0))


class TestGamma:
    """The complete gamma function as it enters the GG normalizing constant."""

    def test_integers_are_factorials(self):
        assert GeneralizedGaussian(1.0, 1.0).pdf(0.0) == 0.5
        assert GeneralizedGaussian(5.0, 1.0).pdf(0.0) == 0.5 / (5.0 * 24.0)

    def test_half_integer(self):
        # a = 1/2 is exp(-z^2) up to normalization: peak 1 / sqrt(pi)
        assert GeneralizedGaussian(0.5, 1.0).pdf(0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-15)

    def test_recurrence(self):
        for a in np.geomspace(0.05, 120.0, 60).tolist():
            assert gamma_from_peak(a + 1.0) == pytest.approx(a * gamma_from_peak(a), rel=1e-13)

    def test_matches_log_gamma(self):
        # The peak uses gamma(a); the half-line totals use gammaln.
        for a in np.geomspace(0.1, 100.0, 25).tolist():
            assert math.log(gamma_from_peak(a)) == pytest.approx(gammaln(a), rel=0, abs=1e-12)

    @pytest.mark.parametrize("a, b", [(171.0, 1.0), (170.5, 3.0)])
    def test_density_past_product_overflow(self, a, b):
        # a * b * gamma(a) overflows here although gamma(a) does not, and the
        # density itself is a subnormal float.
        mpmath.mp.dps = 30
        dist = GeneralizedGaussian(a, b)
        for x in (0.0, -1.0, 2.5):
            exact = mpmath.exp(-(abs(mpmath.mpf(x)) / b) ** (1 / mpmath.mpf(a))) / (
                2 * a * b * mpmath.gamma(a))
            assert dist.pdf(x) == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    def test_overflow_is_range_error(self):
        # gamma(a) leaves float64 between a = 171 and a = 172.
        assert GeneralizedGaussian(171.0, 1.0).a == 171.0
        with pytest.raises(RangeError):
            GeneralizedGaussian(172.0, 1.0)


class TestIncompletePair:
    """Incomplete gamma identities, read off generalized Gaussian tables."""

    def test_exponential_shape_is_elementary(self):
        # a = 1: lower = 1 - e^-x, upper = e^-x
        for x in (0.0, 0.3, 1.0, 4.7, 30.0):
            assert lower_incomplete(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-14)
            assert upper_incomplete(1.0, x) == pytest.approx(math.exp(-x), rel=1e-14)

    def test_boundary_at_zero(self):
        assert lower_incomplete(2.5, 0.0) == 0.0
        assert upper_incomplete(3.0, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_complementarity_grid(self):
        x = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 15)])
        for a in np.geomspace(0.1, 20.0, 12).tolist():
            total = lower_incomplete(a, x) + upper_incomplete(a, x)
            np.testing.assert_allclose(total, gamma_fn(a), rtol=1e-12)

    def test_lower_monotone_in_x(self):
        x = np.linspace(0.0, 12.0, 200)
        for a in (0.3, 1.0, 4.0):
            assert np.all(np.diff(lower_incomplete(a, x)) >= 0.0)

    def test_derivative_matches_integrand(self):
        h = 1e-5
        for a in (0.7, 2.0, 6.0):
            for x in (0.4, 1.3, 5.0):
                numeric = (lower_incomplete(a, x + h) - lower_incomplete(a, x - h)) / (2 * h)
                exact = x ** (a - 1.0) * math.exp(-x)
                assert numeric == pytest.approx(exact, rel=1e-7)

    def test_rejects_negative_x(self):
        with pytest.raises(DomainError):
            GeneralizedGaussian(1.0, 1.0).partial_moments(-0.1)
        with pytest.raises(DomainError):
            GeneralizedGaussian(1.0, 1.0).partial_moments(np.array([0.5, -2.0]))


class TestRegularized:
    """Regularized incomplete gamma functions, as the GG CDF and quantile."""

    def test_bounds_and_complement(self):
        x = np.geomspace(1e-2, 40.0, 12)
        for a in np.geomspace(0.2, 10.0, 8).tolist():
            t = GeneralizedGaussian(a, 1.0).partial_moments(x ** a)
            p, q = 2.0 * t.lower[0], 2.0 * t.upper[0]
            assert np.all((p >= 0.0) & (p <= 1.0))
            np.testing.assert_allclose(p + q, 1.0, rtol=0, atol=1e-13)

    def test_inverse_round_trip(self):
        # P(a, .) is inverted through the quantile: for q > 1/2, |Z| <= quantile(q)
        # with probability 2q - 1 (exact in float64 for q in [1/2, 1]).
        for a in (0.4, 1.0, 3.5):
            d = GeneralizedGaussian(a, 1.0)
            for p in (1e-6, 0.25, 0.5, 0.975, 1 - 1e-9):
                q = 0.5 + 0.5 * p
                got = 2.0 * d.partial_moments(d.quantile(q)).lower[0]
                assert got == pytest.approx(2.0 * q - 1.0, rel=1e-10)

    @pytest.mark.parametrize("a", [0.005, 0.01, 0.05])
    def test_small_shape_quantile_past_underflow(self, a):
        # P(a, X) = 2p - 1 with X far below the smallest normal float64 for
        # levels near 1/2; the magnitude X^a is still an ordinary float.
        d = GeneralizedGaussian(a, 1.0)
        with mpmath.workdps(40):
            for p in (0.5 + 2.0 ** -52, 0.5 + 1e-15, 0.5 + 1e-10, 0.5 + 1e-5, 0.6, 0.9):
                q = mpmath.mpf(2.0 * p - 1.0)
                level = lambda log_m: mpmath.gammainc(a, 0, mpmath.exp(log_m / a), regularized=True) - q
                want = mpmath.exp(mpmath.findroot(level, mpmath.log(q * mpmath.gamma(a + 1))))
                assert d.quantile(p) == pytest.approx(float(want), rel=1e-13, abs=0)


# ----------------------------------------------------------------------
# structural properties
# ----------------------------------------------------------------------


def family_zoo():
    return [
        GeneralizedGaussian(0.25, 2.0),
        GeneralizedGaussian(2.0, 0.7),
        Gaussian(1.3),
        Laplace(0.6),
        Uniform(1.5),
    ]


class TestStructure:
    @pytest.mark.parametrize("dist", family_zoo(), ids=repr)
    def test_cdf_symmetry(self, dist):
        x = np.array([0.0, 0.2, 0.9, 2.5, 7.0]) * dist.scale
        np.testing.assert_allclose(dist.cdf(x) + dist.cdf(-x), 1.0, rtol=0, atol=1e-14)
        assert dist.cdf(0.0) == 0.5

    @pytest.mark.parametrize("dist", family_zoo(), ids=repr)
    def test_moment_table_consistency(self, dist):
        for x in (0.0, 0.4 * dist.scale, 2.0 * dist.scale):
            t = dist.partial_moments(x)
            assert t.lower[0] + t.upper[0] == pytest.approx(0.5, abs=1e-12)
            assert t.total(2) == pytest.approx(dist.second_moment / 2.0, rel=1e-12)
            assert all(v >= 0.0 for v in (*t.lower, *t.upper))

    @pytest.mark.parametrize("dist", family_zoo(), ids=repr)
    def test_quantile_round_trip(self, dist):
        p = np.array([0.01, 0.25, 0.5, 0.6, 0.919, 0.999])
        np.testing.assert_allclose(dist.cdf(dist.quantile(p)), p, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("dist", family_zoo(), ids=repr)
    def test_pdf_nonincreasing_on_magnitudes(self, dist):
        x = np.linspace(0.0, 4.0 * dist.scale, 300)
        f = dist.pdf(x)
        assert np.all(np.diff(f) <= 1e-15)

    @given(x=st.floats(-40.0, 40.0), b=st.floats(0.1, 8.0))
    @settings(max_examples=60, deadline=None)
    def test_laplace_cdf_pair_sums_to_one(self, x, b):
        d = Laplace(b)
        assert d.cdf(x) + d.cdf(-x) == pytest.approx(1.0, abs=1e-14)

    @given(
        p=st.floats(0.001, 0.999),
        a=st.floats(0.15, 2.5),
        b=st.floats(0.2, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_gg_quantile_round_trip(self, p, a, b):
        d = GeneralizedGaussian(a, b)
        assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-9)


class TestCrossFamily:
    """The generalized family must reproduce its named special cases."""

    def test_gg_half_is_gaussian(self):
        sigma = 1.4
        gg = GeneralizedGaussian(0.5, sigma * math.sqrt(2.0))
        ga = Gaussian(sigma)
        for x in (0.0, 0.3, 1.0, 2.7, 6.0):
            assert gg.pdf(x) == pytest.approx(ga.pdf(x), rel=1e-12)
            assert gg.cdf(x) == pytest.approx(ga.cdf(x), rel=1e-12)
            tg, tn = gg.partial_moments(x), ga.partial_moments(x)
            for k in range(3):
                assert tg.lower[k] == pytest.approx(tn.lower[k], rel=1e-11, abs=1e-15)
                assert tg.upper[k] == pytest.approx(tn.upper[k], rel=1e-11, abs=1e-15)

    def test_gg_one_is_laplace(self):
        gg = GeneralizedGaussian(1.0, 0.8)
        la = Laplace(0.8)
        for x in (0.0, 0.2, 1.1, 4.0):
            assert gg.pdf(x) == pytest.approx(la.pdf(x), rel=1e-12)
            tg, tl = gg.partial_moments(x), la.partial_moments(x)
            for k in range(3):
                assert tg.lower[k] == pytest.approx(tl.lower[k], rel=1e-11, abs=1e-15)
                assert tg.upper[k] == pytest.approx(tl.upper[k], rel=1e-11, abs=1e-15)
        for p in (0.05, 0.5, 0.93):
            assert gg.quantile(p) == pytest.approx(la.quantile(p), rel=1e-11, abs=1e-14)


class TestAgainstQuadratureOracle:
    """Closed forms vs. blind adaptive quadrature of the density."""

    @pytest.mark.parametrize("dist", family_zoo(), ids=repr)
    def test_partial_moments(self, dist):
        # integrate the upper reference over the whole tail: heavy gg
        # tails still carry ~1e-5 relative mass beyond 8 scale units
        hi = dist.w if isinstance(dist, Uniform) else math.inf
        for x in (0.13 * dist.scale, 0.9 * dist.scale, 2.2 * dist.scale):
            t = dist.partial_moments(x)
            for k in range(3):
                lo_ref = moment_quad(dist.pdf, k, 0.0, x)
                up_ref = moment_quad(dist.pdf, k, x, hi)
                assert t.lower[k] == pytest.approx(lo_ref, rel=1e-8, abs=1e-12)
                assert t.upper[k] == pytest.approx(up_ref, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("dist", family_zoo(), ids=repr)
    def test_cdf(self, dist):
        for x in (-1.7 * dist.scale, -0.2 * dist.scale, 0.6 * dist.scale):
            assert dist.cdf(x) == pytest.approx(cdf_quad(dist.pdf, x), rel=1e-9)


# ----------------------------------------------------------------------
# generic fallback path (pdf-only subclass)
# ----------------------------------------------------------------------


class _Counting:
    """Counts the calls of ``pdf``; mixed in before a pdf-only class."""

    calls = 0

    def pdf(self, x):
        self.calls += 1
        return super().pdf(x)


class _CountingTriangular(_Counting, Triangular):
    pass


class _CountingPdfOnly(_Counting, PdfOnly):
    pass


def _pdf_calls(dist, call):
    """pdf calls that ``call()`` makes once dist's panel table is built."""
    dist.partial_moments(0.0)
    dist.calls = 0
    call()
    return dist.calls


# 32 levels uniform in [0.005, 0.995], as one `custom_pdf` benchmark operation takes.
_LEVELS_32 = np.random.default_rng(1).uniform(0.005, 0.995, 32)


class TestQuadratureFallback:
    def test_cdf_closed_form(self):
        d = Triangular()
        for x in (0.0, 0.3, 0.6, 0.95):
            assert d.cdf(x) == pytest.approx(0.5 + x - 0.5 * x * x, abs=1e-10)
        assert d.cdf(-0.3) == pytest.approx(0.5 - 0.3 + 0.045, abs=1e-10)

    def test_second_moment(self):
        assert Triangular().second_moment == pytest.approx(1.0 / 6.0, rel=1e-9)

    def test_partial_moments(self):
        t = Triangular().partial_moments(0.4)
        assert t.lower[0] == pytest.approx(0.4 - 0.08, abs=1e-10)
        assert t.lower[1] == pytest.approx(0.4 ** 2 / 2 - 0.4 ** 3 / 3, abs=1e-10)
        assert t.lower[2] == pytest.approx(0.4 ** 3 / 3 - 0.4 ** 4 / 4, abs=1e-10)
        assert t.lower[0] + t.upper[0] == pytest.approx(0.5, abs=1e-10)
        # points where a quadrature over [x, inf) misjudged its own error
        for x in (0.3996905, 0.999):
            upper = Triangular().partial_moments(x).upper
            r = Fraction(x)
            exact = (
                (1 - r) ** 2 / 2,
                Fraction(1, 6) - r ** 2 / 2 + r ** 3 / 3,
                Fraction(1, 12) - r ** 3 / 3 + r ** 4 / 4,
            )
            for k in range(3):
                assert abs(upper[k] - float(exact[k])) <= 1e-15

    def test_quantile_bisection(self):
        # magnitude CDF m - m^2/2 = 0.375 at m = 0.5
        assert Triangular().quantile(0.875) == pytest.approx(0.5, abs=1e-9)
        assert Triangular().quantile(0.125) == pytest.approx(-0.5, abs=1e-9)

    def test_sampling_stays_in_support(self):
        z = Triangular().sample(20_000, seed=5)
        assert float(np.max(np.abs(z))) <= 1.0
        assert float(np.mean(z)) == pytest.approx(0.0, abs=0.02)

    def test_one_pdf_call_per_table(self):
        # Once the panel table is built, all six moments at every point come
        # from one density pass over both sides' nodes.
        d = _CountingTriangular()
        for x in (0.4, np.array([0.0, 0.3, 0.999, 1.0, 2.5])):
            assert _pdf_calls(d, lambda: d.partial_moments(x)) == 1

    def test_linear_panels_start_exact(self):
        # Each level's Newton solve starts at the root of its panel's linear
        # density model, which is the triangle itself: one confirming pass,
        # and a second for the few levels whose first Newton step still moves
        # by more than 2 ulp.  The constant-density start took 7 and 13 calls.
        d = _CountingTriangular()
        assert _pdf_calls(d, lambda: d.quantile(_LEVELS_32)) <= 2
        assert _pdf_calls(d, lambda: d.sample(20_000, seed=5)) <= 3

    def test_flat_panels_take_one_pass(self):
        d = _CountingPdfOnly(Uniform(2.0))
        assert _pdf_calls(d, lambda: d.quantile(_LEVELS_32)) == 1
        assert _pdf_calls(d, lambda: d.sample(20_000, seed=5)) == 1

    @pytest.mark.parametrize("dist, want", [
        (_CountingTriangular(),
         [5.00000000000125e-13, 0.001501126690670722, 0.13397459621556135, 0.2928932188134525,
          0.5, 0.6837722339831622, 0.9683772233983162, 0.9999683772238455]),
        (_CountingPdfOnly(Laplace(1.0)),
         [1.0000000000005e-12, 0.0030045090202987217, 0.28768207245178096, 0.6931471805599453,
          1.38629436111989, 2.302585092994045, 6.907755278982134, 20.723265865228335]),
    ], ids=["triangular", "laplace"])
    def test_degenerate_model_starts_flat(self, dist, want):
        # With no usable edge density the solve starts from the constant
        # density, as it did before the linear model, and gives its answers
        # and its pass count.
        dist.partial_moments(0.0)
        table = dist._panels()
        table.edge_density = np.full_like(table.edge_density, np.nan)
        q = np.array([1e-12, 0.003, 0.25, 0.5, 0.75, 0.9, 0.999, 1 - 1e-9])
        assert dist._magnitude_quantile(q).tolist() == want
        assert _pdf_calls(dist, lambda: dist.quantile(_LEVELS_32)) >= 6

    def test_quantiles_against_exact(self):
        # P(|Z| <= m) = 2m - m^2, so m = 1 - sqrt(1 - q), here in 50 digits.
        q = np.concatenate([np.geomspace(1e-15, 0.5, 120), 1.0 - np.geomspace(1e-15, 0.5, 120)[:-1]])
        got = Triangular()._magnitude_quantile(q)
        with mpmath.workdps(50):
            exact = [float(1 - mpmath.sqrt(1 - mpmath.mpf(v))) for v in q]
        ulps = [abs(g - e) / math.ulp(e) for g, e in zip(got, exact)]
        assert max(ulps) <= 2.0

    def test_far_level_draw_stays_in_support(self):
        # One draw of this sample has magnitude level u = 0.9999996269 and
        # once landed at 1.00218; the exact magnitude is 1 - sqrt(1 - u).
        z = Triangular().sample(32, seed=1490167079)
        assert float(np.max(np.abs(z))) <= 1.0
        m = float(Triangular()._magnitude_quantile(0.99999963))
        assert abs(m - 0.99939172374699) <= 1e-12


# One unit per distribution that stays a normal float64 at any scale:
# b sqrt(E[(Z/b)^2]) in closed form.
_PDF_ONLY_CASES = [
    pytest.param(Laplace(1.0), math.sqrt(2.0), id="laplace"),
    pytest.param(GeneralizedGaussian(3.0, 1.0), math.exp(0.5 * (gammaln(9.0) - gammaln(3.0))),
                 id="gg_heavy"),
    pytest.param(GeneralizedGaussian(0.3, 1e-200),
                 1e-200 * math.exp(0.5 * (gammaln(0.9) - gammaln(0.3))), id="gg_tiny_scale"),
]


@pytest.mark.parametrize("base, unit", _PDF_ONLY_CASES)
class TestPanelTableMatchesClosedForms:
    """Unbounded supports (geometric tail panels), a cusp at 0, a tiny scale."""

    def test_partial_moments(self, base, unit):
        xs = unit * np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0])
        got, want = PdfOnly(base).partial_moments(xs), base.partial_moments(xs)
        for k in range(3):
            for side in ("lower", "upper"):
                err = np.abs(getattr(got, side)[k] - getattr(want, side)[k])
                assert np.all(err <= 1e-12 * unit ** k), (side, k, err)

    def test_quantiles(self, base, unit):
        p = np.concatenate([np.geomspace(1e-6, 0.5, 40), 1.0 - np.geomspace(1e-6, 0.5, 40)[:-1]])
        np.testing.assert_allclose(PdfOnly(base).quantile(p), base.quantile(p), rtol=1e-10, atol=0)


class TestPanelTableFailures:
    """Densities the table cannot serve raise a typed error, without a warning."""

    class Scaled(ErrorDistribution):
        def __init__(self, factor, floor=0.0):
            self.factor, self.floor = factor, floor

        def pdf(self, x):
            return np.maximum(self.factor * np.clip(1.0 - np.abs(x), 0.0, None), self.floor)

    class Step(ErrorDistribution):
        def pdf(self, x):
            ax = np.abs(x)
            return np.where(ax <= 1.0 / 3.0, 1.0, np.where(ax <= 2.0 / 3.0, 0.5, 0.0))

    @pytest.mark.parametrize("dist", [
        Scaled(2.0),               # mass 1 on the half line
        Scaled(1.0, floor=1e-300),  # positive past the float64 range
        Scaled(math.inf),           # infinite at 0
    ], ids=["unnormalized", "positive_everywhere", "infinite_at_zero"])
    def test_refused(self, dist):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                dist.partial_moments(0.5)

    def test_budget_exhausted(self, monkeypatch):
        # The jump at 1/3 takes about 50 bisections to resolve.
        assert self.Step().cdf(0.5) == pytest.approx(0.5 + 1.0 / 3.0 + 0.5 / 6.0, abs=1e-15)
        monkeypatch.setattr(distributions, "_PANEL_BUDGET", 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as info:
                self.Step().quantile(0.9)
        assert info.value.achieved > 1e-15


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


class TestConcurrentUse:
    """Threads sharing one fresh instance, and so racing to fill its lazy
    caches (``_panel_cache`` of a pdf-only density, ``_zero_cache`` of every
    family), get what a serial run gets, bit for bit."""

    THREADS = 4  # more workers than the cores of a small machine
    X = np.array([0.0, 0.3, 1.0, 2.5, 7.0])

    def _call(self, dist, name):
        if name == "partial_moments":
            table = dist.partial_moments(self.X)
            return table.lower, table.upper
        if name == "sample":
            return dist.sample(5_000, seed=5)
        return dist.second_moment

    def _run(self, dist, first):
        # Each thread starts from a different call, so each cache is filled
        # by whichever path reaches it first.
        names = ["second_moment", "partial_moments", "sample"]
        names = names[first % 3:] + names[:first % 3]
        return {name: np.asarray(self._call(dist, name), dtype=float).tobytes() for name in names}

    @pytest.mark.parametrize("make", [
        lambda: GeneralizedGaussian(0.75, 1.3),
        lambda: Gaussian(1.5),
        lambda: Laplace(0.7),
        lambda: Uniform(2.0),
        lambda: PdfOnly(GeneralizedGaussian(0.75, 2.0)),
        lambda: fit_empirical(Laplace(1.0).sample(500, seed=3))[0],
    ], ids=["gg", "gauss", "laplace", "uniform", "pdf_only", "fitted"])
    def test_threads_match_a_serial_run(self, make):
        serial = self._run(make(), 0)
        dist = make()
        assert not {"_zero_cache", "_panel_cache"} & set(vars(dist))
        start = threading.Barrier(self.THREADS, timeout=30)
        results = [None] * self.THREADS

        def work(i):
            start.wait()
            try:
                results[i] = self._run(dist, i)
            except Exception as exc:  # reported below, on the test's thread
                results[i] = exc

        threads = [threading.Thread(target=work, args=(i,)) for i in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial] * self.THREADS

    def test_threads_race_to_import_scipy_special(self):
        # A fresh interpreter has not imported scipy.special yet, so every
        # thread's first closed form goes through the lazy import together.
        script = (
            "import sys, threading\n"
            "import numpy as np\n"
            "from asymloss import Gaussian, GeneralizedGaussian\n"
            "X = np.array([0.0, 0.3, 1.0, 2.5])\n"
            "def work():\n"
            "    out = []\n"
            "    for dist in (Gaussian(1.5), GeneralizedGaussian(0.75, 1.3)):\n"
            "        table = dist.partial_moments(X)\n"
            "        out += [*table.lower, *table.upper, dist.quantile([0.2, 0.9])]\n"
            "    return b''.join(np.asarray(v).tobytes() for v in out)\n"
            f"n = {self.THREADS}\n"
            "start, results = threading.Barrier(n, timeout=30), [None] * n\n"
            "def run(i):\n"
            "    start.wait()\n"
            "    try:\n"
            "        results[i] = work()\n"
            "    except Exception as exc:\n"
            "        results[i] = repr(exc)\n"
            "threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]\n"
            "sys.setswitchinterval(1e-6)\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join(timeout=60)\n"
            "print(not any(t.is_alive() for t in threads), results == [work()] * n)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True"]


class TestSampling:
    def test_deterministic_in_n_and_seed(self):
        d = Laplace(1.0)
        a = d.sample(150_000, seed=3)
        b = d.sample(150_000, seed=3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, d.sample(150_000, seed=4))

    def test_chunking_is_invisible(self):
        d = Gaussian(2.0)
        n = SAMPLE_CHUNK + 12_345
        whole = d.sample(n, seed=9)
        parts = list(d.sample_chunks(n, seed=9))
        assert [len(p) for p in parts] == [SAMPLE_CHUNK, 12_345]
        np.testing.assert_array_equal(whole, np.concatenate(parts))

    def test_prefix_stability(self):
        # first chunk does not depend on how much more is requested
        d = Uniform(1.0)
        short = d.sample(SAMPLE_CHUNK, seed=7)
        long = d.sample(2 * SAMPLE_CHUNK, seed=7)
        np.testing.assert_array_equal(short, long[:SAMPLE_CHUNK])

    def test_empirical_marginals(self):
        d = Laplace(1.0)
        z = d.sample(200_000, seed=1)
        assert float(np.mean(z <= 0.0)) == pytest.approx(0.5, abs=0.005)
        assert float(np.mean(z <= LN2)) == pytest.approx(0.75, abs=0.005)
        assert float(np.var(z)) == pytest.approx(2.0, rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            Laplace(1.0).sample(0, seed=1)
        with pytest.raises(ValueError):
            Laplace(1.0).sample(10, seed=-2)

    def test_overflowing_draws_are_range_error(self):
        # sigma sqrt(2) is finite, but a draw past one sigma is not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError):
                Gaussian(1e308).sample(1000, seed=1)

    def test_gg_overflowing_draws_are_range_error(self):
        # At a = 1, Y U is Exp(1), so about one draw in six passes 1.8e308.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError):
                GeneralizedGaussian(1.0, 1e308).sample(1000, seed=1)

    def test_gg_deterministic_and_chunk_stable(self):
        d = GeneralizedGaussian(0.75, 1.3)
        n = SAMPLE_CHUNK + 12_345
        whole = d.sample(n, seed=9)
        np.testing.assert_array_equal(whole, d.sample(n, seed=9))
        assert not np.array_equal(whole, d.sample(n, seed=10))
        parts = list(d.sample_chunks(n, seed=9))
        assert [len(p) for p in parts] == [SAMPLE_CHUNK, 12_345]
        np.testing.assert_array_equal(whole, np.concatenate(parts))
        np.testing.assert_array_equal(d.sample(SAMPLE_CHUNK, seed=9), whole[:SAMPLE_CHUNK])

    @pytest.mark.parametrize("a", [0.01, 0.3, 0.75, 2.0, 40.0])
    def test_gg_magnitudes_follow_the_gamma_law(self, a):
        # P(|Z| <= m) = P(a, X) with X = (m/b)^(1/a), the regularized lower
        # incomplete gamma; where X underflows (m/b below 6e-4 at a = 0.01),
        # P(a, X) = X^a / gamma(a + 1) = (m/b) / gamma(a + 1).
        b = 1.7
        mags = np.abs(GeneralizedGaussian(a, b).sample(160_000, seed=2024))

        def cdf(m):
            X = np.float_power(m / b, 1.0 / a)
            return np.where(X < 1e-300, (m / b) / gamma_fn(a + 1.0), gammainc(a, X))

        assert kstest(mags, cdf).pvalue > 0.01

    def test_gg_small_shape_draws_no_zeros(self):
        # b Y^a U with U in (0, 1] raises no power of U, so nothing underflows to 0.
        z = GeneralizedGaussian(0.01, 1.0).sample(160_000, seed=3)
        assert np.all(z != 0.0)
        assert float(np.mean(z > 0.0)) == pytest.approx(0.5, abs=0.005)

    @pytest.mark.parametrize("dist, first", [
        (Laplace(1.0), [-0.13761997121874156, 0.6917039474023533, 0.9200436593635157]),
        (Gaussian(2.0), [-0.32368522047159254, 1.3467079007747178, 1.6886005145551342]),
        (Uniform(3.0), [-0.38571060830759885, 1.4978335873203448, 1.8044950728700724]),
        (EmpiricalSymmetric([0.0, 1.0, 2.5], [0.3, 0.1]),
         [-0.19285530415379942, 0.7489167936601725, 0.9022475364350362]),
        (PdfOnly(Laplace(1.0)), [-0.13761997121874156, 0.6917039474023533, 0.9200436593635152]),
    ], ids=repr)
    def test_inverse_cdf_streams_are_pinned(self, dist, first):
        # Every family but the generalized Gaussian draws u, then the signs,
        # and returns the magnitude quantile of u; these streams must not move.
        assert dist.sample(3, seed=11).tolist() == first


# ----------------------------------------------------------------------
# constructor validation / representability
# ----------------------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_scale_parameters_must_be_positive_finite(self, bad):
        for ctor in (lambda v: GeneralizedGaussian(0.5, v),
                     lambda v: GeneralizedGaussian(v, 1.0),
                     Gaussian, Laplace, Uniform):
            with pytest.raises(DomainError):
                ctor(bad)

    def test_cdf_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            Gaussian(1.0).cdf(math.inf)

    def test_quantile_rejects_boundary(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                Laplace(1.0).quantile(p)

    def test_partial_moments_rejects_negative_split(self):
        with pytest.raises(DomainError):
            Uniform(1.0).partial_moments(-0.1)

    @pytest.mark.parametrize("ctor", [
        lambda: GeneralizedGaussian(1.0, 1e-310),
        lambda: Gaussian(1e-310),
        lambda: Laplace(1e-310),
        lambda: Uniform(1e-310),
    ], ids=["gg", "gaussian", "laplace", "uniform"])
    def test_density_overflow_at_tiny_scale(self, ctor):
        # The density at 0 is past float64; it used to be inf.
        with pytest.raises(RangeError):
            ctor()

    def test_gg_gamma_overflow_in_constructor(self):
        with pytest.raises(RangeError):
            GeneralizedGaussian(200.0, 1.0)

    def test_gg_unrepresentable_second_moment(self):
        # gamma(a) is still finite at a = 100 but the order-2 half moment
        # overflows float64; the property must say so, typed.
        with pytest.raises(RangeError):
            GeneralizedGaussian(100.0, 1.0).second_moment


# ----------------------------------------------------------------------
# piecewise-constant empirical family
# ----------------------------------------------------------------------


class TestEmpiricalSymmetric:
    def hand_built(self):
        return EmpiricalSymmetric([0.0, 1.0, 2.0], [0.35, 0.15])

    def test_hand_built_moments(self):
        t = self.hand_built().partial_moments(1.5)
        assert t.lower[0] == pytest.approx(0.425, rel=1e-15)
        assert t.lower[1] == pytest.approx(0.26875, rel=1e-15)
        assert t.lower[2] == pytest.approx(0.35 / 3.0 + 0.11875, rel=1e-13)
        assert t.total(1) == pytest.approx(0.4, rel=1e-14)
        assert t.total(2) == pytest.approx(0.35 / 3.0 + 0.35, rel=1e-14)

    def test_hand_built_pointwise(self):
        d = self.hand_built()
        assert d.pdf(0.0) == 0.35
        assert d.pdf(-1.5) == 0.15
        assert d.pdf(2.5) == 0.0
        assert d.cdf(1.5) == pytest.approx(0.925, rel=1e-15)
        assert d.cdf(-1.5) == pytest.approx(0.075, rel=1e-15)

    def test_quantile_interpolation_and_exact_hits(self):
        d = self.hand_built()
        # magnitude CDF is [0, 0.7, 1.0] at the breakpoints
        assert d.quantile(0.675) == pytest.approx(0.5, rel=1e-14)
        assert d.quantile(0.85) == 1.0  # exact hit lands on the breakpoint
        assert d.quantile(0.5) == 0.0

    def test_heights_are_renormalized(self):
        d = EmpiricalSymmetric([0.0, 1.0, 2.0], [0.7, 0.3])
        np.testing.assert_allclose(d.heights, [0.35, 0.15], rtol=1e-15)
        assert d.partial_moments(2.0).lower[0] == pytest.approx(0.5, rel=1e-14)

    def test_oracle_agreement(self):
        d = self.hand_built()
        for x in (0.5, 1.2, 1.9):
            t = d.partial_moments(x)
            for k in range(3):
                ref = moment_quad(d.pdf, k, 0.0, x, kinks=(1.0,))
                assert t.lower[k] == pytest.approx(ref, rel=1e-9)

    def test_constructor_validation(self):
        with pytest.raises(DomainError):
            EmpiricalSymmetric([0.5, 1.0], [1.0])  # must start at 0
        with pytest.raises(DomainError):
            EmpiricalSymmetric([0.0, 1.0, 1.0], [0.5, 0.5])  # not increasing
        with pytest.raises(DomainError):
            EmpiricalSymmetric([0.0, 1.0, 2.0], [0.1, 0.2])  # increasing heights
        with pytest.raises(DomainError):
            EmpiricalSymmetric([0.0, 1.0], [-0.5])
        with pytest.raises(DomainError):
            EmpiricalSymmetric([0.0], [])
        with pytest.raises(DegenerateDistributionError):
            EmpiricalSymmetric([0.0, 1.0, 2.0], [0.0, 0.0])

    def test_unrepresentable_moments_are_range_error(self):
        # t^2 overflows at the last breakpoint.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError):
                EmpiricalSymmetric([0.0, 1.0, 1e200], [1.0, 1.0])

    def test_near_tie_heights_tolerated(self):
        EmpiricalSymmetric([0.0, 1.0, 2.0], [0.2, 0.2 + 1e-12])  # no raise

    @pytest.mark.parametrize("scale", [1e12, 1e-12])
    def test_increasing_heights_rejected_at_any_scale(self, scale):
        # The tolerance is relative to the tallest piece: below height 1 an
        # absolute 1e-9 let a fourfold rise through.
        with pytest.raises(DomainError):
            EmpiricalSymmetric([0.0, scale, 2.0 * scale], [0.1 / scale, 0.4 / scale])


@st.composite
def _error_logs(draw):
    """Error logs with exact zeros, -0.0 and tied magnitudes, and the
    one-sign, all-zeros-but-one, too-short and non-finite cases."""
    size = draw(st.integers(25, 70))
    cell = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.25, -1.25, 3.0]),
                     st.floats(-1e3, 1e3))
    z = draw(st.lists(cell, min_size=size, max_size=size))
    shape = draw(st.sampled_from(["as drawn", "one sign", "mirrored", "zeros but one", "non-finite"]))
    if shape == "one sign":
        z = [-abs(v) for v in z] if draw(st.booleans()) else [abs(v) for v in z]
    elif shape == "mirrored":
        z = z + [-v for v in z]
    elif shape == "zeros but one":
        z = [draw(st.sampled_from([0.0, -0.0])) for _ in z[1:]] + [z[0] or 1.0]
    elif shape == "non-finite":
        z[draw(st.integers(0, size - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return np.array(draw(st.permutations(z)))


# Seeded logs whose pooled fit is held to the one-piece-per-bin density.
FIT_LOGS = {
    "laplace-2000": lambda: Laplace(1.0).sample(2000, 3),
    "gg0.75-1000": lambda: GeneralizedGaussian(0.75, 1.0).sample(1000, 2),
    "gg2-rounded": lambda: np.round(GeneralizedGaussian(2.0, 1.0).sample(500, 5), 1),
    "mirrored-zeros": lambda: np.concatenate(
        [Laplace(0.5).sample(300, 7), -Laplace(0.5).sample(300, 7), np.zeros(20)]),
}


class TestFitEmpirical:
    def test_two_point_symmetric_sample(self):
        z = np.array([-1.0] * 50 + [1.0] * 50)
        dist, diag = fit_empirical(z)
        assert diag.symmetric_input is True
        assert diag.sign_pvalue == 1.0
        assert diag.sign_statistic == 0.0
        assert diag.monotonicity_violation_mass == 0.0
        np.testing.assert_array_equal(dist.breakpoints, [0.0, 1.0])
        np.testing.assert_allclose(dist.heights, [0.5], rtol=1e-15)

    def test_zeros_fold_into_first_bin(self):
        z = np.array([0.0] * 5 + [1.0, -1.0, 2.0, -2.0] * 10)
        dist, diag = fit_empirical(z)
        assert diag.n_zero == 5
        assert diag.n_positive == diag.n_negative == 20
        np.testing.assert_array_equal(dist.breakpoints, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(dist.heights, [25.0 / 90.0, 20.0 / 90.0], rtol=1e-14)
        assert dist.cdf(1.0) == pytest.approx(0.5 + 25.0 / 90.0, rel=1e-14)

    def test_one_sided_sample_fails_sign_test(self):
        z = np.abs(Laplace(1.0).sample(200, seed=2)) + 1e-9
        _, diag = fit_empirical(z)
        assert diag.n_negative == 0
        assert diag.sign_pvalue < 1e-30
        assert diag.symmetric_input is False

    def test_recovers_laplace_cdf(self):
        true = Laplace(1.0)
        dist, diag = fit_empirical(true.sample(20_000, seed=11))
        grid = np.linspace(-3.0, 3.0, 61)
        err = np.max(np.abs(dist.cdf(grid) - true.cdf(grid)))
        assert err < 0.02
        assert diag.sign_pvalue > 0.05
        # shape projection should barely move a genuinely decreasing density
        assert diag.monotonicity_violation_mass < 0.45

    def test_sign_pvalue_matches_binomtest(self):
        counts = (0, 1, 2, 7, 15, 50, 5000, 10000, 10150, 12000)
        for n_pos in counts:
            for n_neg in counts:
                if n_pos + n_neg == 0:
                    continue
                z = np.array([1.0] * n_pos + [-1.0] * n_neg)
                _, diag = fit_empirical(z, min_observations=1)
                ref = binomtest(n_pos, n_pos + n_neg, 0.5).pvalue
                assert abs(diag.sign_pvalue - ref) <= 1e-14 * ref, (n_pos, n_neg)

    def test_diagnostics_asdict(self):
        _, diag = fit_empirical(np.array([-1.0] * 50 + [1.0] * 50))
        d = asdict(diag)
        assert d["n"] == 100 and d["n_positive"] == 50
        assert set(d) == {
            "n", "n_positive", "n_negative", "n_zero", "sign_statistic",
            "sign_pvalue", "symmetric_input", "monotonicity_violation_mass",
        }

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_empirical(np.ones(29) * np.array([1, -1] * 15)[:29])

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDistributionError):
            fit_empirical(np.zeros(100))

    def test_subnormal_gap_is_range_error(self):
        # The first bin is 5e-324 wide, so its density overflows float64.
        z = np.concatenate([[5e-324], np.linspace(-1.0, 1.0, 60)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError):
                fit_empirical(z)

    def test_nonfinite_rejected(self):
        z = np.ones(50)
        z[3] = math.nan
        with pytest.raises(DomainError):
            fit_empirical(z)

    @given(z=_error_logs())
    @settings(max_examples=300, deadline=None)
    def test_one_sort_matches_three_sorts(self, z):
        try:
            breaks, heights, ref = fit_empirical_sorts(z)
        except (ValueError, OverflowError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                fit_empirical(z)
            return
        dist, diag = fit_empirical(z)
        assert repr(diag) == repr(ref)  # bit for bit, -0.0 apart from 0.0
        # Each fitted piece covers whole raw bins of one projected height,
        # and no two adjacent pieces share one.
        knots = dist.breakpoints
        assert np.all(np.isin(knots, breaks)) and knots[-1] == breaks[-1]
        piece = np.searchsorted(knots, breaks[1:]) - 1  # the piece holding bin j
        block = heights[np.searchsorted(piece, np.arange(knots.size - 1))]
        np.testing.assert_array_equal(heights, block[piece])
        assert np.all(np.diff(block) < 0.0)
        assert np.all(np.diff(dist.heights) <= 0.0)

    @pytest.mark.parametrize("log", FIT_LOGS.values(), ids=FIT_LOGS.keys())
    def test_pooled_pieces_are_the_same_density(self, log):
        z = log()
        dist, _ = fit_empirical(z)
        ref = EmpiricalSymmetric(*fit_empirical_sorts(z)[:2])
        assert dist.params()["n_pieces"] < ref.params()["n_pieces"]
        support = ref.breakpoints[-1]
        x = np.linspace(-1.05 * support, 1.05 * support, 1001)

        def rel(got, exact):
            exact = np.asarray(exact)
            return np.max(np.abs(got - exact) / np.where(exact != 0.0, np.abs(exact), 1.0))

        # Bounds as measured on these logs: pdf 0, cdf 4.4e-16, moments 3.8e-15.
        assert rel(dist.pdf(x), ref.pdf(x)) <= 2.3e-16
        assert np.max(np.abs(dist.cdf(x) - ref.cdf(x))) <= 5e-16  # 0.5 - mass: absolute
        got, exact = dist.partial_moments(np.abs(x)), ref.partial_moments(np.abs(x))
        for side in ("lower", "excess", "upper"):
            for g, e in zip(getattr(got, side), getattr(exact, side)):
                assert rel(g, e) <= 4e-15, side

    @pytest.mark.parametrize("e", [-600, -300, 300])
    def test_fits_construct_at_extreme_scales(self, e):
        # At 2^600 the magnitudes cubed overflow float64 and the fit is a
        # RangeError, as for any EmpiricalSymmetric with such breakpoints.
        z = np.ldexp(GeneralizedGaussian(0.75, 1.0).sample(1000, 2), e)
        dist, _ = fit_empirical(z)
        assert dist.params()["support"] == np.max(np.abs(z))
