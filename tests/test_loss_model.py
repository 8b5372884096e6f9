"""Tests for the loss function and its analytic moments."""

import math
from dataclasses import asdict

import mpmath
import numpy as np
import pytest

from _oracles import loss_moment_quad
from asymloss import (
    DomainError,
    Gaussian,
    GeneralizedGaussian,
    Laplace,
    LossParams,
    RangeError,
    Uniform,
    d_expected_loss,
    expected_loss,
    expected_loss_sq,
    loss,
    variance_of_loss,
)
from asymloss.loss_model import _sgn

LN2 = math.log(2.0)

# mpmath (40 digits): Laplace b=1, k=(1,3) at the optimal offset c = ln 2
LAP_E_AT_LN2 = 1.6931471805599453   # = 1 + ln 2
LAP_E2_AT_LN2 = 6.4804530139182014
LAP_VAR_AT_LN2 = 3.6137056388801094
# same configuration, derivative at c = 0.3
LAP_D_AT_03 = -0.48163644136343573
# Gaussian sigma=2, k=(1.5, 0.5), c=-0.7
GAUSS2_E = 1.3425242993136182
GAUSS2_E2 = 3.3330877810755147
GAUSS2_VAR = 1.5307162868279931


class TestLossParams:
    def test_derived_quantities(self):
        p = LossParams(1.0, 3.0)
        assert p.k_sum == 4.0
        assert p.k_diff == -2.0
        assert p.critical_fractile == 0.75
        assert asdict(p) == {"k1": 1.0, "k2": 3.0}

    def test_ints_are_coerced(self):
        p = LossParams(2, 5)
        assert isinstance(p.k1, float) and p.k1 == 2.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, True, "1"])
    def test_rejects_nonpositive_and_nonreal(self, bad):
        with pytest.raises(DomainError):
            LossParams(bad, 1.0)
        with pytest.raises(DomainError):
            LossParams(1.0, bad)

    def test_frozen(self):
        with pytest.raises(Exception):
            LossParams(1.0, 2.0).k1 = 5.0


class TestPointwiseLoss:
    def test_values(self):
        p = LossParams(3.0, 1.0)
        assert loss(2.0, p) == 6.0
        assert loss(-2.0, p) == 2.0
        assert loss(0.0, p) == 0.0

    def test_vectorized(self):
        p = LossParams(1.0, 3.0)
        np.testing.assert_array_equal(loss(np.array([-1.0, 0.0, 2.0]), p),
                                      [3.0, 0.0, 2.0])

    def test_positive_homogeneity(self):
        p = LossParams(1.7, 0.4)
        z = np.array([-2.3, -0.1, 0.0, 0.5, 4.0])
        np.testing.assert_allclose(loss(2.5 * z, p), 2.5 * loss(z, p), rtol=1e-15)

    def test_sign_convention_at_zero(self):
        assert _sgn(0.0) == 1.0
        assert _sgn(-0.0) == 1.0
        assert _sgn(-1e-300) == -1.0


class TestFrozenMoments:
    def test_laplace_at_optimum(self):
        d, p = Laplace(1.0), LossParams(1.0, 3.0)
        assert expected_loss(d, p, LN2) == pytest.approx(LAP_E_AT_LN2, rel=1e-14)
        assert expected_loss_sq(d, p, LN2) == pytest.approx(LAP_E2_AT_LN2, rel=1e-13)
        assert variance_of_loss(d, p, LN2) == pytest.approx(LAP_VAR_AT_LN2, rel=1e-13)

    def test_laplace_uncorrected(self):
        d, p = Laplace(1.0), LossParams(1.0, 3.0)
        assert expected_loss(d, p, 0.0) == pytest.approx(2.0, rel=1e-14)
        assert expected_loss_sq(d, p, 0.0) == pytest.approx(10.0, rel=1e-14)
        assert variance_of_loss(d, p, 0.0) == pytest.approx(6.0, rel=1e-13)

    def test_uniform_uncorrected(self):
        d, p = Uniform(1.0), LossParams(2.0, 1.0)
        assert expected_loss(d, p, 0.0) == pytest.approx(0.75, rel=1e-14)
        assert expected_loss_sq(d, p, 0.0) == pytest.approx(5.0 / 6.0, rel=1e-14)

    def test_gaussian_negative_offset(self):
        d, p = Gaussian(2.0), LossParams(1.5, 0.5)
        assert expected_loss(d, p, -0.7) == pytest.approx(GAUSS2_E, rel=1e-13)
        assert expected_loss_sq(d, p, -0.7) == pytest.approx(GAUSS2_E2, rel=1e-13)
        assert variance_of_loss(d, p, -0.7) == pytest.approx(GAUSS2_VAR, rel=1e-13)

    @pytest.mark.parametrize("k1, k2", [(1.0, 1e6), (1.0, 1e9), (1.0, 1e12), (1e12, 1.0)])
    def test_laplace_closed_forms_at_extreme_ratios(self, k1, k2):
        # Laplace b=1 beyond x = |c|: u0 = e^-x / 2, u1 = (x + 1) e^-x / 2, and
        # integral_x^inf (t - x)^2 f = e^-x.
        d, p = Laplace(1.0), LossParams(k1, k2)
        c = math.copysign(math.log((k1 + k2) / (2.0 * min(k1, k2))), k2 - k1)
        near, far = (k1, k2) if c >= 0.0 else (k2, k1)
        with mpmath.workdps(40):
            x, tail = mpmath.mpf(abs(c)), mpmath.exp(-abs(c))
            e = (k1 + k2) * (x + 1) * tail / 2 + x * (near - (k1 + k2) * tail / 2)
            e2 = near ** 2 * (2 + x * x) + (mpmath.mpf(far) ** 2 - near ** 2) * tail
            want = [float(e), float(e2), float(e2 - e * e)]
        got = [expected_loss(d, p, c), expected_loss_sq(d, p, c), variance_of_loss(d, p, c)]
        assert got == pytest.approx(want, rel=1e-13)

    def test_laplace_derivative_spot(self):
        assert d_expected_loss(Laplace(1.0), LossParams(1.0, 3.0), 0.3) == pytest.approx(
            LAP_D_AT_03, rel=1e-14
        )


CASES = [
    (Laplace(1.0), math.inf, (0.0,)),
    (Gaussian(2.0), math.inf, ()),
    (Uniform(1.0), 1.0, ()),
    (GeneralizedGaussian(0.25, 2.0), math.inf, (0.0,)),
]
PARAMS = [LossParams(1.0, 3.0), LossParams(2.0, 0.5)]
OFFSETS = [-1.1, -0.25, 0.0, 0.4, 1.7]


class TestAgainstQuadratureOracle:
    """E[L] and E[L^2] vs. blind quadrature of loss * density.

    The oracle integrates over the real line, splitting at the loss kink
    and at the density's own non-smooth points; it shares nothing with
    the partial-moment identities.
    """

    @pytest.mark.parametrize("dist,support,kinks", CASES, ids=lambda c: repr(c))
    @pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"k={p.k1},{p.k2}")
    def test_expected_loss(self, dist, support, kinks, params):
        for c in OFFSETS:
            ref = loss_moment_quad(dist.pdf, c, params.k1, params.k2, 1,
                                   support=support, kinks=kinks)
            assert expected_loss(dist, params, c) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("dist,support,kinks", CASES, ids=lambda c: repr(c))
    @pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"k={p.k1},{p.k2}")
    def test_expected_loss_sq(self, dist, support, kinks, params):
        for c in OFFSETS:
            ref = loss_moment_quad(dist.pdf, c, params.k1, params.k2, 2,
                                   support=support, kinks=kinks)
            assert expected_loss_sq(dist, params, c) == pytest.approx(ref, rel=1e-8)


class TestDerivative:
    @pytest.mark.parametrize("dist", [Laplace(1.0), Gaussian(0.7), Uniform(2.0)], ids=repr)
    def test_matches_central_difference(self, dist):
        p = LossParams(1.0, 3.0)
        h = 1e-6 * max(1.0, dist.scale)
        for c in (-1.3, -0.4, 0.2, 0.9):
            numeric = (expected_loss(dist, p, c + h) - expected_loss(dist, p, c - h)) / (2 * h)
            assert d_expected_loss(dist, p, c) == pytest.approx(numeric, rel=1e-6, abs=1e-9)

    def test_vanishes_at_critical_fractile(self):
        d, p = Gaussian(1.5), LossParams(2.0, 3.0)
        c_star = d.quantile(p.critical_fractile)
        assert abs(d_expected_loss(d, p, c_star)) < 1e-12

    def test_symmetric_loss_derivative_at_zero(self):
        assert d_expected_loss(Laplace(1.0), LossParams(4.0, 4.0), 0.0) == 0.0


class TestMomentStructure:
    def test_continuity_of_e2_at_zero(self):
        d, p = Laplace(1.0), LossParams(1.0, 3.0)
        base = expected_loss_sq(d, p, 0.0)
        assert base == pytest.approx((p.k1 ** 2 + p.k2 ** 2) * d.second_moment / 2.0,
                                     rel=1e-15)
        for c in (1e-12, -1e-12):
            assert expected_loss_sq(d, p, c) == pytest.approx(base, rel=1e-10)

    def test_variance_never_meaningfully_negative(self):
        for dist in (Laplace(0.5), Gaussian(3.0), Uniform(1.0)):
            for params in (LossParams(1.0, 1.0), LossParams(10.0, 0.1)):
                for c in (-2.0, 0.0, 0.3, 5.0):
                    e2 = expected_loss_sq(dist, params, c)
                    assert variance_of_loss(dist, params, c) >= -1e-12 * max(1.0, e2)

    def test_table_reuse_is_exact(self):
        d, p = Gaussian(1.0), LossParams(1.0, 3.0)
        t = d.partial_moments(0.7)
        assert expected_loss(d, p, 0.7, table=t) == expected_loss(d, p, 0.7)
        # the same table serves the mirrored offset (split point is |c|)
        assert expected_loss(d, p, -0.7, table=t) == expected_loss(d, p, -0.7)

    def test_table_mismatch_rejected(self):
        d, p = Gaussian(1.0), LossParams(1.0, 3.0)
        t = d.partial_moments(0.7)
        with pytest.raises(DomainError):
            expected_loss(d, p, 0.8, table=t)
        with pytest.raises(DomainError):
            variance_of_loss(d, p, 0.0, table=t)

    def test_unrepresentable_moments_raise(self):
        d = GeneralizedGaussian(100.0, 1.0)  # order-2 half moment overflows
        with pytest.raises(RangeError):
            expected_loss_sq(d, LossParams(1.0, 2.0), 0.5)
        with pytest.raises(RangeError):
            expected_loss(d, LossParams(1.0, 2.0), 0.5)
