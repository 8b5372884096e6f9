"""Tests for the Monte Carlo cross-checking estimators."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from asymloss import (
    SAMPLE_CHUNK,
    Gaussian,
    GeneralizedGaussian,
    Laplace,
    LossParams,
    McEstimate,
    RangeError,
    Uniform,
    estimate_loss_stats,
    expected_loss,
    fit_empirical,
    loss,
    variance_of_loss,
)

# analytic moments, Gaussian sigma=2, k=(1.5, 0.5), c=-0.7 (40-digit arithmetic)
GAUSS2_E = 1.3425242993136182
GAUSS2_VAR = 1.5307162868279931


class TestDeterminism:
    def test_bit_identical_re_runs(self):
        d, p = Laplace(1.0), LossParams(1.0, 3.0)
        (a,) = estimate_loss_stats(d, p, [0.25], 100_000, seed=42)
        (b,) = estimate_loss_stats(d, p, [0.25], 100_000, seed=42)
        assert a == b  # dataclass equality over all float fields

    def test_seed_changes_the_estimate(self):
        d, p = Laplace(1.0), LossParams(1.0, 3.0)
        (a,) = estimate_loss_stats(d, p, [0.25], 50_000, seed=0)
        (b,) = estimate_loss_stats(d, p, [0.25], 50_000, seed=1)
        assert a.mean != b.mean

    def test_matches_direct_numpy_reduction(self):
        # the streamed shifted power sums must agree with a plain
        # one-shot mean/var of the same sample
        d, p, c = Gaussian(2.0), LossParams(1.5, 0.5), -0.7
        n, seed = 120_000, 7
        (est,) = estimate_loss_stats(d, p, [c], n, seed)
        y = loss(d.sample(n, seed) + c, p)
        assert est.mean == pytest.approx(float(np.mean(y)), rel=1e-12)
        assert est.variance == pytest.approx(float(np.var(y, ddof=1)), rel=1e-10)

    def test_std_error_relation(self):
        (est,) = estimate_loss_stats(Laplace(1.0), LossParams(1.0, 3.0), [0.0], 50_000, 3)
        assert est.std_error_mean == pytest.approx(
            math.sqrt(est.variance / est.n), rel=1e-15
        )
        assert est.std_error_variance > 0.0

    def test_record_fields(self):
        (est,) = estimate_loss_stats(Uniform(1.0), LossParams(1.0, 2.0), [0.1], 2_000, 9)
        d = asdict(est)
        assert d["n"] == 2_000 and d["seed"] == 9
        assert set(d) == {"mean", "variance", "std_error_mean",
                          "std_error_variance", "n", "seed"}


class TestSharedDraws:
    """Every offset of one call is estimated from the same draws, each as a
    lone offset's call would estimate it."""

    # More than one sampling chunk, so the chunks' order of summation counts.
    N = 2 * SAMPLE_CHUNK + 1001

    @pytest.mark.parametrize("make", [
        lambda: GeneralizedGaussian(0.75, 1.3),
        lambda: Gaussian(2.0),
        lambda: Laplace(0.5),
        lambda: Uniform(3.0),
        lambda: fit_empirical(GeneralizedGaussian(0.75, 1.0).sample(2_000, 4))[0],
    ], ids=["gg", "gauss", "laplace", "uniform", "fit"])
    def test_each_offset_equals_its_own_call(self, make):
        d, p = make(), LossParams(1.0, 4.0)
        offsets = [0.0, 0.9 * d.scale, -0.4 * d.scale]
        together = estimate_loss_stats(d, p, offsets, self.N, 9)
        alone = [estimate_loss_stats(d, p, [c], self.N, 9)[0] for c in offsets]
        assert together == alone  # dataclass equality over all float fields
        assert [estimate_loss_stats(d, p, offsets[::-1], self.N, 9)[i] for i in (2, 1, 0)] == alone


class TestAgreementWithAnalytic:
    def test_laplace_uncorrected(self):
        d, p = Laplace(1.0), LossParams(1.0, 3.0)
        (est,) = estimate_loss_stats(d, p, [0.0], 400_000, seed=5)
        # E = 2, Var = 6 exactly
        assert abs(est.mean - 2.0) <= 5.0 * est.std_error_mean
        assert abs(est.variance - 6.0) <= 5.0 * est.std_error_variance

    def test_gaussian_offset_frozen(self):
        d, p = Gaussian(2.0), LossParams(1.5, 0.5)
        (est,) = estimate_loss_stats(d, p, [-0.7], 400_000, seed=8)
        assert abs(est.mean - GAUSS2_E) <= 5.0 * est.std_error_mean
        assert abs(est.variance - GAUSS2_VAR) <= 5.0 * est.std_error_variance

    def test_uniform_against_library_closed_forms(self):
        d, p, c = Uniform(1.0), LossParams(2.0, 1.0), 0.3
        (est,) = estimate_loss_stats(d, p, [c], 400_000, seed=11)
        assert abs(est.mean - expected_loss(d, p, c)) <= 5.0 * est.std_error_mean
        assert abs(est.variance - variance_of_loss(d, p, c)) <= 5.0 * est.std_error_variance


class TestExtremeScales:
    """The power sums are scaled by a power of two taken from the data, so
    an estimate does not depend on the errors' scale, bit for bit."""

    # More than one chunk: later chunks reuse the first chunk's scale.
    N = SAMPLE_CHUNK + 3_000

    @pytest.mark.parametrize("k", [-400, 400])
    def test_power_of_two_scale_is_exact(self, k):
        # At 2^-400 the unscaled fourth powers underflow to 0, and at
        # 2^400 they overflow.
        p, s = LossParams(1.0, 3.0), 2.0 ** k
        (base,) = estimate_loss_stats(Laplace(1.0), p, [0.3], self.N, 12)
        (est,) = estimate_loss_stats(Laplace(s), p, [s * 0.3], self.N, 12)
        assert est == McEstimate(
            mean=math.ldexp(base.mean, k),
            variance=math.ldexp(base.variance, 2 * k),
            std_error_mean=math.ldexp(base.std_error_mean, k),
            std_error_variance=math.ldexp(base.std_error_variance, 2 * k),
            n=self.N,
            seed=12,
        )
        assert base.std_error_variance > 0.0

    def test_unrepresentable_variance_is_range_error(self):
        # Losses near 1e160 are floats; their variance is not.
        with pytest.raises(RangeError):
            estimate_loss_stats(Laplace(1e150), LossParams(1e10, 1e10), [0.0], 2_000, 0)


class TestValidation:
    def test_minimum_sample_sizes(self):
        with pytest.raises(ValueError):
            estimate_loss_stats(Laplace(1.0), LossParams(1.0, 2.0), [0.0], 999, 0)

    @pytest.mark.parametrize("offsets", [0.0, [], [[0.0, 1.0]]], ids=["scalar", "empty", "2-d"])
    def test_offsets_must_be_a_nonempty_sequence(self, offsets):
        with pytest.raises(ValueError):
            estimate_loss_stats(Laplace(1.0), LossParams(1.0, 2.0), offsets, 2_000, 0)
