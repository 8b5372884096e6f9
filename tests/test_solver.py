"""Tests for the optimal-offset solver and the savings report."""

import math
from dataclasses import asdict
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import fractile_root
from _testdists import GappedDensity, PdfOnly, Triangular
from asymloss import (
    CrossCheckError,
    Gaussian,
    GeneralizedGaussian,
    Laplace,
    LossParams,
    NumericError,
    RangeError,
    Uniform,
    beta,
    expected_loss,
    savings_report,
    solve_offset,
    solver,
)

LN2 = math.log(2.0)

# Phi^-1(3/4), i.e. the Gaussian offset for a 3:1 cost ratio
GAUSS_C_3TO1 = 0.6744897501960817
# mpmath: generalized Gaussian a=0.25, b=2 at fractile 0.8  (k = 1:4)
GG_C_1TO4 = 1.1080248254206131
# closed form 1 - sqrt(1/2): triangular density at fractile 3/4
TRI_C_1TO3 = 1.0 - math.sqrt(0.5)


class TestKnownOffsets:
    def test_symmetric_costs_pin_zero(self):
        sol = solve_offset(Laplace(1.0), LossParams(5.0, 5.0))
        assert sol.C == 0.0
        assert sol.residual == 0.0
        assert sol.flat_optimum is False
        assert sol.variance_at_C == sol.variance_at_zero
        assert sol.expected_at_C == sol.expected_at_zero

    def test_laplace_ln2(self):
        sol = solve_offset(Laplace(1.0), LossParams(1.0, 3.0))
        assert sol.C == pytest.approx(LN2, abs=1e-12)
        assert abs(sol.residual) <= 1e-10
        assert sol.flat_optimum is False

    def test_zero_residual_is_unsigned(self):
        # the tail form is sgn(C) * (...), which is -0.0 at a root with C < 0
        sol = solve_offset(Gaussian(2.0), LossParams(5.0, 1.0))
        assert sol.residual == 0.0 and math.copysign(1.0, sol.residual) == 1.0

    def test_gaussian_quartiles(self):
        sol = solve_offset(Gaussian(1.0), LossParams(3.0, 1.0))
        assert sol.C == pytest.approx(-GAUSS_C_3TO1, abs=1e-12)
        sol2 = solve_offset(Gaussian(2.0), LossParams(1.0, 3.0))
        assert sol2.C == pytest.approx(2.0 * GAUSS_C_3TO1, abs=1e-12)

    def test_uniform_linear_cdf(self):
        sol = solve_offset(Uniform(1.0), LossParams(1.0, 3.0))
        assert sol.C == pytest.approx(0.5, abs=1e-12)
        sol5 = solve_offset(Uniform(5.0), LossParams(3.0, 2.0))
        assert sol5.C == pytest.approx(5.0 * (2.0 * 0.4 - 1.0), abs=1e-11)

    def test_generalized_gaussian_frozen(self):
        sol = solve_offset(GeneralizedGaussian(0.25, 2.0), LossParams(1.0, 4.0))
        assert sol.C == pytest.approx(GG_C_1TO4, rel=1e-10)

    def test_against_blind_fractile_oracle(self):
        # root of the quadrature CDF, no shared code with the solver
        for dist, k1, k2 in [
            (Laplace(0.5), 1.0, 2.0),
            (Gaussian(1.5), 4.0, 1.0),
            (GeneralizedGaussian(2.0, 1.0), 1.0, 5.0),
        ]:
            ref = fractile_root(dist.pdf, k2 / (k1 + k2), hi0=dist.scale)
            sol = solve_offset(dist, LossParams(k1, k2))
            assert sol.C == pytest.approx(ref, rel=1e-8, abs=1e-10)


GRID_DISTS = [
    GeneralizedGaussian(0.25, 0.5),
    GeneralizedGaussian(1.0, 3.0),
    GeneralizedGaussian(2.0, 1.0),
    Gaussian(0.5),
    Gaussian(2.0),
    Laplace(1.0),
    Uniform(5.0),
]


class TestSolutionInvariants:
    @pytest.mark.parametrize("dist", GRID_DISTS, ids=repr)
    @pytest.mark.parametrize("ratio", [1.0, 2.0, 10.0, 100.0])
    def test_fractile_residual_and_sign(self, dist, ratio):
        params = LossParams(1.0, ratio)
        sol = solve_offset(dist, params)
        assert abs(sol.residual) <= 1e-10
        assert dist.cdf(sol.C) == pytest.approx(params.critical_fractile, abs=1e-10)
        if ratio == 1.0:
            assert sol.C == 0.0
        else:
            assert sol.C > 0.0  # k2 > k1 shifts the forecast up

    def test_mirrored_costs_mirror_the_offset(self):
        d = Laplace(2.0)
        up = solve_offset(d, LossParams(1.0, 7.0))
        dn = solve_offset(d, LossParams(7.0, 1.0))
        assert dn.C == pytest.approx(-up.C, rel=1e-12)

    def test_extreme_cost_ratios(self):
        d = Laplace(1.0)
        hi = solve_offset(d, LossParams(1e-6, 1.0))
        lo = solve_offset(d, LossParams(1.0, 1e-6))
        assert hi.C == pytest.approx(d.quantile(1.0 / (1.0 + 1e-6)), rel=1e-9)
        assert lo.C == pytest.approx(-hi.C, rel=1e-9)
        assert abs(hi.residual) <= 1e-10 and abs(lo.residual) <= 1e-10

    @pytest.mark.parametrize("e", range(-12, 9))
    def test_closed_forms_across_cost_ratios(self, e):
        # |C| solves a tail equation, so it stays exact where F(C) rounds to 1.
        params = LossParams(1.0, 10.0 ** e)
        with mpmath.workdps(40):
            k1, k2 = mpmath.mpf(params.k1), mpmath.mpf(params.k2)
            side = 1 if k2 >= k1 else -1
            laplace_ref = float(side * mpmath.log((k1 + k2) / (2 * min(k1, k2))))
            uniform_ref = float(2 * (k2 - k1) / (k1 + k2))
        for dist, ref in [(Laplace(1.0), laplace_ref), (Uniform(2.0), uniform_ref)]:
            sol = solve_offset(dist, params)
            assert abs(sol.C - ref) <= 2 * math.ulp(ref)
            assert sol.flat_optimum is False

    @given(
        family=st.sampled_from([Laplace, Gaussian, partial(GeneralizedGaussian, 0.75)]),
        b=st.floats(1e-300, 1e140),
        costs=st.sampled_from([(1.0, 3.0), (3.0, 1.0), (1.0, 1e6)]),
    )
    @example(family=Laplace, b=1e-15, costs=(1.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_offset_scales_with_the_distribution(self, family, b, costs):
        params = LossParams(*costs)
        unit = solve_offset(family(1.0), params).C
        scaled = solve_offset(family(b), params).C
        assert abs(scaled - b * unit) <= 4 * math.ulp(b * unit)

    @pytest.mark.parametrize("dist", [Laplace(1.0), Gaussian(0.5)], ids=repr)
    def test_perturbations_cost_more(self, dist):
        params = LossParams(1.0, 3.0)
        sol = solve_offset(dist, params)
        for delta in (1e-4, 1e-2, 0.3):
            step = delta * dist.scale
            assert expected_loss(dist, params, sol.C + step) >= sol.expected_at_C
            assert expected_loss(dist, params, sol.C - step) >= sol.expected_at_C

    @pytest.mark.parametrize("dist", GRID_DISTS, ids=repr)
    def test_variance_drops_unless_symmetric(self, dist):
        even = solve_offset(dist, LossParams(2.0, 2.0))
        assert even.variance_at_C == even.variance_at_zero
        skew = solve_offset(dist, LossParams(1.0, 5.0))
        assert skew.variance_at_C < skew.variance_at_zero

    @pytest.mark.parametrize("dist", GRID_DISTS, ids=repr)
    @pytest.mark.parametrize("ratio", [2.0, 10.0])
    def test_variance_gap_factors_through_beta(self, dist, ratio):
        params = LossParams(1.0, ratio)
        sol = solve_offset(dist, params)
        gap = sol.variance_at_zero - sol.variance_at_C
        factored = params.k_sum ** 2 * sol.beta_at_C
        assert gap == pytest.approx(factored, rel=1e-8)
        assert sol.beta_at_C == beta(dist, abs(sol.C))


class TestFlatOptimum:
    def test_plateau_resolved_to_smallest_edge(self):
        sol = solve_offset(GappedDensity(), LossParams(1.0, 3.0))
        assert sol.flat_optimum is True
        assert sol.C == pytest.approx(1.0, abs=1e-9)
        assert abs(sol.residual) <= 1e-10
        # everything on the plateau ties in expected loss
        d, p = GappedDensity(), LossParams(1.0, 3.0)
        assert expected_loss(d, p, 1.5) == pytest.approx(sol.expected_at_C, rel=1e-12)
        assert expected_loss(d, p, 2.0) == pytest.approx(sol.expected_at_C, rel=1e-12)

    def test_plateau_edge_is_exact(self):
        assert solve_offset(GappedDensity(), LossParams(1.0, 3.0)).C == 1.0

    def test_plateau_mirrored(self):
        sol = solve_offset(GappedDensity(), LossParams(3.0, 1.0))
        assert sol.flat_optimum is True
        assert sol.C == pytest.approx(-1.0, abs=1e-9)

    def test_continuous_cdf_not_flagged(self):
        assert solve_offset(Laplace(1.0), LossParams(1.0, 3.0)).flat_optimum is False
        assert solve_offset(Uniform(1.0), LossParams(1.0, 3.0)).flat_optimum is False


class TestFallbackSolve:
    def test_triangular_closed_form(self):
        sol = solve_offset(Triangular(), LossParams(1.0, 3.0))
        assert sol.C == pytest.approx(TRI_C_1TO3, abs=1e-9)
        assert abs(sol.residual) <= 1e-10
        assert sol.variance_at_C < sol.variance_at_zero

    @pytest.mark.parametrize("e", range(-7, 8))
    def test_triangular_c_across_cost_ratios(self, e):
        k2 = 10.0 ** e
        with mpmath.workdps(40):
            exact = 1 - mpmath.sqrt(2 * mpmath.mpf(min(1.0, k2)) / (1 + mpmath.mpf(k2)))
        want = math.copysign(float(exact), e) if e else 0.0
        got = solve_offset(Triangular(), LossParams(1.0, k2)).C
        assert abs(got - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("k1, k2", [(1.0, 3.0), (3.0, 1.0), (1.0, 50.0), (20.0, 1.0), (2.0, 2.5)])
    def test_triangular_expected_at_c(self, k1, k2):
        # E[L] at C is (k1 + k2) u1(|C|), u1(x) = 1/6 - x^2/2 + x^3/3, taken
        # exactly at the returned C.
        sol = solve_offset(Triangular(), LossParams(k1, k2))
        x = Fraction(abs(sol.C))
        want = (Fraction(k1) + Fraction(k2)) * (Fraction(1, 6) - x ** 2 / 2 + x ** 3 / 3)
        assert abs(Fraction(sol.expected_at_C) - want) <= Fraction(1e-14) * want

    @pytest.mark.parametrize("base", [Laplace(1.0), GeneralizedGaussian(3.0, 1.0),
                                      GeneralizedGaussian(0.3, 1e-200)], ids=repr)
    @pytest.mark.parametrize("e", [-6, -3, -1, 1, 3, 6])
    def test_pdf_only_matches_closed_form(self, base, e):
        params = LossParams(1.0, 10.0 ** e)
        want = solve_offset(base, params).C
        assert abs(solve_offset(PdfOnly(base), params).C - want) <= 8 * math.ulp(want)


class TestFailureModes:
    def test_unbracketable_fractile(self):
        class Capped(Laplace):
            # reachable CDF tops out at 0.9 on both sides of the table:
            # the 0.99 fractile has no root
            def _half_moments(self, x):
                lower, upper = super()._half_moments(x)
                return (
                    (np.minimum(lower[0], 0.4), *lower[1:]),
                    (np.maximum(upper[0], 0.1), *upper[1:]),
                )

        with pytest.raises(NumericError):
            solve_offset(Capped(1.0), LossParams(1.0, 99.0))

    def test_squared_cost_overflow_is_range_error(self):
        # k1^2 + k2^2 is past float64 although both costs are finite.
        with pytest.raises(RangeError):
            solve_offset(Laplace(1.0), LossParams(1e200, 3e200))

    def test_residual_gate(self, monkeypatch):
        monkeypatch.setattr(solver, "RESIDUAL_TOL", -1.0)
        with pytest.raises(NumericError):
            solve_offset(Laplace(1.0), LossParams(1.0, 3.0))

    def test_cross_check_gate(self, monkeypatch):
        monkeypatch.setattr(solver, "CROSS_CHECK_TOL", -1.0)
        with pytest.raises(CrossCheckError):
            solve_offset(Laplace(1.0), LossParams(1.0, 3.0))


class TestSavingsReport:
    def test_laplace_frozen_deltas(self):
        rep = savings_report(Laplace(1.0), LossParams(1.0, 3.0))
        assert rep.delta_expected == pytest.approx(2.0 - (1.0 + LN2), rel=1e-13)
        assert rep.delta_variance == pytest.approx(6.0 - 3.6137056388801094, rel=1e-12)
        assert rep.pct_expected == pytest.approx(100.0 * (1.0 - LN2) / 2.0, rel=1e-12)
        assert rep.pct_variance == pytest.approx(100.0 * rep.delta_variance / 6.0, rel=1e-12)

    def test_symmetric_costs_save_nothing(self):
        rep = savings_report(Gaussian(1.0), LossParams(2.0, 2.0))
        assert rep.delta_expected == 0.0
        assert rep.delta_variance == 0.0
        assert rep.pct_expected == 0.0
        assert rep.pct_variance == 0.0

    @pytest.mark.parametrize("b", [1e-300, 1e-160])
    def test_underflowing_moments_are_range_error(self, b):
        # Var[|Z|] = b^2 at c = 0: 0.0 at b = 1e-300, subnormal at b = 1e-160.
        with pytest.raises(RangeError, match="underflow"):
            savings_report(Laplace(b), LossParams(1.0, 1.0))

    def test_smallest_normal_scale_still_reports(self):
        rep = savings_report(Laplace(1e-150), LossParams(1.0, 1.0))
        assert rep.solution.variance_at_zero == pytest.approx(1e-300, rel=1e-12)
        assert rep.pct_expected == rep.pct_variance == 0.0

    def test_asdict_keys(self):
        rep = savings_report(Laplace(1.0), LossParams(1.0, 2.0))
        d = asdict(rep)
        assert set(d) == {"solution", "delta_expected", "delta_variance",
                          "pct_expected", "pct_variance"}
        assert d["solution"]["C"] == rep.solution.C
        assert set(d["solution"]) == {
            "C", "residual", "flat_optimum", "expected_at_C", "variance_at_C",
            "expected_at_zero", "variance_at_zero", "beta_at_C",
        }
