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

from _oracles import StepOracle, fit_empirical_sorts, fractile_root, relative_error
from _testdists import GappedDensity, PdfOnly, Triangular
from asymloss import (
    CrossCheckError,
    EmpiricalSymmetric,
    Gaussian,
    GeneralizedGaussian,
    Laplace,
    LossParams,
    NumericError,
    RangeError,
    Uniform,
    beta,
    expected_loss,
    fit_empirical,
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


def _assert_exact(sol, oracle, params):
    """Each moment of the solution within 1e-13 (relative) of the rational
    value for the same C."""
    k1, k2 = params.k1, params.k2
    mean_c, var_c = oracle.loss_stats(k1, k2, sol.C)
    _, var_0 = oracle.loss_stats(k1, k2, 0.0)
    pairs = [(sol.expected_at_C, mean_c), (sol.variance_at_C, var_c),
             (sol.variance_at_zero, var_0), (sol.beta_at_C, oracle.beta(abs(sol.C)))]
    for got, exact in pairs:
        assert relative_error(got, exact) <= 1e-13, (sol, got, float(exact))


def _gg_fit():
    """The empirical fit of 1000 GG(0.75, 1) draws: a bounded support whose
    density is positive up to its end."""
    return fit_empirical(GeneralizedGaussian(0.75, 1.0).sample(1000, seed=2))[0]


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

    @pytest.mark.parametrize("ratio", [1.0, 3.0, 1e-3])
    def test_one_table_per_derivative_and_one_at_zero(self, ratio, monkeypatch):
        # The table at |C| is the last accepted derivative's, and the table
        # at 0 is the one the second moment keeps.
        dist = GeneralizedGaussian(0.75, 1.3)
        points, derivatives = [], []

        def build(x, _build=dist.partial_moments):
            points.append(x)
            return _build(x)

        def derivative(*args, _derivative=solver.d_expected_loss, **kwargs):
            derivatives.append(args[2])
            return _derivative(*args, **kwargs)

        monkeypatch.setattr(dist, "partial_moments", build)
        monkeypatch.setattr(solver, "d_expected_loss", derivative)
        sol = solve_offset(dist, LossParams(1.0, ratio))
        assert len(points) == len(derivatives) + 1 and points.count(0.0) == 1
        assert abs(sol.C) in points
        nonzero = [x for x in points if x != 0.0]
        assert len(set(nonzero)) == len(nonzero)  # no point is built twice

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

    @pytest.mark.parametrize("dist", [
        Laplace(1.0), Gaussian(1.0), *(GeneralizedGaussian(a, 1.0) for a in (0.3, 0.75, 3.0, 10.0)),
        PdfOnly(Laplace(1.0)),
    ], ids=repr)
    def test_cross_checks_hold_out_to_extreme_ratios(self, dist):
        # E[L] and E[L^2] in tail form do not cancel when one cost dwarfs the other.
        for e in range(-12, 13):
            solve_offset(dist, LossParams(1.0, 10.0 ** e))

    def test_fitted_empirical_cross_checks_hold(self):
        # The fit's density is positive up to its support end, so from a
        # ratio near 1e10 one ulp of C moves the residual past what the
        # cross-check tolerates; see the bounded-support test below.  Up
        # to there every answer is exact to rounding, checked in rationals.
        fitted = _gg_fit()
        oracle = StepOracle.of(fitted)
        for e in range(-12, 10):
            params = LossParams(1.0, 10.0 ** e)
            _assert_exact(solve_offset(fitted, params), oracle, params)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_fit_exact_against_its_unpooled_density(self, seed):
        # The fit has one piece per pooled block; the oracle keeps one piece
        # per distinct magnitude, the same density in rationals.  From 1e9
        # these fits meet the bounded-support limit below.
        z = GeneralizedGaussian(0.75, 1.0).sample(1000, seed)
        fitted = fit_empirical(z)[0]
        oracle = StepOracle.of(EmpiricalSymmetric(*fit_empirical_sorts(z)[:2]))
        for e in range(-12, 9):
            params = LossParams(1.0, 10.0 ** e)
            _assert_exact(solve_offset(fitted, params), oracle, params)

    @pytest.mark.xfail(raises=CrossCheckError, strict=True,
                       reason="C rounds to a float where a bounded support's density is "
                              "still positive; the k_sum*upper[1] route is off by |C|*residual")
    @pytest.mark.parametrize("make, k2", [(lambda: Uniform(1.0), 1e9), (_gg_fit, 1e12),
                                          (_gg_fit, 1e10)],
                             ids=["uniform", "empirical", "empirical-1e10"])
    def test_bounded_support_cross_check_limit(self, make, k2):
        solve_offset(make(), LossParams(1.0, k2))

    @pytest.mark.parametrize("dist, e", [
        pytest.param(dist, e, id=f"{prefix}{e}")
        for prefix, dist in [("", Uniform(2.0)), ("pdf_only_", PdfOnly(Uniform(2.0)))]
        for e in (6, 7, 8, -6, -7, -8)
    ])
    def test_uniform_moments_exact_near_the_support_end(self, dist, e):
        # |C| lies within 4e-6 (at 1e±6) to 4e-8 (at 1e±8) of w = 2; the tail
        # about C is taken directly, not as a difference of moments about 0,
        # by the closed form and by the panel table of its pdf alike.
        params = LossParams(1.0, 10.0 ** e)
        _assert_exact(solve_offset(dist, params), StepOracle.of(Uniform(2.0)), params)

    def test_pdf_only_step_density_exact_at_an_extreme_ratio(self):
        # C lies near the support end, where the tail about C is a small
        # difference of large moments about 0; the panels keep it exact by
        # taking each stretch about its own left end.  beta_at_C is left
        # out: the panels that straddle an interior jump hold it to about
        # 1e-13 only.
        base = EmpiricalSymmetric([0.0, 61.0, 105.0, 137.0], [53.0, 50.0, 49.0])
        sol = solve_offset(PdfOnly(base), LossParams(1.0, 1e-12))
        mean, var = StepOracle.of(base).loss_stats(1.0, 1e-12, sol.C)
        assert relative_error(sol.expected_at_C, mean) <= 1e-13
        assert relative_error(sol.variance_at_C, var) <= 1e-13

    @pytest.mark.parametrize("k", [340, 400, 500])
    def test_fit_scaled_by_a_power_of_two_solves_exactly(self, k):
        # Breakpoints past about 5.6e102 overflow t^3, so the moments of
        # each piece are powers of its width times its mass; the scaled fit
        # solves, and every answer scales by 2^k or 2^2k to the last bit.
        z = GeneralizedGaussian(0.75, 1.0).sample(1000, seed=2)
        params = LossParams(2.0, 11.0)
        unit = solve_offset(fit_empirical(z)[0], params)
        scaled = solve_offset(fit_empirical(np.ldexp(z, k))[0], params)
        powers = {"C": 1, "expected_at_C": 1, "expected_at_zero": 1,
                  "variance_at_C": 2, "variance_at_zero": 2, "beta_at_C": 2}
        for name, power in powers.items():
            assert getattr(scaled, name) == math.ldexp(getattr(unit, name), power * k), name

    @given(
        widths=st.lists(st.integers(1, 64), min_size=1, max_size=6),
        levels=st.lists(st.integers(1, 64), min_size=6, max_size=6),
        unit=st.integers(-8, 8),
        e=st.integers(-12, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_step_densities_exact(self, widths, levels, unit, e):
        # Every symmetric unimodal law is a scale mixture of uniforms
        # (Khintchine), and the step densities are its finite mixtures: an
        # exact oracle over the paper's whole assumption class.  Breakpoints
        # and heights are dyadic; heights do not increase.
        breaks = np.ldexp(np.cumsum([0, *widths]), unit)
        heights = np.ldexp(sorted(levels[: len(widths)], reverse=True), -unit - 6)
        dist = EmpiricalSymmetric(breaks, heights)
        params = LossParams(1.0, 10.0 ** e)
        try:
            sol = solve_offset(dist, params)
        except CrossCheckError:
            return  # C rounded to where the in-table check cannot hold; see above
        _assert_exact(sol, StepOracle.of(dist), params)

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
                lower, excess = super()._half_moments(x)
                return (
                    (np.minimum(lower[0], 0.4), *lower[1:]),
                    (np.maximum(excess[0], 0.1), *excess[1:]),
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
