"""Tests for the convolution-measure estimators and local dimension."""

import math

import numpy as np
import pytest

from betaprefix import (BetaContext, DepthExceeded, InvalidPoint, bernoulli,
                        local_dimension, measure_interval, measure_monte_carlo)
from betaprefix.bernoulli import METHOD_MONTE_CARLO, METHOD_RECURSION

MC_SAMPLES = 1 << 18


def _combined(e1, e2):
    return e1.half_width + e2.half_width


def _brute_bracket(beta, lo, hi, depth):
    """Shares of the 2^depth cylinders [S, S + w] inside and meeting
    [lo, hi], testing every digit word on its own."""
    words = (np.arange(1 << depth)[:, None] >> np.arange(depth)) & 1
    sums = words @ (beta ** -np.arange(1.0, depth + 1))
    w = beta ** -depth / (beta - 1)
    inside = int(((sums >= lo) & (sums + w <= hi)).sum())
    meet = int(((sums <= hi) & (sums + w >= lo)).sum())
    return inside / 2 ** depth, meet / 2 ** depth


class TestShortCircuits:
    def test_full_support_is_one(self, ctx15):
        ub = float(ctx15.one_over_beta_minus_one)
        rec = measure_interval(ctx15, -0.5, ub + 0.5, 20)
        mc = measure_monte_carlo(ctx15, -0.5, ub + 0.5, 1000, 30, seed=1)
        assert rec.value == 1.0 and rec.half_width == 0.0
        assert mc.value == 1.0 and mc.half_width == 0.0

    def test_exact_support_is_one(self, ctx15):
        ub = float(ctx15.one_over_beta_minus_one)
        rec = measure_interval(ctx15, 0.0, ub, 20)
        mc = measure_monte_carlo(ctx15, 0.0, ub, 1000, 30, seed=1)
        assert rec.value == 1.0 and mc.value == 1.0

    def test_disjoint_is_zero(self, ctx15):
        # the measure has no atoms: touching the support at 0 or at
        # 1/(beta-1) = 2 is still exactly measure zero for both estimators
        for lo, hi in ((-3.0, -1.0), (5.0, 7.0), (-1.0, 0.0), (2.0, 3.0)):
            for est in (measure_interval(ctx15, lo, hi, 20),
                        measure_monte_carlo(ctx15, lo, hi, 1000, 20, seed=1)):
                assert (est.value, est.half_width) == (0.0, 0.0)


class TestRecursion:
    def test_frozen_regression_beta15(self, ctx15):
        est = measure_interval(ctx15, 0.4, 0.6, 30)
        assert est.value == pytest.approx(0.1054623, abs=2e-4)
        assert est.half_width < 1e-5
        assert est.method == METHOD_RECURSION

    def test_bracket_equals_brute_force(self, rng):
        balls = []
        for beta in ("1.2", "1.5", "1.8"):
            ub = float(BetaContext(beta).one_over_beta_minus_one)
            for _ in range(8):
                x = rng.uniform(0.0, ub)
                r = rng.uniform(0.01, 0.3) * ub
                balls.append((beta, x - r, x + r, rng.randint(6, 14)))
        # balls on which a float self-similarity recursion, clipping its
        # images to the support, left full cylinders unresolved and gave a
        # lower bound below the true share (0 against 1/32 on the first)
        balls += [("1.693817", 0.2260048340288393, 0.31069462706825113, 6),
                  ("1.774514", 0.9330173088546966, 0.9444807531558029, 9),
                  ("1.509725", 1.682743878825953, 1.7946219753110817, 8)]
        for beta, lo, hi, depth in balls:
            est = measure_interval(BetaContext(beta), lo, hi, depth)
            got = (est.value - est.half_width, est.value + est.half_width)
            assert got == _brute_bracket(float(beta), lo, hi, depth)

    def test_ball_narrower_than_a_cylinder(self, ctx15):
        # the inside window [lo, hi - w] is empty and must count 0
        est = measure_interval(ctx15, 1.0, 1.05, 6)
        assert est.value == est.half_width > 0.0

    def test_half_width_shrinks_with_depth(self, ctx15):
        widths = [measure_interval(ctx15, 0.4, 0.6, d).half_width
                  for d in (16, 22, 28)]
        assert widths[0] > widths[1] > widths[2]

    def test_depth_guards(self, ctx15):
        with pytest.raises(DepthExceeded):
            measure_interval(ctx15, 0.4, 0.6, 49)
        with pytest.raises(ValueError):
            measure_interval(ctx15, 0.4, 0.6, -1)
        with pytest.raises(ValueError):
            measure_interval(ctx15, 0.6, 0.4, 10)

    def test_monotone_in_nesting(self, ctx15, rng):
        for _ in range(10):
            a = rng.uniform(0.0, 1.2)
            b = a + rng.uniform(0.05, 0.6)
            inner = measure_interval(ctx15, a + 0.02, b - 0.02, 26)
            outer = measure_interval(ctx15, a, b, 26)
            assert inner.value <= outer.value + _combined(inner, outer)

    def test_self_similarity_residual(self, rng):
        # mu(E) = (mu(beta E) + mu(beta E - 1)) / 2 within bracket error
        for beta in ("1.3", "1.5"):
            ctx = BetaContext(beta)
            b = float(beta)
            ub = float(ctx.one_over_beta_minus_one)
            for _ in range(10):
                lo = rng.uniform(0, ub * 0.8)
                hi = lo + rng.uniform(0.01, ub * 0.2)
                e = measure_interval(ctx, lo, hi, 26)
                e0 = measure_interval(ctx, b * lo, b * hi, 25)
                e1 = measure_interval(ctx, b * lo - 1, b * hi - 1, 25)
                lhs = e.value
                rhs = (e0.value + e1.value) / 2
                err = e.half_width + (e0.half_width + e1.half_width) / 2
                assert abs(lhs - rhs) <= err + 1e-12

    def test_reflection_symmetry(self, ctx15, rng):
        # the digit-complement symmetry reflects the measure about ub/2
        ub = float(ctx15.one_over_beta_minus_one)
        for _ in range(8):
            x = rng.uniform(0.2, ub - 0.2)
            r = rng.uniform(0.05, 0.2)
            e1 = measure_interval(ctx15, x - r, x + r, 26)
            e2 = measure_interval(ctx15, ub - x - r, ub - x + r, 26)
            assert abs(e1.value - e2.value) <= _combined(e1, e2) + 1e-12


class TestMonteCarlo:
    def test_deterministic_given_seed(self, ctx15):
        a = measure_monte_carlo(ctx15, 0.4, 0.6, MC_SAMPLES, 36, seed=7)
        b = measure_monte_carlo(ctx15, 0.4, 0.6, MC_SAMPLES, 36, seed=7)
        c = measure_monte_carlo(ctx15, 0.4, 0.6, MC_SAMPLES, 36, seed=8)
        assert a == b
        assert c.value != a.value

    def test_agrees_with_recursion(self, rng):
        for beta in ("1.3", "1.5"):
            ctx = BetaContext(beta)
            ub = float(ctx.one_over_beta_minus_one)
            for i in range(6):
                lo = rng.uniform(0, ub * 0.7)
                hi = lo + rng.uniform(0.05, ub * 0.25)
                rec = measure_interval(ctx, lo, hi, 26)
                mc = measure_monte_carlo(ctx, lo, hi, MC_SAMPLES, 40, seed=i)
                assert abs(rec.value - mc.value) <= 3 * _combined(rec, mc)

    def test_parameter_guards(self, ctx15):
        with pytest.raises(ValueError):
            measure_monte_carlo(ctx15, 0.4, 0.6, 0, 30, seed=1)
        with pytest.raises(ValueError):
            measure_monte_carlo(ctx15, 0.4, 0.6, 100, 0, seed=1)


class TestLocalDimension:
    def test_monte_carlo_slopes_reasonable(self, ctx15):
        est = local_dimension(ctx15, 1.1, 8, 16, method=METHOD_MONTE_CARLO,
                              samples=1 << 20, seed=3)
        assert 0.5 < est.slope_lower <= est.slope_upper < 1.5
        assert not est.unstable
        assert len(est.radii) == len(est.log_measures) == 9

    def test_recursion_method(self, ctx15):
        est = local_dimension(ctx15, 1.1, 6, 10, method=METHOD_RECURSION,
                              depth=26)
        assert 0.4 < est.slope_lower <= est.slope_upper < 1.6

    def test_recursion_equals_per_radius_measure(self):
        ctx = BetaContext("1.3")
        est = local_dimension(ctx, 1.7, 1, 12, method=METHOD_RECURSION,
                              depth=20)
        single = [measure_interval(ctx, 1.7 - r, 1.7 + r, 20)
                  for r in est.radii]
        assert est.log_measures == tuple(math.log(e.value) for e in single)

    def test_respects_local_dim_bound(self, rng):
        # upper local dimension bounds hold with slack at sampled points
        from betaprefix import local_dim_upper
        for beta in ("1.3", "1.5"):
            ctx = BetaContext(beta)
            _, bound = local_dim_upper(ctx, m_max=8)
            ub = float(ctx.one_over_beta_minus_one)
            for _ in range(2):
                x = rng.uniform(0.25 * ub, 0.75 * ub)
                est = local_dimension(ctx, x, 8, 15, method=METHOD_MONTE_CARLO,
                                      samples=1 << 20, seed=11)
                assert est.slope_upper <= bound + 0.1

    def test_edge_slope_exceeds_center_slope(self):
        # near the support edge the measure thins out, so the scaling
        # exponent is visibly larger than at the center; frozen from the
        # first seeded run at a base just below the golden ratio
        ctx = BetaContext("1.6")
        ub = float(ctx.one_over_beta_minus_one)
        center = local_dimension(ctx, ub / 2, 8, 15, method=METHOD_MONTE_CARLO,
                                 samples=1 << 20, seed=5)
        edge = local_dimension(ctx, ub * 0.985, 8, 15, method=METHOD_MONTE_CARLO,
                               samples=1 << 20, seed=5)
        assert edge.slope_upper > center.slope_upper + 0.05
        assert center.slope_upper == pytest.approx(0.908, abs=0.05)
        assert edge.slope_upper == pytest.approx(1.157, abs=0.07)

    def test_default_is_the_count_at_offset_14(self, ctx15, monkeypatch):
        est = local_dimension(ctx15, 1.1, 8, 12)
        assert est == local_dimension(ctx15, 1.1, 8, 12, method=METHOD_RECURSION,
                                      depth=12 + 14)
        assert (est.method, est.depth) == (METHOD_RECURSION, 26)
        # Monte Carlo keeps its own default depth, k_max + 22
        mc = local_dimension(ctx15, 1.1, 8, 12, method=METHOD_MONTE_CARLO,
                             samples=4096, seed=2)
        assert mc == local_dimension(ctx15, 1.1, 8, 12, method=METHOD_MONTE_CARLO,
                                     depth=12 + 22, samples=4096, seed=2)
        assert (mc.method, mc.depth) == (METHOD_MONTE_CARLO, 34)
        # both default depths stop at the cap
        monkeypatch.setattr(bernoulli, "MAX_DEPTH", 20)
        assert local_dimension(ctx15, 1.1, 4, 8).depth == 20
        assert local_dimension(ctx15, 1.1, 4, 8, method=METHOD_MONTE_CARLO,
                               samples=64).depth == 20

    def test_default_agrees_with_monte_carlo(self):
        for beta in ("1.3", "1.5", "1.8"):
            ctx = BetaContext(beta)
            ub = float(ctx.one_over_beta_minus_one)
            for frac in (0.3, 0.6):
                count = local_dimension(ctx, frac * ub, 8, 14)
                mc = local_dimension(ctx, frac * ub, 8, 14, method=METHOD_MONTE_CARLO,
                                     samples=1 << 20, seed=7)
                assert not count.unstable
                assert count.slope_lower == pytest.approx(mc.slope_lower, abs=0.05)
                assert count.slope_upper == pytest.approx(mc.slope_upper, abs=0.05)

    def test_guards(self, ctx15):
        with pytest.raises(InvalidPoint):
            local_dimension(ctx15, -1.0, 8, 12)
        with pytest.raises(ValueError):
            local_dimension(ctx15, 1.0, 0, 12)
        with pytest.raises(ValueError):
            local_dimension(ctx15, 1.0, 8, 12, method="nope")
        with pytest.raises(ValueError, match="samples"):
            local_dimension(ctx15, 1.1, 8, 10, samples=0)
        with pytest.raises(DepthExceeded):
            local_dimension(ctx15, 1.1, 8, 10, method=METHOD_RECURSION,
                            depth=49)
