"""Tests for the scalar core: context, maps, polynomials and roots."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workprec

from betaprefix import (BetaContext, NoRootFound, PolynomialFamily,
                        apply_map, apply_word, evaluate_polynomial,
                        golden_ratio, lambda_threshold, omega_threshold,
                        polynomial_spec, polynomial_string,
                        smallest_root_above_one)
from betaprefix.numeric import (PolynomialSpec, _sign_right_of_one,
                                descartes_bound_above_one)

# Published threshold values (5 decimal places); the last-digit unit
# tolerance absorbs the publication rounding.
PUBLISHED_OMEGA = {1: "1.07445", 2: "1.02838", 3: "1.01492"}
PUBLISHED_LAMBDA = {1: "1.32472", 2: "1.46557", 3: "1.53416", 10: "1.61575"}
TABLE_TOL = 1.5e-5

# Independently verified roots for the two table entries whose published
# values disagree with their own defining polynomials (see notes ledger).
VERIFIED_OMEGA_10 = 1.001755478047
VERIFIED_OMEGA_100 = 1.000019731013


class TestBetaContext:
    def test_rejects_bases_outside_open_interval(self):
        for bad in ("1", "2", "0.5", "2.5", "-1.3"):
            with pytest.raises(ValueError):
                BetaContext(bad)

    def test_rejects_bad_precision_and_tolerance(self):
        with pytest.raises(ValueError):
            BetaContext("1.5", precision_bits=0)
        with pytest.raises(ValueError):
            BetaContext("1.5", comparison_tolerance=-1e-9)

    def test_cached_constants(self, ctx15):
        assert float(ctx15.one_over_beta_minus_one) == pytest.approx(2.0)
        assert float(ctx15.core_lo) == pytest.approx(0.8)
        assert float(ctx15.core_hi) == pytest.approx(1.2)
        assert ctx15.core_lo < ctx15.core_hi < ctx15.one_over_beta_minus_one

    def test_core_two_cycle(self, rng):
        # T0 sends the lower core endpoint to the upper and T1 sends it back
        for _ in range(25):
            ctx = BetaContext(rng.uniform(1.01, 1.99))
            tol = ctx.comparison_tolerance
            assert abs(apply_map(ctx, 0, ctx.core_lo) - ctx.core_hi) <= tol
            assert abs(apply_map(ctx, 1, ctx.core_hi) - ctx.core_lo) <= tol


class TestMaps:
    def test_zero_fixed_point(self, ctx15):
        assert apply_map(ctx15, 0, 0) == 0

    def test_one_digit_at_one(self, ctx15):
        assert float(apply_map(ctx15, 1, 1)) == pytest.approx(0.5)

    def test_bad_digit(self, ctx15):
        with pytest.raises(ValueError):
            apply_map(ctx15, 2, 0.5)

    def test_empty_word_is_identity(self, ctx15):
        x = mpf("0.37")
        assert apply_word(ctx15, "", x) == x

    def test_bad_word(self, ctx15):
        with pytest.raises(ValueError):
            apply_word(ctx15, "01x", 0.5)

    def test_word_10_matches_two_map_steps(self):
        ctx = BetaContext("1.8")
        x = mpf("0.7")
        closed = apply_word(ctx, "10", x)
        stepped = apply_map(ctx, 0, apply_map(ctx, 1, x))
        assert abs(closed - stepped) < mpf(2) ** -100
        assert float(closed) == pytest.approx(0.468)

    def test_ones_word_closed_form(self, rng):
        # iterating the upper map k times from beta^n/(beta^2-1) gives
        # (beta^(n+k) - beta^(k+1) - beta^k + beta + 1)/(beta^2 - 1)
        for _ in range(40):
            ctx = BetaContext(rng.uniform(1.05, 1.95))
            n = rng.randint(0, 5)
            k = rng.randint(1, 10)
            with workprec(ctx.precision_bits):
                b = ctx.beta
                x = ctx.power(n) / (b * b - 1)
                expected = (ctx.power(n + k) - ctx.power(k + 1) - ctx.power(k)
                            + b + 1) / (b * b - 1)
                got = apply_word(ctx, "1" * k, x)
                assert abs(got - expected) < mpf(2) ** -90

    @settings(max_examples=120, deadline=None)
    @given(beta=st.floats(1.001, 1.999), frac=st.floats(0, 1),
           bits=st.lists(st.integers(0, 1), max_size=30))
    def test_closed_form_matches_iteration(self, beta, frac, bits):
        ctx = BetaContext(beta)
        word = "".join(str(b) for b in bits)
        with workprec(ctx.precision_bits):
            x = mpf(frac) * ctx.one_over_beta_minus_one
            v = x
            for b in bits:
                v = apply_map(ctx, b, v)
            assert abs(apply_word(ctx, word, x) - v) < mpf(2) ** -64

    def test_closed_form_matches_iteration_bulk(self):
        rng = random.Random(500)
        for _ in range(500):
            ctx = BetaContext(rng.uniform(1.001, 1.999))
            k = rng.randint(0, 30)
            bits = [rng.randint(0, 1) for _ in range(k)]
            word = "".join(map(str, bits))
            with workprec(ctx.precision_bits):
                x = mpf(rng.random()) * ctx.one_over_beta_minus_one
                v = x
                for b in bits:
                    v = apply_map(ctx, b, v)
                assert abs(apply_word(ctx, word, x) - v) < mpf(2) ** -64


class TestPolynomials:
    def test_m1_closed_forms(self):
        expected = {
            PolynomialFamily.OMEGA_1: ((7, 1), (4, -1), (3, -1), (2, -1), (1, 1), (0, 1)),
            PolynomialFamily.OMEGA_2: ((5, 1), (4, -1), (2, -1), (0, 1)),
            PolynomialFamily.OMEGA_3: ((5, 1), (1, -1), (0, -1)),
            PolynomialFamily.LAMBDA: ((4, 1), (3, -1), (2, -1), (0, 1)),
        }
        for family, coeffs in expected.items():
            assert polynomial_spec(family, 1).coefficients == coeffs

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_value_at_one(self, m):
        at_one = {
            PolynomialFamily.OMEGA_1: 0,
            PolynomialFamily.OMEGA_2: 0,
            PolynomialFamily.OMEGA_3: -1,
            PolynomialFamily.LAMBDA: 0,
        }
        for family, expected in at_one.items():
            spec = polynomial_spec(family, m)
            assert evaluate_polynomial(spec, 1) == expected

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            polynomial_spec(PolynomialFamily.LAMBDA, 0)

    def test_string_rendering(self):
        assert polynomial_string(polynomial_spec(PolynomialFamily.OMEGA_1, 1)) == \
            "x^7-x^4-x^3-x^2+x+1"
        assert polynomial_string(polynomial_spec(PolynomialFamily.OMEGA_2, 10)) == \
            "x^23-x^22-x^2+1"
        assert polynomial_string(polynomial_spec(PolynomialFamily.LAMBDA, 100)) == \
            "x^103-x^102-x^101+1"


def _bisect_oracle(f, lo, hi, tol=1e-12):
    """Plain float bisection, independent of the package root finder."""
    flo = f(lo)
    assert flo < 0 < f(hi)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _linear_scan_root(spec, abs_tol=1e-9, precision_bits=160):
    """The root finder as it was before the certified search: a linear scan
    of (1 + 1e-9, 2) in steps of 1e-3, then bisection of the first cell."""
    with workprec(53):  # the package makes its scan constants at import
        step, offset = mpf(10) ** -3, mpf(10) ** -9
    with workprec(precision_bits):
        tol = mpf(abs_tol)
        a = 1 + offset
        fa = evaluate_polynomial(spec, a)
        if fa == 0:
            return a
        bracket = None
        while a < 2:
            b = a + step
            if b > 2:
                b = mpf(2)
            fb = evaluate_polynomial(spec, b)
            if fb == 0 or (fa < 0) != (fb < 0):
                bracket = (a, fa, b)
                break
            a, fa = b, fb
        if bracket is None:
            raise NoRootFound("no sign change")
        lo, flo, hi = bracket
        neg = flo < 0
        while hi - lo > tol:
            mid = (lo + hi) / 2
            fm = evaluate_polynomial(spec, mid)
            if fm == 0:
                hi = mid
                continue
            if (fm < 0) == neg:
                lo = mid
            else:
                hi = mid
        return lo


class TestRoots:
    def test_omega3_m1_against_bisection_oracle(self):
        oracle = _bisect_oracle(lambda x: x ** 5 - x - 1, 1.0, 2.0)
        root = smallest_root_above_one(
            polynomial_spec(PolynomialFamily.OMEGA_3, 1))
        assert abs(float(root) - oracle) < 1e-8
        assert oracle == pytest.approx(1.16730397826, abs=1e-9)

    def test_returned_root_is_on_the_nonpositive_side(self):
        # the defining inequalities hold at the returned value itself
        for family in PolynomialFamily:
            for m in (1, 2, 7):
                spec = polynomial_spec(family, m)
                root = smallest_root_above_one(spec)
                with workprec(160):
                    assert evaluate_polynomial(spec, root) <= 0

    def test_root_residual_small(self):
        for family in PolynomialFamily:
            spec = polynomial_spec(family, 3)
            root = smallest_root_above_one(spec, abs_tol=1e-9)
            with workprec(200):
                h = mpf(10) ** -20
                deriv = (evaluate_polynomial(spec, root + h)
                         - evaluate_polynomial(spec, root - h)) / (2 * h)
                resid = abs(evaluate_polynomial(spec, root))
                assert resid < 10 * mpf(1e-9) * abs(deriv)

    def test_no_root_found(self):
        flat = PolynomialSpec(PolynomialFamily.OMEGA_3, 1, ((1, 1), (0, 1)))
        assert descartes_bound_above_one(flat) == 0
        with pytest.raises(NoRootFound):
            smallest_root_above_one(flat)
        # certified, but its root 2 + 5e-10 lies past the grid's end: the
        # last step overshoots 2 by about 1e-9 and is clipped to 2
        past_two = PolynomialSpec(PolynomialFamily.OMEGA_3, 1,
                                  ((1, 2 * 10 ** 9), (0, -(4 * 10 ** 9 + 1))))
        assert descartes_bound_above_one(past_two) == 1
        with pytest.raises(NoRootFound):
            smallest_root_above_one(past_two)

    def test_root_below_the_first_grid_point(self):
        # omega_1 for m = 15000 is positive at 1 + 1e-9 and at every later
        # grid point; its only root above 1 lies left of the grid
        spec = polynomial_spec(PolynomialFamily.OMEGA_1, 15000)
        assert _sign_right_of_one(spec) == -1
        root = smallest_root_above_one(spec)
        assert 1 < root <= 1 + mpf(10) ** -9
        with workprec(160):
            assert evaluate_polynomial(spec, root) < 0
        assert omega_threshold(15000) == root
        # -(x - 1)(10^12 x - 10^12 - 1): positive on (1, 1 + 1e-12)
        a = 10 ** 12
        near = PolynomialSpec(PolynomialFamily.OMEGA_3, 1,
                              ((2, -a), (1, 2 * a + 1), (0, -(a + 1))))
        assert descartes_bound_above_one(near) == 1
        assert _sign_right_of_one(near) == 1
        root = smallest_root_above_one(near)
        assert 1 < root <= 1 + mpf(10) ** -12
        assert abs(root - (1 + mpf(10) ** -12)) < 1e-9
        # a root at 1 + 2^-200 is below the 160-bit resolution
        closer = PolynomialSpec(PolynomialFamily.OMEGA_3, 1,
                                ((1, 2 ** 200), (0, -(2 ** 200 + 1))))
        with pytest.raises(NoRootFound, match="cannot narrow"):
            smallest_root_above_one(closer)

    def test_sign_right_of_one_reads_higher_derivatives(self):
        # (x - 1)^2 (x - 3): p(1) = p'(1) = 0 and p''(1) = -4
        spec = PolynomialSpec(PolynomialFamily.OMEGA_3, 1,
                              ((3, 1), (2, -5), (1, 7), (0, -3)))
        assert _sign_right_of_one(spec) == -1
        assert _sign_right_of_one(polynomial_spec(PolynomialFamily.OMEGA_3, 1)) == -1

    def test_rejects_bad_tol(self):
        for tol in (0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError):
                smallest_root_above_one(
                    polynomial_spec(PolynomialFamily.LAMBDA, 1), abs_tol=tol)

    def test_rejects_precision_below_the_scan_step(self):
        # at 8 bits 1 + 1e-3 rounds to 1, so the grid would never reach 2
        with pytest.raises(ValueError):
            smallest_root_above_one(
                polynomial_spec(PolynomialFamily.LAMBDA, 1), precision_bits=8)

    def test_every_family_root_has_a_certificate(self):
        for family in PolynomialFamily:
            for m in [*range(1, 65), 1000, 10 ** 6]:
                assert descartes_bound_above_one(polynomial_spec(family, m)) == 1

    def test_certified_search_matches_linear_scan(self):
        for family in PolynomialFamily:
            for m in range(1, 65):
                spec = polynomial_spec(family, m)
                assert (smallest_root_above_one(spec)._mpf_
                        == _linear_scan_root(spec)._mpf_), (family, m)

    def test_root_at_one_is_divided_out(self):
        # -(x - 1)(2x - 3): two sign variations, less the root at 1
        spec = PolynomialSpec(PolynomialFamily.OMEGA_3, 1, ((2, -2), (1, 5), (0, -3)))
        assert descartes_bound_above_one(spec) == 1
        root = smallest_root_above_one(spec)
        assert root._mpf_ == _linear_scan_root(spec)._mpf_
        assert abs(root - 1.5) < 1e-9

    def test_two_roots_return_the_smaller(self):
        # 10x^2 - 27x + 18 = (2x - 3)(5x - 6) is positive at both grid ends,
        # so only the ordered walk finds its sign changes
        two = PolynomialSpec(PolynomialFamily.OMEGA_3, 1, ((2, 10), (1, -27), (0, 18)))
        assert descartes_bound_above_one(two) == 2
        root = smallest_root_above_one(two)
        assert root._mpf_ == _linear_scan_root(two)._mpf_
        assert str(root) == "1.19999999909265"

    @pytest.mark.parametrize("m,text", sorted(PUBLISHED_OMEGA.items()))
    def test_omega_published_values(self, m, text):
        assert abs(float(omega_threshold(m)) - float(text)) <= TABLE_TOL

    @pytest.mark.parametrize("m,text", sorted(PUBLISHED_LAMBDA.items()))
    def test_lambda_published_values(self, m, text):
        assert abs(float(lambda_threshold(m)) - float(text)) <= TABLE_TOL

    def test_omega_large_m_verified_roots(self):
        # these two differ from their published 5dp renderings; values are
        # pinned from an independent fine-grid sign scan of the polynomials
        assert abs(float(omega_threshold(10)) - VERIFIED_OMEGA_10) < 2e-8
        assert abs(float(omega_threshold(100)) - VERIFIED_OMEGA_100) < 2e-8

    def test_lambda_1_is_the_smallest_pisot_number(self):
        plastic = _bisect_oracle(lambda x: x ** 3 - x - 1, 1.0, 2.0)
        assert abs(float(lambda_threshold(1)) - plastic) < 1e-8

    def test_monotonicity(self):
        omegas = [omega_threshold(m) for m in range(1, 31)]
        lambdas = [lambda_threshold(m) for m in range(1, 31)]
        assert all(a > b for a, b in zip(omegas, omegas[1:]))
        assert all(a < b for a, b in zip(lambdas, lambdas[1:]))

    def test_limits(self):
        assert float(omega_threshold(100)) < 1.0001
        assert abs(float(lambda_threshold(100)) - float(golden_ratio())) < 1e-4

    def test_thresholds_reject_bad_m(self):
        with pytest.raises(ValueError):
            omega_threshold(0)
        with pytest.raises(ValueError):
            lambda_threshold(-3)
