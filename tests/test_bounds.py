"""Tests for the closed-form bounds, thresholds, and separation search."""

import math

import pytest
from mpmath import mp, mpf, workprec
from mpmath.libmp import from_man_exp, mpf_pos, round_floor

from betaprefix import (BetaContext, CapExceeded, OutOfDomain,
                        apply_word, bound_report, delta_search,
                        enumerate_prefixes_direct, golden_ratio,
                        kappa_lower_bound, lambda_threshold, local_dim_upper,
                        omega_threshold, separation_holds,
                        smallest_root_above_one, upper_rate_bound,
                        upper_rate_bounds)
from betaprefix.numeric import PolynomialFamily, PolynomialSpec


class TestKappa:
    def test_beta_15_is_one_eighth(self, ctx15):
        # (beta^2-1)/(1+beta-beta^2) = 5 at beta=1.5 and log_1.5(5) ~ 3.969
        assert kappa_lower_bound(ctx15) == pytest.approx(0.125)

    def test_branch_seam_at_sqrt2(self):
        # the two formula branches agree at sqrt(2), where both arguments
        # equal 1/(beta-1); selection at the seam must not jump
        lo = kappa_lower_bound(BetaContext(math.sqrt(2) - 1e-9))
        hi = kappa_lower_bound(BetaContext(math.sqrt(2) + 1e-9))
        assert lo == hi == pytest.approx(1 / 6)

    def test_small_beta_tends_to_zero(self):
        values = [kappa_lower_bound(BetaContext(b))
                  for b in (1.2, 1.1, 1.05, 1.01)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.002

    def test_positive_on_domain(self):
        for i in range(40):
            beta = 1.001 + i * (float(golden_ratio()) - 1.002) / 40
            assert kappa_lower_bound(BetaContext(beta)) > 0

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            kappa_lower_bound(BetaContext("1.62"))

    @pytest.mark.parametrize("precision", [96, 128, 200])
    def test_rounded_golden_ratio_is_below_it(self, precision):
        # golden_ratio(p) rounds below the golden ratio at these precisions;
        # the exact comparison admits it, and 1+beta-beta^2, which rounds to
        # 0 at p bits, is exact at 2p
        g = golden_ratio(precision)
        with workprec(8 * precision):
            assert g < (1 + mp.sqrt(5)) / 2
            arg = (g ** 2 - 1) / (1 + g - g ** 2)
            fl = int(mp.floor(mp.log(arg) / mp.log(g)))
        ctx = BetaContext(g, precision)
        assert kappa_lower_bound(ctx) == 0.5 / (fl + 1)
        assert bound_report(ctx, 8).kappa == 0.5 / (fl + 1)
        # the next value up lies above the golden ratio and is rejected
        above = BetaContext(mp.make_mpf(from_man_exp(g.man + 1, g.exp)), precision)
        with pytest.raises(OutOfDomain):
            kappa_lower_bound(above)
        assert bound_report(above, 8).kappa is None

    def test_floor_is_exact(self):
        # the floor of log_beta A, taken in integers at the context's own
        # beta = a / 2^s: the largest n with beta^n <= A
        bases = [BetaContext(f"1.{i:02d}") for i in range(1, 62, 3)]
        bases += [BetaContext(t) for m in range(1, 9)
                  for t in (lambda_threshold(m), omega_threshold(m))
                  if t < golden_ratio()]
        # beta^3 (beta - 1) = 1 at the root of x^4 - x^3 - 1 (1.3803), so
        # log_beta(1/(beta - 1)) is 3 at the root; the two 128-bit values
        # around it fall on either side
        root = smallest_root_above_one(
            PolynomialSpec(PolynomialFamily.OMEGA_3, 1, ((4, 1), (3, -1), (0, -1))),
            abs_tol=1e-45)
        below = mp.make_mpf(mpf_pos(root._mpf_, 128, round_floor))
        with workprec(128):
            above = below + mpf(2) ** -127
        bases += [BetaContext(below), BetaContext(above)]
        for ctx in bases:
            man, exp = ctx.beta.man, ctx.beta.exp
            a, s = man, -exp
            # beta^n <= A as an integer inequality in a^n and 2^(s n)
            if ctx.beta > math.sqrt(2):
                fits = lambda n: (a ** n * (2 ** (2 * s) + a * 2 ** s - a * a)
                                  <= (a * a - 2 ** (2 * s)) * 2 ** (s * n))
            else:
                fits = lambda n: a ** n * (a - 2 ** s) <= 2 ** (s * (n + 1))
            n = round(0.5 / kappa_lower_bound(ctx)) - 1
            assert fits(n) and not fits(n + 1), ctx
        assert [kappa_lower_bound(c) for c in bases[-2:]] == [0.5 / 4, 0.5 / 3]


class TestBestLowerBounds:
    def test_beta_107_gets_two_thirds(self):
        rep = bound_report(BetaContext("1.07"), m_max=8)
        assert rep.omega_bound == (1, pytest.approx(2 / 3))
        assert rep.best_lower == pytest.approx(2 / 3)

    def test_beta_146_gets_one_quarter(self):
        rep = bound_report(BetaContext("1.46"), m_max=8)
        assert rep.lambda_bound == (2, pytest.approx(0.25))

    def test_beta_161_lambda_pick(self):
        # lambda_8 = 1.61193 is the first threshold above 1.61, so the best
        # pair-generator bound is 1/10; the published-table resolution
        # (m in {1,2,3,10,100}) would give the weaker 1/12 via lambda_10
        rep = bound_report(BetaContext("1.61"), m_max=32)
        assert rep.lambda_bound == (8, pytest.approx(0.1))
        assert float(lambda_threshold(10)) >= 1.61  # the weaker pick stays valid

    def test_absent_bounds_above_golden_ratio(self):
        rep = bound_report(BetaContext("1.9"), m_max=8)
        assert rep.kappa is None
        assert rep.omega_bound is None
        assert rep.lambda_bound is None
        assert rep.best_lower is None

    def test_threshold_inclusion_is_sharp(self):
        om2 = omega_threshold(2)
        with workprec(128):
            inside = BetaContext(om2 - mpf(1e-9))
            outside = BetaContext(om2 + mpf(1e-9))
        assert bound_report(inside, m_max=4).omega_bound[0] == 2
        assert bound_report(outside, m_max=4).omega_bound[0] == 1
        lam2 = lambda_threshold(2)
        with workprec(128):
            inside = BetaContext(lam2 - mpf(1e-9))
            outside = BetaContext(lam2 + mpf(1e-9))
        assert bound_report(inside, m_max=4).lambda_bound[0] == 2
        assert bound_report(outside, m_max=4).lambda_bound[0] == 3

    def test_lower_bounds_below_upper_bounds(self):
        # on a grid below the golden ratio the best lower growth bound never
        # exceeds the smallest applicable upper growth bound
        phi = float(golden_ratio())
        for i in range(100):
            beta = 1.01 + (phi - 1.02) * i / 99
            ctx = BetaContext(beta)
            rep = bound_report(ctx, m_max=64)
            uppers = upper_rate_bounds(ctx)
            assert uppers, f"no upper bound applicable at beta={beta}"
            assert rep.best_lower is not None
            assert rep.best_lower <= min(v for _, v, _ in uppers) + 1e-12


class TestUpperRateBound:
    def test_m2(self):
        value, threshold = upper_rate_bound(2)
        assert value == pytest.approx(math.log2(3) / 2)
        assert threshold == pytest.approx(math.sqrt(2))

    def test_limit_to_one(self):
        value, _ = upper_rate_bound(20)
        assert 0.999 < value < 1
        value, _ = upper_rate_bound(60)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            upper_rate_bound(1)

    def test_applicable_list(self):
        ctx = BetaContext("1.9")
        lst = upper_rate_bounds(ctx, count=3)
        assert [m for m, _, _ in lst] == [2, 3, 4]
        assert all(1.9 > thr for _, _, thr in lst)

    def test_small_beta_starts_higher(self):
        ctx = BetaContext("1.05")
        lst = upper_rate_bounds(ctx, count=2)
        assert lst[0][0] == math.floor(math.log(2) / math.log(1.05)) + 1


class TestSeparation:
    def test_m1_threshold_bracket(self):
        assert separation_holds(BetaContext("1.501"), 1)
        assert not separation_holds(BetaContext("1.499"), 1)

    def test_m3_near_two(self):
        assert separation_holds(BetaContext("1.99"), 3)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            separation_holds(BetaContext("1.9"), 21)

    def test_delta_m1_is_half(self):
        assert abs(delta_search(1) - 0.5) < 1e-6

    def test_delta_positive_and_decreasing(self):
        deltas = [delta_search(m, abs_tol=1e-6) for m in range(1, 11)]
        assert all(d > 0 for d in deltas)
        assert all(a >= b - 1e-9 for a, b in zip(deltas, deltas[1:]))

    def test_delta_m3_regression(self):
        assert delta_search(3) == pytest.approx(0.14536232, abs=1e-4)

    def test_doubling_cap_inside_delta_region(self, rng):
        # inside the separation region prefix counts at most double every
        # m digits
        m = 3
        delta = delta_search(m)
        for i in range(3):
            beta = 2 - delta * (0.2 + 0.3 * i)
            ctx = BetaContext(beta)
            ub = float(ctx.one_over_beta_minus_one)
            for _ in range(5):
                x = rng.uniform(0.05 * ub, 0.95 * ub)
                for k in (1, 2, 3):
                    ps = enumerate_prefixes_direct(ctx, x, k * m)
                    assert ps.count <= 2 ** k


class TestInverseImages:
    def test_identities(self, rng):
        # the m-fold preimages of the interval endpoints under the two maps
        for _ in range(50):
            ctx = BetaContext(rng.uniform(1.05, 1.95))
            m = rng.randint(1, 8)
            with workprec(ctx.precision_bits):
                bm = ctx.power(m)
                pre_one = (bm - 1) / (bm * (ctx.beta - 1))
                pre_zero = 1 / (bm * (ctx.beta - 1))
                slack = mpf(2) ** -80
                assert abs(apply_word(ctx, "1" * m, pre_one)) < slack
                assert abs(apply_word(ctx, "0" * m, pre_zero)
                           - ctx.one_over_beta_minus_one) < slack


class TestLocalDimUpper:
    def test_small_beta_includes_majority_bound(self):
        ctx = BetaContext("1.06")
        cands, minimum = local_dim_upper(ctx, m_max=8)
        sources = {c.source: c for c in cands}
        assert "majority-generator" in sources
        c = sources["majority-generator"]
        expected = math.log(2) / math.log(1.06) / (2 * c.m + 1)
        assert c.value == pytest.approx(expected)
        assert minimum <= c.value

    def test_beta_13_includes_pair_bound_m1(self):
        ctx = BetaContext("1.3")
        cands, _ = local_dim_upper(ctx, m_max=8)
        pair = [c for c in cands if c.source == "pair-generator"][0]
        assert pair.m == 1
        assert pair.value == pytest.approx((2 / 3) * math.log(2) / math.log(1.3))

    def test_kappa_bound_at_15(self, ctx15):
        cands, _ = local_dim_upper(ctx15, m_max=8)
        kap = [c for c in cands if c.source == "kappa"][0]
        assert kap.value == pytest.approx((7 / 8) * math.log(2) / math.log(1.5))

    def test_no_candidates_above_thresholds(self):
        ctx = BetaContext("1.95")
        cands, minimum = local_dim_upper(ctx, m_max=8)
        assert cands == ()
        assert minimum is None

    def test_m_max_guard(self, ctx15):
        for fn in (local_dim_upper, bound_report):
            with pytest.raises(ValueError, match="m_max must be at least 1"):
                fn(ctx15, m_max=0)


class TestBoundReport:
    def test_assembled_report(self, ctx15):
        rep = bound_report(ctx15, m_max=16)
        assert rep.kappa == pytest.approx(0.125)
        assert rep.lambda_bound == (3, pytest.approx(0.2))
        assert rep.omega_bound is None
        assert rep.best_lower == pytest.approx(0.2)
        assert rep.upper_bounds[0][0] == 2
        assert rep.local_dim_min is not None
