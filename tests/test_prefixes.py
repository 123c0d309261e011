"""Tests for enumeration, counting and growth estimation.

The branching and direct enumerations are checked against each other (they
share no pruning logic), and the window counter against both.  Counts used
as frozen regression values were produced by the direct brute-force oracle.
"""

import math

import pytest
from mpmath import mpf, workprec

import betaprefix.prefixes as pf
from betaprefix import (BetaContext, CapExceeded, InvalidPoint, MemoryGuard,
                        apply_word, count_prefixes_window,
                        enumerate_prefixes_branching, enumerate_prefixes_direct,
                        growth_estimate)

# brute-force oracle outputs, frozen (see tests below that recompute them)
COUNT_BETA15_X1_K10 = 28
COUNT_BETA19_X05_K12 = 3


class TestEndpoints:
    def test_origin_forces_zeros(self):
        for beta in ("1.3", "1.5", "1.7"):
            ctx = BetaContext(beta)
            ps = enumerate_prefixes_branching(ctx, 0, 7)
            assert ps.words == ("0000000",)

    def test_right_endpoint_forces_ones(self):
        for beta in ("1.3", "1.5", "1.7"):
            ctx = BetaContext(beta)
            ps = enumerate_prefixes_branching(ctx, ctx.one_over_beta_minus_one, 7)
            assert ps.words == ("1111111",)

    def test_origin_direct(self):
        ctx = BetaContext("1.7")
        ps = enumerate_prefixes_direct(ctx, 0, 12)
        assert ps.words == ("0" * 12,)

    def test_endpoint_uniqueness_deep(self):
        ctx = BetaContext("1.2")
        for k in (10, 25, 40):
            assert enumerate_prefixes_branching(ctx, 0, k).count == 1
            assert enumerate_prefixes_branching(
                ctx, ctx.one_over_beta_minus_one, k).count == 1


class TestFrozenCounts:
    def test_beta15_x1_k10(self, ctx15):
        bran = enumerate_prefixes_branching(ctx15, 1, 10)
        direct = enumerate_prefixes_direct(ctx15, 1, 10)
        assert bran.count == direct.count == COUNT_BETA15_X1_K10
        assert bran.words == direct.words
        assert count_prefixes_window(ctx15, 1, 10) == COUNT_BETA15_X1_K10

    def test_beta19_x05_k12(self):
        ctx = BetaContext("1.9")
        direct = enumerate_prefixes_direct(ctx, "0.5", 12)
        assert direct.count == COUNT_BETA19_X05_K12
        assert count_prefixes_window(ctx, 0.5, 12) == COUNT_BETA19_X05_K12


class TestOracleEquivalence:
    def test_random_cases(self, rng):
        for _ in range(40):
            beta = rng.uniform(1.05, 1.95)
            ctx = BetaContext(beta)
            x = rng.uniform(0, float(ctx.one_over_beta_minus_one))
            k = rng.randint(4, 13)
            bran = enumerate_prefixes_branching(ctx, x, k)
            direct = enumerate_prefixes_direct(ctx, x, k)
            assert bran.words == direct.words
            assert count_prefixes_window(ctx, x, k) == bran.count

    def test_orbit_values_agree_between_paths(self, rng):
        for _ in range(10):
            ctx = BetaContext(rng.uniform(1.2, 1.9))
            x = rng.uniform(0, float(ctx.one_over_beta_minus_one))
            bran = enumerate_prefixes_branching(ctx, x, 10)
            direct = enumerate_prefixes_direct(ctx, x, 10)
            for w in bran.words:
                assert abs(bran.orbit_values[w] - direct.orbit_values[w]) < mpf(2) ** -80


class TestSetProperties:
    def test_words_sorted_and_valid(self, rng):
        ctx = BetaContext("1.4")
        x = 1.0
        ps = enumerate_prefixes_branching(ctx, x, 12)
        assert list(ps.words) == sorted(ps.words)
        ub = ctx.one_over_beta_minus_one
        tol = ctx.comparison_tolerance
        for w, v in ps.orbit_values.items():
            assert -tol <= v <= ub + tol
            assert abs(apply_word(ctx, w, x) - v) < mpf(2) ** -90

    def test_monotone_counting(self, rng):
        for _ in range(6):
            ctx = BetaContext(rng.uniform(1.2, 1.9))
            x = rng.uniform(0.2, 0.8) * float(ctx.one_over_beta_minus_one)
            counts = [enumerate_prefixes_branching(ctx, x, k).count
                      for k in range(13)]
            for a, b in zip(counts, counts[1:]):
                assert a <= b <= 2 * a

    def test_reflection_symmetry(self, rng):
        # complementing digits matches reflecting x about the interval center
        for _ in range(8):
            ctx = BetaContext(rng.uniform(1.15, 1.9))
            with workprec(ctx.precision_bits):
                x = mpf(rng.uniform(0, 1)) * ctx.one_over_beta_minus_one
                mirrored = ctx.one_over_beta_minus_one - x
            ps = enumerate_prefixes_branching(ctx, x, 9)
            qs = enumerate_prefixes_branching(ctx, mirrored, 9)
            flip = str.maketrans("01", "10")
            assert {w.translate(flip) for w in ps.words} == set(qs.words)

    def test_majority_zero_words_dominate_extremal_composition(self, rng):
        # orbit of any (2k+1)-word with a zero majority is at least the
        # orbit of the k-ones-then-(k+1)-zeros word; mirrored for ones;
        # exhaustive over words for 100 random points
        import itertools
        for _ in range(100):
            ctx = BetaContext(rng.uniform(1.05, 1.95))
            k = rng.randint(1, 4)
            with workprec(ctx.precision_bits):
                x = mpf(rng.uniform(0, float(ctx.one_over_beta_minus_one)))
                lo_val = apply_word(ctx, "1" * k + "0" * (k + 1), x)
                hi_val = apply_word(ctx, "0" * k + "1" * (k + 1), x)
                slack = mpf(2) ** -80
                for bits in itertools.product("01", repeat=2 * k + 1):
                    w = "".join(bits)
                    if w.count("0") >= k + 1:
                        assert apply_word(ctx, w, x) - lo_val >= -slack
                    if w.count("1") >= k + 1:
                        assert apply_word(ctx, w, x) - hi_val <= slack


class TestGuards:
    def test_invalid_point(self, ctx15):
        with pytest.raises(InvalidPoint):
            enumerate_prefixes_branching(ctx15, -0.5, 4)
        with pytest.raises(InvalidPoint):
            enumerate_prefixes_direct(ctx15, 2.5, 4)
        with pytest.raises(InvalidPoint):
            count_prefixes_window(ctx15, 3.0, 4)
        # 1e-17 above 1/(beta-1) = 2, far past the 2^-64 tolerance, but 2.0
        # once rounded to 53 bits: each path checks at the context precision
        with workprec(ctx15.precision_bits):
            past = mpf("2.00000000000000001")
        for count in (enumerate_prefixes_branching, enumerate_prefixes_direct,
                      count_prefixes_window):
            with pytest.raises(InvalidPoint):
                count(ctx15, past, 8)

    def test_direct_cap(self, ctx15):
        with pytest.raises(CapExceeded):
            enumerate_prefixes_direct(ctx15, 1, 25)

    def test_survivor_cap(self):
        ctx = BetaContext("1.2")
        with pytest.raises(MemoryGuard):
            enumerate_prefixes_branching(ctx, 1.0, 10, survivor_cap=8)

    def test_window_cap(self, ctx15):
        with pytest.raises(MemoryGuard):
            count_prefixes_window(ctx15, 1, 45)

    def test_negative_k(self, ctx15):
        with pytest.raises(ValueError):
            enumerate_prefixes_branching(ctx15, 1, -1)

    def test_window_k0(self, ctx15):
        assert count_prefixes_window(ctx15, 1, 0) == 1


class TestGrowth:
    def test_origin_has_zero_slopes(self, ctx15):
        est = growth_estimate(ctx15, 0, 8, 16)
        assert est.lower_slope == est.upper_slope == 0.0

    def test_slopes_within_unit_interval(self, rng):
        for _ in range(5):
            ctx = BetaContext(rng.uniform(1.1, 1.9))
            x = rng.uniform(0.3, 0.7) * float(ctx.one_over_beta_minus_one)
            est = growth_estimate(ctx, x, 8, 22)
            assert 0 <= est.lower_slope <= est.upper_slope <= 1

    def test_typical_base_slope(self, rng):
        # at beta=1.3 the typical slope is log2(2/beta); finite-depth
        # estimates at k=28 land within the loose spot-check tolerance
        ctx = BetaContext("1.3")
        expected = math.log2(2 / 1.3)
        for _ in range(3):
            x = rng.uniform(0.3, 0.7) * float(ctx.one_over_beta_minus_one)
            est = growth_estimate(ctx, x, 8, 28)
            mid = est.log2_counts[-1] / 28
            assert abs(mid - expected) < 0.05

    def test_high_base_upper_slope_below_cap_bound(self, rng):
        # for beta=1.9 > 2^(1/m) the upper rate cannot exceed
        # log2(2^m - 1)/m for any valid m; check the tightest (m=2)
        ctx = BetaContext("1.9")
        for _ in range(3):
            x = rng.uniform(0.3, 0.7) * float(ctx.one_over_beta_minus_one)
            est = growth_estimate(ctx, x, 8, 24)
            assert est.upper_slope <= math.log2(3) / 2 + 0.05

    def test_parameter_guards(self, ctx15):
        with pytest.raises(ValueError):
            growth_estimate(ctx15, 1, 4, 20)
        with pytest.raises(ValueError):
            growth_estimate(ctx15, 1, 10, 9)
        with pytest.raises(MemoryGuard):
            growth_estimate(ctx15, 1, 8, 60)


# ------------------------------------------------ mpf-operator reference
#
# The branching enumeration as it was written with mpf operators under
# workprec.  The library runs it on (mantissa, exponent) pairs, each result
# rounded once in the same order, so words and orbit values must come out
# bit for bit equal.

def _ref_apply_word(ctx, word, x):
    acc = ctx.power(len(word)) * x
    for n, ch in enumerate(word, start=1):
        if ch == "1":
            acc -= ctx.power(len(word) - n)
    return acc


def _ref_branching(ctx, x, k):
    with workprec(ctx.precision_bits):
        x = mpf(x)
        lo, hi = ctx.base.lo_w, ctx.base.hi_w
        frontier = [("", x)]
        for level in range(1, k + 1):
            nxt = []
            for w, v in frontier:
                child = ctx.beta * v
                if lo <= child <= hi:
                    nxt.append((w + "0", child))
                child -= 1
                if lo <= child <= hi:
                    nxt.append((w + "1", child))
            if level % pf._REFRESH_LEVELS == 0 and level < k:
                nxt = [(w, _ref_apply_word(ctx, w, x)) for w, _ in nxt]
            frontier = nxt
    return [(w, v._mpf_) for w, v in frontier]


@pytest.mark.parametrize("precision", [53, 96, 128, 200])
@pytest.mark.parametrize("tolerance", [0, None, "1e-30"])
def test_branching_is_bit_identical_to_mpf_operators(precision, tolerance, rng):
    # k = 40 refreshes at levels 16 and 32, k = 32 only at 16; the
    # endpoints and the core put orbit values on the window's ends
    words = 0
    for beta in ("1.7", "1.93"):
        ctx = BetaContext(beta, precision_bits=precision,
                          comparison_tolerance=tolerance)
        ub = ctx.one_over_beta_minus_one
        with workprec(precision):
            points = [mpf(0), ub, ctx.core_lo, ctx.core_hi]
            points += [ub * mpf(rng.random()) for _ in range(3)]
        for x in points:
            for k in (32, 40):
                ps = enumerate_prefixes_branching(ctx, x, k)
                got = [(w, ps.orbit_values[w]._mpf_) for w in ps.words]
                assert got == _ref_branching(ctx, x, k)
                words += len(got)
    assert words > 1000
