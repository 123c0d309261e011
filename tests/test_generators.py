"""Tests for the steering intervals, entry words and the two generators."""

import bisect
import functools
import itertools
import math
from fractions import Fraction

import pytest
from mpmath import frexp, mp, mpf, workprec
from mpmath.libmp import from_man_exp, mpf_add, mpf_pos, round_nearest

import betaprefix.generators as gn
import betaprefix.numeric as numeric
import betaprefix.records as records
from betaprefix import (BetaContext, CapExceeded, ContainmentViolation,
                        InvalidPoint, MemoryGuard, OutOfDomain, apply_word,
                        block_steering_interval, entry_word_m, entry_word_s3,
                        enumerate_prefixes_direct, golden_ratio, kappa_lower_bound,
                        lambda_threshold, omega_threshold,
                        pair_steering_interval,
                        run_generator_m, run_generator_s3,
                        smallest_root_above_one, polynomial_spec,
                        PolynomialFamily)
from betaprefix.errors import NoSteeringWord
from betaprefix.numeric import (apply_word_pair, from_pair, pair_product,
                                round_nearest_even, to_pair)


def _extend(extender, ctx, m, prefix_word, orbit):
    """One parent's extensions by a stage kernel, as (block, landing) with
    the landing an mpf."""
    stage, _, _ = extender(ctx, m)([(prefix_word, to_pair(orbit, ctx.precision_bits))])
    return [(w[len(prefix_word):], from_pair(v)) for w, v in stage]


extend_m = functools.partial(_extend, gn._block_extender)
extend_s3 = functools.partial(_extend, gn._pair_extender)


def _beta_below_omega(m, factor=0.7):
    """A base strictly inside (1, omega_m], a fixed fraction of the gap."""
    return 1 + factor * (float(omega_threshold(m)) - 1)


def _beta_below_lambda(m, factor=0.8):
    return 1 + factor * (float(lambda_threshold(m)) - 1)


def _assert_closed_forms(ctx, iv, n):
    """The ends of a steering interval that are n map steps from the core
    match the closed forms (-beta^(n+1)+beta+1)/(beta^2-1) and
    beta^(n+1)/(beta^2-1), evaluated 64 bits wider, within the rounding
    bound (n + 3)^2 * 2^-p * beta^(n+2) / (beta^2-1)^2.  That is a
    first-order bound, at 2^-p per rounding, on the error of the core value
    (which subtracting 1 from beta^2 amplifies by beta^2/(beta^2-1)), of the
    powers beta^j (j roundings each) and of the n subtractions."""
    with workprec(ctx.precision_bits + 64):
        b = ctx.beta
        denom = b * b - 1
        bn1 = b ** (n + 1)
        bound = (n + 3) ** 2 * mpf(2) ** -ctx.precision_bits * b * bn1 / denom ** 2
        assert abs(iv.lo - (-bn1 + b + 1) / denom) <= bound
        assert abs(iv.hi - bn1 / denom) <= bound


class TestBlockSteeringInterval:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_invariants(self, m):
        for factor, precision in itertools.product((0.3, 0.7, 1.0), (128, 200)):
            beta = omega_threshold(m) if factor == 1.0 else _beta_below_omega(m, factor)
            ctx = BetaContext(beta, precision_bits=precision)
            iv = block_steering_interval(ctx, m)
            assert 0 <= iv.lo < iv.pivot < iv.hi <= ctx.one_over_beta_minus_one
            # endpoints are the (2m+1)-fold map images of the core, in the
            # affine form beta^(2m+1) * v + offset of the block kernel
            n = 2 * m + 1
            with workprec(ctx.precision_bits):
                assert iv.lo == ctx.power(n) * ctx.core_lo + apply_word(ctx, "1" * n, 0)
            assert iv.hi == apply_word(ctx, "0" * n, ctx.core_hi)
            assert extend_m(ctx, m, "", iv.pivot)[-1] == ("1" * n, iv.lo)
            _assert_closed_forms(ctx, iv, 2 * m + 1)
            # the core two-cycle sits inside the interval
            assert iv.lo <= ctx.core_lo < ctx.core_hi <= iv.hi

    def test_out_of_domain(self):
        ctx = BetaContext("1.05")
        for _ in range(2):  # a failed validation is not cached
            with pytest.raises(OutOfDomain):
                block_steering_interval(ctx, 2)
            with pytest.raises(ValueError):
                block_steering_interval(ctx, 0)


@pytest.mark.parametrize("m", [1, 2])
def test_intervals_build_at_tolerance_zero(m):
    # with no tolerance to absorb rounding, the ends must be the map images
    # themselves, not values compared against them
    for factor in (0.026, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        beta = omega_threshold(m) if factor == 1.0 else _beta_below_omega(m, factor)
        ctx = BetaContext(beta, comparison_tolerance=0)
        iv = block_steering_interval(ctx, m)
        assert iv.window.lo_w == iv.lo and iv.window.hi_w == iv.hi
        pv = pair_steering_interval(ctx)
        assert pv.lo < pv.core_lo < pv.core_hi < pv.hi
        run = run_generator_m(ctx, m, (ctx.core_lo + ctx.core_hi) / 2, 1)
        assert len(run.stages[-1]) == 4 ** m


@pytest.mark.parametrize("build", [
    lambda ctx: block_steering_interval(ctx, 2),
    pair_steering_interval,
], ids=["block", "pair"])
def test_cached_interval_equals_fresh(build):
    beta = _beta_below_omega(2)
    ctx = BetaContext(beta)
    first = build(ctx)
    assert build(ctx) is first  # the second call reads the context's table
    assert first == build(BetaContext(beta))


@pytest.mark.parametrize("tolerance", [None, "1e-30"])
def test_interval_windows_are_context_windows(tolerance):
    ctx = BetaContext(_beta_below_omega(2), comparison_tolerance=tolerance)
    iv = block_steering_interval(ctx, 2)
    assert iv.window == ctx.window(iv.lo, iv.hi)
    pv = pair_steering_interval(ctx)
    assert pv.window == ctx.window(pv.lo, pv.hi)
    assert pv.core == ctx.window(pv.core_lo, pv.core_hi)


class TestPairSteeringInterval:
    def test_invariants(self):
        for beta, precision in itertools.product(("1.1", "1.3", "1.5", "1.6"),
                                                 (53, 128, 200)):
            ctx = BetaContext(beta, precision_bits=precision)
            iv = pair_steering_interval(ctx)
            assert 0 <= iv.lo <= iv.core_lo < iv.core_hi <= iv.hi
            assert iv.hi <= ctx.one_over_beta_minus_one
            assert iv.lo == apply_word(ctx, "1", ctx.core_lo)
            assert iv.hi == apply_word(ctx, "0", ctx.core_hi)
            _assert_closed_forms(ctx, iv, 1)

    @pytest.mark.parametrize("precision", [96, 128, 200])
    def test_rounded_golden_ratio_is_in_domain(self, precision):
        # golden_ratio(p) rounds below the golden ratio, so the exact sign of
        # beta^2 - beta - 1 admits it; the next value up is rejected
        g = golden_ratio(precision)
        iv = pair_steering_interval(BetaContext(g, precision))
        assert iv.lo <= iv.core_lo < iv.core_hi <= iv.hi
        above = mp.make_mpf(from_man_exp(g.man + 1, g.exp))
        with pytest.raises(OutOfDomain):
            pair_steering_interval(BetaContext(above, precision))

    def test_out_of_domain_at_golden_ratio(self):
        ctx = BetaContext("1.62")
        for _ in range(2):  # a failed validation is not cached
            with pytest.raises(OutOfDomain):
                pair_steering_interval(ctx)


def _brute_entry(ctx, lo, hi, x, max_depth=12):
    """Test-local breadth-first search for the minimal entry word:
    expands every admissible child and returns the lexicographically
    smallest word whose value lands in [lo, hi]."""
    with workprec(ctx.precision_bits):
        tol = ctx.comparison_tolerance
        ub = ctx.one_over_beta_minus_one
        frontier = [("", mpf(x))]
        for depth in range(max_depth + 1):
            hits = [w for w, v in frontier if lo - tol <= v <= hi + tol]
            if hits:
                return min(hits), depth
            nxt = []
            for w, v in frontier:
                for digit in (0, 1):
                    c = ctx.beta * v - digit
                    if -tol <= c <= ub + tol:
                        nxt.append((w + str(digit), c))
            frontier = nxt
        return None, None


class TestEntryWords:
    def test_core_points_need_no_steps(self):
        for m in (1, 2):
            ctx = BetaContext(_beta_below_omega(m))
            for x in (ctx.core_lo, ctx.core_hi):
                assert entry_word_m(ctx, m, x) == ("", 0)

    def test_below_interval_climbs_with_zeros(self):
        ctx = BetaContext(_beta_below_omega(1))
        iv = block_steering_interval(ctx, 1)
        with workprec(ctx.precision_bits):
            x = iv.lo * mpf("0.43")
            # oracle: the minimal number of doublings-by-beta to reach lo
            j = 0
            v = x
            while v < iv.lo - ctx.comparison_tolerance:
                v *= ctx.beta
                j += 1
        word, steps = entry_word_m(ctx, 1, x)
        assert (word, steps) == ("0" * j, j)
        assert ctx.window(iv.lo, iv.hi).contains(apply_word(ctx, word, x))

    def test_above_interval_has_descent_length(self):
        ctx = BetaContext(_beta_below_omega(1))
        iv = block_steering_interval(ctx, 1)
        with workprec(ctx.precision_bits):
            x = iv.hi + (ctx.one_over_beta_minus_one - iv.hi) * mpf("0.9")
            j = 0
            v = x
            while v > iv.hi + ctx.comparison_tolerance:
                v = ctx.beta * v - 1
                j += 1
        word, steps = entry_word_m(ctx, 1, x)
        assert steps == j == len(word)
        assert ctx.window(iv.lo, iv.hi).contains(apply_word(ctx, word, x))

    def test_matches_brute_bfs(self, rng):
        # shallow random cases across both modes and both sides
        checked = 0
        while checked < 20:
            m = rng.choice([1, 2])
            ctx = BetaContext(_beta_below_omega(m, rng.uniform(0.4, 1.0)))
            iv = block_steering_interval(ctx, m)
            ub = float(ctx.one_over_beta_minus_one)
            x = rng.uniform(0.2 * ub, 0.8 * ub)
            brute_word, brute_j = _brute_entry(ctx, iv.lo, iv.hi, x)
            if brute_word is None:
                continue
            word, steps = entry_word_m(ctx, m, x)
            assert steps == brute_j
            assert word == brute_word
            checked += 1

    def test_matches_brute_bfs_pair_mode(self, rng):
        checked = 0
        while checked < 12:
            m = rng.choice([1, 2, 3])
            ctx = BetaContext(_beta_below_lambda(m, rng.uniform(0.5, 1.0)))
            iv = pair_steering_interval(ctx)
            ub = float(ctx.one_over_beta_minus_one)
            x = rng.uniform(0.1 * ub, 0.9 * ub)
            brute_word, brute_j = _brute_entry(ctx, iv.lo, iv.hi, x)
            if brute_word is None:
                continue
            word, steps = entry_word_s3(ctx, m, x)
            assert (word, steps) == (brute_word, brute_j)
            checked += 1

    def test_rejects_non_interior_points(self):
        ctx = BetaContext(_beta_below_omega(1))
        with pytest.raises(InvalidPoint):
            entry_word_m(ctx, 1, 0)
        with pytest.raises(InvalidPoint):
            entry_word_m(ctx, 1, ctx.one_over_beta_minus_one)

    def test_long_climb_from_below_enters(self):
        # 1e-14 needs 675 steps at this base, past the guessed 64*(2m+3) =
        # 320 that once capped the climb; its computed length bounds it now
        ctx = BetaContext(_beta_below_omega(1))
        word, steps = entry_word_m(ctx, 1, mpf(10) ** -14)
        assert word == "0" * steps and steps == 675

    @pytest.mark.parametrize("m", [1, 2])
    def test_climb_length_matches_the_climb(self, rng, m):
        ctx = BetaContext(_beta_below_omega(m))
        window = block_steering_interval(ctx, m).window
        with workprec(ctx.precision_bits):
            ub = ctx.one_over_beta_minus_one
            points = [window.lo_w * mpf(10) ** -rng.uniform(0, 12) for _ in range(40)]
            points += [ub - (ub - window.hi_w) * mpf(10) ** -rng.uniform(0, 12)
                       for _ in range(40)]
            for x in points:
                run, _ = gn._climb(ctx, window, to_pair(x, 128), 10 ** 5)
                assert abs(len(run) - gn._climb_length(ctx, window, x)) <= 1

    def test_climb_length_near_one(self):
        # both logarithms are near 0 here: 1e-18 over 1e-20 is 100 steps
        with workprec(128):
            ctx = BetaContext(1 + mpf(10) ** -20)
            window = block_steering_interval(ctx, 1).window
            for k in (1, 7, 50):
                x = window.lo_w * (1 - k * mpf(10) ** -18)
                run, _ = gn._climb(ctx, window, to_pair(x, 128), 10 ** 5)
                assert 100 * k - 1 <= len(run) <= 100 * k + 1
                assert abs(len(run) - gn._climb_length(ctx, window, x)) <= 1

    def test_climb_past_its_computed_length_is_unreachable(self, monkeypatch):
        from betaprefix import Unreachable
        monkeypatch.setattr(gn, "_climb_length", lambda *args: 3)
        ctx = BetaContext(_beta_below_omega(1))
        with pytest.raises(Unreachable, match="past the computed 3"):
            entry_word_m(ctx, 1, mpf(10) ** -14)

    def test_entry_past_the_ceiling_is_cap_exceeded(self):
        ctx = BetaContext(omega_threshold(2), comparison_tolerance=0)
        with pytest.raises(CapExceeded, match="16553 digits"):
            entry_word_m(ctx, 2, mpf(10) ** -200)

    def test_spent_search_budget_is_cap_exceeded(self, monkeypatch):
        # the descent from above takes the lexicographic search, which once
        # fell back to the all-ones word when its budget ran out
        ctx = BetaContext(omega_threshold(2))
        assert entry_word_m(ctx, 2, "35.2367")[1] == 453
        monkeypatch.setattr(gn, "_ENTRY_DFS_BUDGET", 100)
        with pytest.raises(CapExceeded, match="budget of 100 nodes"):
            entry_word_m(ctx, 2, "35.2367")

    def test_out_of_domain_base(self):
        with pytest.raises(OutOfDomain):
            entry_word_s3(BetaContext("1.55"), 2, 1.0)  # above lambda_2


class TestExtendBlockM:
    def test_m1_ones_heavy_blocks(self):
        ctx = BetaContext(_beta_below_omega(1))
        iv = block_steering_interval(ctx, 1)
        exts = extend_m(ctx, 1, "", iv.pivot)  # pivot joins ones side
        assert [w for w, _ in exts] == ["011", "101", "110", "111"]

    def test_m1_zeros_heavy_blocks(self):
        ctx = BetaContext(_beta_below_omega(1))
        iv = block_steering_interval(ctx, 1)
        with workprec(ctx.precision_bits):
            orbit = (iv.lo + iv.pivot) / 2
        exts = extend_m(ctx, 1, "", orbit)
        assert [w for w, _ in exts] == ["000", "001", "010", "100"]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_counts_and_containment(self, m, rng):
        ctx = BetaContext(_beta_below_omega(m))
        iv = block_steering_interval(ctx, m)
        for _ in range(4):
            with workprec(ctx.precision_bits):
                orbit = iv.lo + mpf(rng.random()) * (iv.hi - iv.lo)
            exts = extend_m(ctx, m, "", orbit)
            assert len(exts) == 2 ** (2 * m)
            for w, v in exts:
                assert len(w) == 2 * m + 1
                assert ctx.window(iv.lo, iv.hi).contains(v)
                assert abs(apply_word(ctx, w, orbit) - v) < mpf(2) ** -90

    def test_extremal_block_at_threshold_root(self):
        # at the first-family root the zeros-then-ones block from the upper
        # endpoint lands exactly back on the endpoint (within root error)
        root = smallest_root_above_one(
            polynomial_spec(PolynomialFamily.OMEGA_1, 1), abs_tol=1e-9)
        assert abs(float(root) - float(omega_threshold(1))) < 1e-12
        ctx = BetaContext(root)
        iv = block_steering_interval(ctx, 1)
        with workprec(ctx.precision_bits):
            landing = apply_word(ctx, "011", iv.hi)
            gap = iv.hi - landing
            assert 0 <= gap < mpf(10) ** -8  # 10 * abs_tol

    def test_rejects_orbit_outside_interval(self):
        ctx = BetaContext(_beta_below_omega(1))
        iv = block_steering_interval(ctx, 1)
        with pytest.raises(InvalidPoint):
            extend_m(ctx, 1, "", iv.hi * mpf("1.2"))

    def test_containment_violation_past_threshold(self, monkeypatch):
        # push the validity gate past the true root; the landing check must
        # then catch the broken inequality loudly
        true_root = float(omega_threshold(1))
        monkeypatch.setattr(gn, "at_most_threshold",
                            lambda beta, sequence, m: beta <= true_root + 1e-3)
        ctx = BetaContext(true_root + 5e-4)
        iv = gn.block_steering_interval(ctx, 1)
        with pytest.raises(ContainmentViolation):
            extend_m(ctx, 1, "", iv.hi)


class TestExtendBlockS3:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_pair_shape(self, m, rng):
        ctx = BetaContext(_beta_below_lambda(m))
        iv = pair_steering_interval(ctx)
        for _ in range(6):
            with workprec(ctx.precision_bits):
                orbit = iv.lo + mpf(rng.random()) * (iv.hi - iv.lo)
            pair = extend_s3(ctx, m, "", orbit)
            assert len(pair) == 2
            (w0, v0), (w1, v1) = pair
            assert len(w0) == len(w1) == m + 2
            # words differ exactly at the branch position
            diffs = [i for i in range(m + 2) if w0[i] != w1[i]]
            assert diffs[0] == len(_forced_prefix(w0, w1))
            for w, v in pair:
                assert ctx.window(iv.lo, iv.hi).contains(v)
                assert abs(apply_word(ctx, w, orbit) - v) < mpf(2) ** -90

    def test_forced_steps_capped(self, rng):
        # from the far ends of the interval the forced run into the core
        # takes at most m+1 steps
        for m in (1, 2, 3):
            ctx = BetaContext(_beta_below_lambda(m))
            iv = pair_steering_interval(ctx)
            for orbit in (iv.lo, iv.hi):
                pair = extend_s3(ctx, m, "", orbit)
                for w, _ in pair:
                    forced = _forced_prefix(pair[0][0], pair[1][0])
                    assert len(forced) <= m + 1

    def test_core_orbit_branches_immediately(self):
        m = 2
        ctx = BetaContext(_beta_below_lambda(m))
        pair = extend_s3(ctx, m, "", ctx.core_lo)
        assert {w[0] for w, _ in pair} == {"0", "1"}

    def test_violation_past_threshold(self, monkeypatch):
        # past the lambda root the forced climb from the lower endpoint
        # needs more than m+1 steps, which must abort loudly
        m = 2
        true_root = float(lambda_threshold(m))
        monkeypatch.setattr(gn, "at_most_threshold",
                            lambda beta, sequence, mm: beta <= true_root + 0.02)
        ctx = BetaContext(true_root + 0.01)
        iv = gn.pair_steering_interval(ctx)
        with pytest.raises(ContainmentViolation):
            extend_s3(ctx, m, "", iv.lo)

    def test_out_of_domain_repeats(self):
        ctx = BetaContext("1.55")  # above lambda_2
        for _ in range(2):  # a failed pair-mode check is not cached
            with pytest.raises(OutOfDomain):
                extend_s3(ctx, 2, "", ctx.core_lo)

    def test_steering_guard_rejects_stranded_value(self):
        # a forced climb of m+1 steps that ends in the core's tolerance band
        # below core_lo leaves no steering steps, and branch digit 1 then
        # lands about beta * tol below the interval's lower end, past its
        # tolerance: with no way back the guard must say so
        for m in (1, 2, 3):
            ctx = BetaContext(lambda_threshold(m), comparison_tolerance="1e-6")
            with workprec(ctx.precision_bits):
                orbit = ((ctx.core_lo - mpf("0.95") * ctx.comparison_tolerance)
                         / ctx.power(m + 1))
            with pytest.raises(NoSteeringWord, match="no steering steps left"):
                extend_s3(ctx, m, "", orbit)
            assert (_outcome(extend_s3, ctx, m, "", orbit)
                    == _outcome(_ref_extend_s3, ctx, m, "", orbit))


def _scan_steer(ctx, lo, hi, value, length):
    """Reference steering search: the linear lexicographic scan over all
    2^length words, with offsets built the same way as the library's."""
    if length == 0:
        if ctx.window(lo, hi).contains(value):
            return "", value
        raise NoSteeringWord("stranded")
    scale = ctx.power(length)
    for bits in itertools.product("01", repeat=length):
        w = "".join(bits)
        with workprec(ctx.precision_bits):
            q = mpf(0)
            for n, ch in enumerate(w, start=1):
                if ch == "1":
                    q -= ctx.power(length - n)
        v = scale * value + q
        if ctx.window(lo, hi).contains(v):
            return w, v
    raise NoSteeringWord("no word")


def _exact_landing(ctx, value, word):
    """beta^len(word) * value rounded once, plus the word's offset, the sum
    left exact."""
    with workprec(ctx.precision_bits):
        base = ctx.power(len(word)) * value
    return mp.make_mpf(mpf_add(base._mpf_, apply_word(ctx, word, 0)._mpf_))


def _steer_values(ctx, lo, hi, length, rng):
    """Values spread over the base interval; values a few ulps around those
    that some word sends exactly onto a widened end; and values from which
    some word's exact landing lies within half an ulp outside a widened end,
    so that only the rounding of the sum puts it on that end.  The last
    kind needs an offset in a lower binade than the end: a sum finer than
    the end's ulp comes only from such an offset."""
    ub = ctx.one_over_beta_minus_one
    values = [ub * mpf(i) / 10 for i in range(11)]
    tol = ctx.comparison_tolerance
    scale = ctx.power(length)
    lo_w, hi_w = lo - tol, hi + tol
    for _ in range(3):
        w = "".join(rng.choice("01") for _ in range(length))
        q = apply_word(ctx, w, 0)
        for end in (lo_w, hi_w):
            v0 = (end - q) / scale
            ulp = mpf(2) ** (frexp(v0)[1] - ctx.precision_bits)
            values += [v0 + k * ulp for k in range(-2, 3)]
    words = ["".join(bits) for bits in itertools.product("01", repeat=length)]
    for end in (lo_w, hi_w):
        finer = [w for w in words
                 if 0 < abs(apply_word(ctx, w, 0)) < 2 ** (frexp(end)[1] - 1)]
        for w in rng.sample(finer, min(4, len(finer))):
            v0 = (end - apply_word(ctx, w, 0)) / scale
            ulp = mpf(2) ** (frexp(v0)[1] - ctx.precision_bits)
            for k in range(-6, 7):
                v = v0 + k * ulp
                exact = _exact_landing(ctx, v, w)
                if not lo_w <= exact <= hi_w and mpf(exact) == end:
                    values.append(v)
    return values


def _steer(ctx, target, value, length):
    """The stage loop's steering step from the pair ``value`` into the
    window ``target``, for a length of at least 1: :func:`gn._steer_run`
    between the rounding thresholds of the window's widened ends
    (:func:`gn._least_rounding_to`), at a scale where every landing
    ``beta^length * value`` (rounded once) plus an offset is exact.  Returns
    the word and its landing rounded once, or raises NoSteeringWord."""
    prec = ctx.precision_bits
    bd, be = pair_product(ctx.int_powers(length)[length], value, prec)
    c = min(be, gn._steering_table(ctx, length)[1])
    offsets, order, by_word = gn._pair_steering(ctx, length, c)
    (ld, le), (hd, he) = target.ends
    base = bd << (be - c)
    k = gn._steer_run(offsets, order, gn._least_rounding_to((ld, le), prec, c),
                      -gn._least_rounding_to((-hd, he), prec, c), base)
    if k is None:
        raise NoSteeringWord("no word")
    return gn._all_words(length)[k], round_nearest_even(base + by_word[k], c, prec)


def _steer_against_scan(ctx, lo, hi, rng):
    """Compare :func:`_steer` with the linear scan into [lo, hi] for every
    length from 1 to 7 from ``_steer_values``; returns how many chosen
    landings sat on a widened end, and how many of those only rounding put
    there (exact landing below ``lo_w``, above ``hi_w``)."""
    window = ctx.window(lo, hi)
    seen = {"on_end": 0, "moved_lo": 0, "moved_hi": 0}
    with workprec(ctx.precision_bits):
        for length in range(1, 8):
            for value in _steer_values(ctx, lo, hi, length, rng):
                pair = to_pair(value, ctx.precision_bits)
                try:
                    want = _scan_steer(ctx, lo, hi, value, length)
                except NoSteeringWord:
                    with pytest.raises(NoSteeringWord):
                        _steer(ctx, window, pair, length)
                    continue
                got = _steer(ctx, window, pair, length)
                assert got[0] == want[0] and from_pair(got[1]) == want[1]
                if want[1] in (window.lo_w, window.hi_w):
                    seen["on_end"] += 1
                    exact = _exact_landing(ctx, value, want[0])
                    seen["moved_lo"] += exact < window.lo_w
                    seen["moved_hi"] += exact > window.hi_w
    return seen


@pytest.mark.parametrize("precision", [96, 128, 200])
@pytest.mark.parametrize("beta", ["1.2", "1.45", "lambda:2", "lambda:3",
                                  "lambda:4", "lambda:5"])
def test_steer_bisection_matches_linear_scan(beta, precision, rng):
    if beta.startswith("lambda:"):
        beta = lambda_threshold(int(beta[7:]))
    on_end = 0
    for tolerance in (0, None):
        ctx = BetaContext(beta, precision_bits=precision,
                          comparison_tolerance=tolerance)
        iv = pair_steering_interval(ctx)
        on_end += _steer_against_scan(ctx, iv.lo, iv.hi, rng)["on_end"]
    assert on_end > 0  # some landings sat exactly on a widened end


@pytest.mark.parametrize("precision", [53, 96, 128, 200])
def test_steer_rounding_onto_widened_ends(precision, rng):
    # At beta = 1.1 the pair interval [4.24, 5.76] lies in one binade above
    # the offsets -1, -beta, ..., so sums round.  On a one-point window at
    # either end of it, a word that only rounding lands on a widened end is
    # the only word that lands, so the search must widen its run from
    # either side to find it.  (On the whole interval such a word is seldom
    # the lexicographically smallest of its run.)
    for tolerance in (0, None):
        ctx = BetaContext("1.1", precision_bits=precision,
                          comparison_tolerance=tolerance)
        iv = pair_steering_interval(ctx)
        _steer_against_scan(ctx, iv.lo, iv.hi, rng)  # rounding sums, whole interval
        moved_lo = moved_hi = 0
        for end in (iv.lo, iv.hi):
            seen = _steer_against_scan(ctx, end, end, rng)
            moved_lo += seen["moved_lo"]
            moved_hi += seen["moved_hi"]
        assert moved_lo > 0 and moved_hi > 0


def _exact(pair):
    """The pair (d, e) as an exact Fraction."""
    d, e = pair
    return Fraction(d) * Fraction(2) ** e


def _rounded(value, precision):
    """The Fraction ``value``, whose denominator is a power of two, rounded
    by libmp to nearest (ties to even) at ``precision`` bits, exactly."""
    k = value.denominator.bit_length() - 1
    sign, man, exp, _ = mpf_pos(from_man_exp(value.numerator, -k), precision,
                                round_nearest)
    return _exact((-man if sign else man, exp))


@pytest.mark.parametrize("precision", [53, 128])
def test_rounding_thresholds_are_least_and_greatest(precision):
    # ends that are powers of two or have odd or even full-width mantissas,
    # of either sign, and 0, at scales where the midpoints next to them are
    # ints (so that a tie decides) and where they are not
    full = [((1 << precision) - 1, -precision), ((1 << precision) - 2, -precision),
            ((1 << (precision - 1)) + 1, 3 - precision)]
    ends = [(0, 0), (1, 0), (1, -3), (-1, 5), (3, -2), (-5, 7), (7, 1)]
    ends += full + [(-d, e) for d, e in full]
    for x in ends:
        target = _exact(x)
        ulp = x[1] + abs(x[0]).bit_length() - precision
        for c in range(ulp - 5, ulp + 3):
            low = gn._least_rounding_to(x, precision, c)
            high = -gn._least_rounding_to((-x[0], x[1]), precision, c)
            at = lambda y: _rounded(Fraction(y) * Fraction(2) ** c, precision)
            assert at(low) >= target > at(low - 1)
            assert at(high) <= target < at(high + 1)


def _tie_values(ctx, end, lower, length):
    """Points v from which some word's exact landing, beta^length * v
    rounded once plus the word's offset, is the midpoint between the
    widened end ``end`` (a pair) and the representable value next to it
    outside the window: an exact tie, which rounding settles.  Returns the
    points and whether the tie rounds onto the end."""
    prec = ctx.precision_bits
    d, e = end
    k = prec - abs(d).bit_length()
    man, ulp = abs(d) << k, e - k
    gap = ulp - 1 if lower and d > 0 and man == 1 << (prec - 1) else ulp
    mid = _exact(end) + (-1 if lower else 1) * Fraction(2) ** (gap - 1)
    scale = ctx.int_powers(length)[length]
    points = []
    for w in ("".join(bits) for bits in itertools.product("01", repeat=length)):
        base = mid - _exact(apply_word_pair(ctx, w, (0, 0)))
        if base <= 0 or _rounded(base, prec) != base:
            continue  # no product rounded at the precision is base
        with workprec(prec):
            v0 = mpf(base.numerator) / base.denominator / from_pair(scale)
            ulp_v = mpf(2) ** (frexp(v0)[1] - prec)
            for j in range(-3, 4):
                v = to_pair(v0 + j * ulp_v, prec)
                if _exact(pair_product(scale, v, prec)) == base:
                    points.append(from_pair(v))
    return points, _rounded(mid, prec) == _exact(end)


@pytest.mark.parametrize("precision", [53, 128])
def test_steer_thresholds_settle_ties_at_either_end(precision, rng):
    # At beta = 1.1 the offsets reach below -4, so landings near the ends
    # below are sums that round, and some are exact midpoints next to an
    # end.  The ends are powers of two, or have even or odd mantissas; a
    # tie rounds onto an end exactly when its mantissa is even.  The search
    # must agree with the linear scan on each window and on one-point
    # windows at its ends, from points with ties and from points around it.
    ctx = BetaContext("1.1", precision_bits=precision, comparison_tolerance=0)
    with workprec(precision):
        even = (mpf("4.5"), mpf("5.5"))
        odd = tuple(x + mpf(2) ** (frexp(x)[1] - precision) for x in even)
        windows = [(mpf(4), mpf(8)), even, odd, (mpf(4), odd[1]), (odd[0], mpf(8))]
    ties = dict.fromkeys(itertools.product((True, False), repeat=2), 0)
    for lo, hi in windows:
        window = ctx.window(lo, hi)
        for length in range(1, 7):
            points = _steer_values(ctx, lo, hi, length, rng)[11:]
            for lower, end in ((True, window.ends[0]), (False, window.ends[1])):
                tied, onto = _tie_values(ctx, end, lower, length)
                ties[lower, onto] += len(tied)
                points += tied
            for a, b in ((lo, hi), (lo, lo), (hi, hi)):
                target = ctx.window(a, b)
                for value in points:
                    pair = to_pair(value, precision)
                    try:
                        with workprec(precision):
                            want = _scan_steer(ctx, a, b, value, length)
                    except NoSteeringWord:
                        with pytest.raises(NoSteeringWord):
                            _steer(ctx, target, pair, length)
                        continue
                    got = _steer(ctx, target, pair, length)
                    assert got[0] == want[0] and from_pair(got[1]) == want[1]
    assert all(ties.values()), ties  # ties onto and off each kind of end


def _forced_prefix(w0, w1):
    out = []
    for a, b in zip(w0, w1):
        if a != b:
            break
        out.append(a)
    return "".join(out)


class TestGeneratorRuns:
    def test_zero_blocks_is_entry_only(self):
        ctx = BetaContext(_beta_below_omega(1))
        run = run_generator_m(ctx, 1, 1.0, 0)
        assert run.num_blocks == 0
        assert len(run.stages[0]) == 1

    def test_zero_blocks_build_no_block_tables(self):
        # a fresh base: any table built for it would be a cache miss
        ctx = BetaContext(_beta_below_omega(3, 0.4321))
        before = gn._block_words.cache_info().misses
        run = run_generator_m(ctx, 3, 1.0, 0)
        assert run.num_blocks == 0
        assert gn._block_words.cache_info().misses == before

    @pytest.mark.parametrize("mode", [gn.MODE_MAJORITY, gn.MODE_STEERED_PAIR])
    def test_stages_make_no_mpf_round_trip(self, monkeypatch, mode):
        # stages carry pairs from the kernel to the printed line: the
        # conversions between pairs and mpf do not grow with the stages
        calls = {"from_pair": 0, "to_pair": 0, "to_raw": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for module in (numeric, gn, records):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        if mode == gn.MODE_MAJORITY:
            ctx, run_fn, blocks = BetaContext(omega_threshold(1)), run_generator_m, (3, 5)
        else:
            ctx, run_fn, blocks = BetaContext(lambda_threshold(2)), run_generator_s3, (4, 8)
        counts = []
        for n in (1, *blocks):  # the first run builds the tables
            before = dict(calls)
            run = run_fn(ctx, 1 if mode == gn.MODE_MAJORITY else 2, 1.0, n)
            records.to_jsonl(records.generator_run_records(run, ctx.beta, 128))
            counts.append({k: calls[k] - before[k] for k in calls})
        assert counts[1] == counts[2]
        assert sum(counts[1].values()) <= 10

    def test_pair_stages_make_no_pair_comparisons(self, monkeypatch):
        # the steered-pair stage loop compares ints at its run scale and
        # rounds inline: neither count grows with the stages
        calls = {"compare_pairs": 0, "round_nearest_even": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for module in (numeric, gn):
            for name in calls:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        ctx = BetaContext(lambda_threshold(4))
        counts = []
        # the first run builds the tables, the second leaves its entry in
        # the prefix memo of apply_word_pair for the others
        for n in (8, 8, 6, 8):
            before = dict(calls)
            run_generator_s3(ctx, 4, 1.0, n)
            counts.append({k: calls[k] - before[k] for k in calls})
        assert counts[2] == counts[3]

    def test_majority_counts(self):
        ctx = BetaContext(_beta_below_omega(1))
        run = run_generator_m(ctx, 1, 1.0, 2)
        assert [len(s) for s in run.stages] == [1, 4, 16]
        ctx2 = BetaContext(_beta_below_omega(2))
        run2 = run_generator_m(ctx2, 2, 1.0, 1)
        assert [len(s) for s in run2.stages] == [1, 16]
        assert len(run2.stage_words(1)[0]) == run2.entry_steps + 5

    def test_pair_counts(self):
        ctx = BetaContext("1.3")
        run = run_generator_s3(ctx, 1, 1.0, 3)
        assert [len(s) for s in run.stages] == [1, 2, 4, 8]
        assert len(run.stage_words(3)[0]) == run.entry_steps + 3 * 3

    def test_pair_run_independent_containment(self):
        ctx = BetaContext("1.46")
        iv = pair_steering_interval(ctx)
        run = run_generator_s3(ctx, 2, 1.0, 2)
        assert len(run.stages[2]) == 4
        with workprec(ctx.precision_bits):
            for w in run.stage_words(2):
                val = apply_word(ctx, w, mpf(1))
                assert ctx.window(iv.lo, iv.hi).contains(val)

    def test_stage_lengths_and_lex_order(self):
        ctx = BetaContext(_beta_below_omega(2))
        run = run_generator_m(ctx, 2, 1.0, 2)
        for s, stage in enumerate(run.stages):
            words = [w for w, _ in stage]
            assert words == sorted(words)
            assert all(len(w) == run.entry_steps + s * run.block_length
                       for w in words)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_stages_strictly_increasing(self, m):
        # stages are built in order, not sorted; at most 2^12 words each
        runs = (run_generator_m(BetaContext(_beta_below_omega(m)), m, 1.0,
                                min(3, 6 // m)),
                run_generator_s3(BetaContext(_beta_below_lambda(m)), m, 1.0, 3))
        for run in runs:
            for stage in run.stages:
                words = [w for w, _ in stage]
                assert all(a < b for a, b in zip(words, words[1:]))

    def test_bridge_property_exact(self):
        ctx = BetaContext(_beta_below_omega(1))
        run = run_generator_m(ctx, 1, 1.0, 3)
        m = 1
        for s_from in range(run.num_blocks):
            for s_to in range(s_from + 1, run.num_blocks + 1):
                expected = 2 ** (2 * m * (s_to - s_from))
                for w in run.stage_words(s_from):
                    assert run.descendant_count(s_from, w, s_to) == expected

    def test_bridge_property_pair_mode(self):
        ctx = BetaContext("1.4")
        run = run_generator_s3(ctx, 2, 0.9, 3)
        for s_from in range(run.num_blocks):
            for w in run.stage_words(s_from):
                for s_to in range(s_from + 1, run.num_blocks + 1):
                    assert run.descendant_count(s_from, w, s_to) == 2 ** (s_to - s_from)

    def test_stage_floor_and_ceiling_counts(self):
        # stage sizes sit between the guaranteed floor 2^(2m(s-1)) and the
        # per-word ceiling 2^(2m((k-l)/(2m+1)+2))
        m = 2
        ctx = BetaContext(_beta_below_omega(m))
        run = run_generator_m(ctx, m, 1.0, 2)
        j = run.entry_steps
        for s, stage in enumerate(run.stages):
            k = j + s * run.block_length
            if k >= j:
                assert len(stage) >= 2 ** (2 * m * ((k - j) / (2 * m + 1) - 1))
        for s_from in (0, 1):
            for w in run.stage_words(s_from):
                l = len(w)
                for s_to in range(s_from, run.num_blocks + 1):
                    k = j + s_to * run.block_length
                    cap = 2 ** (2 * m * ((k - l) / (2 * m + 1) + 2))
                    assert run.descendant_count(s_from, w, s_to) <= cap

    def test_generated_words_are_true_prefixes(self, rng):
        # subset check against the independent direct enumeration; the run
        # also witnesses the 2^(2m s) lower bound on the full prefix count
        ctx = BetaContext(_beta_below_omega(1))
        iv = block_steering_interval(ctx, 1)
        with workprec(ctx.precision_bits):
            x = iv.lo + mpf("0.37") * (iv.hi - iv.lo)  # entry length 0
        run = run_generator_m(ctx, 1, x, 2)
        k = len(run.stage_words(2)[0])
        assert k <= 16
        direct = enumerate_prefixes_direct(ctx, x, k)
        assert set(run.stage_words(2)) <= set(direct.words)
        assert direct.count >= 2 ** (2 * 1 * 2)

    def test_memory_guard(self):
        ctx = BetaContext(_beta_below_omega(3))
        with pytest.raises(MemoryGuard):
            run_generator_m(ctx, 3, 1.0, 5, survivor_cap=1000)

    def test_run_rejects_negative_blocks(self):
        ctx = BetaContext(_beta_below_omega(1))
        with pytest.raises(ValueError):
            run_generator_m(ctx, 1, 1.0, -1)

    def test_runs_are_deterministic(self):
        ctx1 = BetaContext(_beta_below_omega(2))
        ctx2 = BetaContext(_beta_below_omega(2))
        a = run_generator_m(ctx1, 2, 1.1, 2)
        b = run_generator_m(ctx2, 2, 1.1, 2)
        assert a.entry_word == b.entry_word
        for sa, sb in zip(a.stages, b.stages):
            assert [w for w, _ in sa] == [w for w, _ in sb]
            assert all(va == vb for (_, va), (_, vb) in zip(sa, sb))


def test_tolerance_zero_block_from_the_pivot():
    # the block 1^(2m+1) from the pivot defines the interval's lower end, and
    # with no tolerance it must land on that end, not one ulp below it
    ctx = BetaContext(1.0255415177762208, comparison_tolerance=0)
    iv = block_steering_interval(ctx, 2)
    run = run_generator_m(ctx, 2, ctx.core_lo, 1)
    assert len(run.stages[1]) == 16
    assert run.stage_values(1)[-1] == ("11111", iv.lo)
    assert from_pair(run.extremes[1][0]) == iv.lo


# ------------------------------------------------ mpf-operator reference
#
# The orbit loops as they were written with mpf operators under workprec.
# The library runs them on (mantissa, exponent) pairs, each result rounded
# once in the same order, so every value, word and error must come out bit
# for bit equal.

def _ref_climb(ctx, window, v, cap):
    up = v < window.lo_w
    digits = ""
    while v < window.lo_w if up else v > window.hi_w:
        if len(digits) == cap:
            return None
        v = ctx.beta * v if up else ctx.beta * v - 1
        digits += "0" if up else "1"
    return digits, v


def _ref_extend_m(ctx, m, prefix_word, orbit):
    iv = block_steering_interval(ctx, m)
    with workprec(ctx.precision_bits):
        orbit = mpf(orbit)
        if not iv.window.contains(orbit):
            raise InvalidPoint(
                f"orbit {orbit} outside steering interval [{iv.lo}, {iv.hi}]")
        length = 2 * m + 1
        heavy = "1" if orbit >= iv.pivot else "0"
        scale = ctx.power(length)
        out = []
        for block in gn._majority_words(length, heavy):
            v = scale * orbit + apply_word(ctx, block, 0)
            if not iv.window.contains(v):
                raise ContainmentViolation(
                    f"block {block} (after {prefix_word!r}) leaves the steering "
                    f"interval: value {v} not in [{iv.lo}, {iv.hi}] at beta={ctx.beta}")
            out.append((block, v))
        return out


def _ref_steer(ctx, target, value, length):
    if length == 0:
        if target.contains(value):
            return "", value
        raise NoSteeringWord(
            f"value {value} not in steering interval and no steering steps left")
    words = ("".join(bits) for bits in itertools.product("01", repeat=length))
    table = sorted((apply_word(ctx, w, 0), w) for w in words)
    offsets, words = [q for q, _ in table], [w for _, w in table]
    base = ctx.power(length) * value
    landing = lambda q: base + q
    first = bisect.bisect_left(offsets, target.lo_w, key=landing)
    end = bisect.bisect_right(offsets, target.hi_w, lo=first, key=landing)
    if first == end:
        raise NoSteeringWord(
            f"no word of length {length} steers {value} back into "
            f"[{target.lo}, {target.hi}] at beta={ctx.beta}")
    k = min(range(first, end), key=words.__getitem__)
    return words[k], base + offsets[k]


def _ref_extend_s3(ctx, m, prefix_word, orbit):
    gn._require_pair_mode(ctx, m)
    iv = pair_steering_interval(ctx)
    with workprec(ctx.precision_bits):
        orbit = mpf(orbit)
        if not iv.window.contains(orbit):
            raise InvalidPoint(
                f"orbit {orbit} outside steering interval [{iv.lo}, {iv.hi}]")
        climbed = _ref_climb(ctx, iv.core, orbit, m + 1)
        if climbed is None:
            raise ContainmentViolation(
                f"forced {'climb' if orbit < iv.core.lo_w else 'descent'} into "
                f"the core took more than m+1={m + 1} steps at beta={ctx.beta}")
        forced, v = climbed
        steer_len = m + 1 - len(forced)
        out = []
        for digit in ("0", "1"):
            vb = ctx.beta * v - int(digit)
            if not ctx.base.contains(vb):
                raise ContainmentViolation(
                    f"branch digit {digit} leaves the admissible interval from "
                    f"core value {v} at beta={ctx.beta}")
            steer, vf = _ref_steer(ctx, iv.window, vb, steer_len)
            out.append((forced + digit + steer, vf))
        return tuple(out)


def _ref_stages(ctx, mode, m, x, num_blocks):
    """Stages and per-stage (min, max) from the library's entry word."""
    entry_fn, extend = ((entry_word_m, _ref_extend_m) if mode == gn.MODE_MAJORITY
                        else (entry_word_s3, _ref_extend_s3))
    entry, _ = entry_fn(ctx, m, x)
    with workprec(ctx.precision_bits):
        stages = [((entry, apply_word(ctx, entry, mpf(x))),)]
        for _ in range(num_blocks):
            stages.append(tuple((w + b, nv) for w, v in stages[-1]
                                for b, nv in extend(ctx, m, w, v)))
    extremes = [(min(v for _, v in st), max(v for _, v in st)) for st in stages]
    return stages, extremes


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ContainmentViolation, InvalidPoint, NoSteeringWord, OutOfDomain) as exc:
        return type(exc), str(exc)


def _bits(result):
    """Words and raw values, so that equal means bit-identical."""
    if isinstance(result, tuple) and result and isinstance(result[0], type):
        return result  # an error
    return [(w, v._mpf_) for w, v in result]


_BIT_PRECISIONS = [53, 96, 128, 200]
_BIT_TOLERANCES = [0, None, "1e-30"]


@pytest.mark.parametrize("precision", _BIT_PRECISIONS)
@pytest.mark.parametrize("tolerance", _BIT_TOLERANCES)
def test_raw_loops_are_bit_identical_to_mpf_operators(precision, tolerance, rng):
    # mid-range bases and bases just below the thresholds (floats, so every
    # precision holds them exactly)
    cases = [(gn.MODE_MAJORITY, m, _beta_below_omega(m, f)) for m in (1, 2)
             for f in (0.5, 0.9999)]
    cases += [(gn.MODE_STEERED_PAIR, m, _beta_below_lambda(m, f)) for m in (1, 2, 3, 4, 5)
              for f in (0.5, 0.9999)]
    errors = 0
    for mode, m, beta in cases:
        ctx = BetaContext(beta, precision_bits=precision,
                          comparison_tolerance=tolerance)
        if mode == gn.MODE_MAJORITY:
            iv, pair = block_steering_interval(ctx, m), (extend_m, _ref_extend_m)
            marks = (iv.lo, iv.pivot, iv.hi)
        else:
            iv, pair = pair_steering_interval(ctx), (extend_s3, _ref_extend_s3)
            marks = (iv.lo, iv.core_lo, iv.core_hi, iv.hi)
        with workprec(precision):
            orbits = [*marks, iv.hi * mpf("1.01")]
            orbits += [iv.lo + mpf(rng.random()) * (iv.hi - iv.lo) for _ in range(6)]
        for orbit in orbits:
            got, want = (_bits(_outcome(fn, ctx, m, "01", orbit)) for fn in pair)
            assert got == want
            errors += isinstance(got, tuple)
        # the forced climb on its own, from both sides of the core
        window = ctx.window(ctx.core_lo, ctx.core_hi)
        for orbit in orbits:
            for cap in (1, 3):
                got = gn._climb(ctx, window, to_pair(orbit, precision), cap)
                with workprec(precision):
                    want = _ref_climb(ctx, window, orbit, cap)
                assert ((got and (got[0], from_pair(got[1])._mpf_))
                        == (want and (want[0], want[1]._mpf_)))
        # whole runs, extremes included
        run_fn = run_generator_m if mode == gn.MODE_MAJORITY else run_generator_s3
        blocks = {gn.MODE_MAJORITY: 3 - m, gn.MODE_STEERED_PAIR: 4}[mode]
        for x in (1.0, ctx.core_lo, ctx.one_over_beta_minus_one * mpf("0.93")):
            got = _outcome(run_fn, ctx, m, x, blocks)
            want = _outcome(_ref_stages, ctx, mode, m, x, blocks)
            if isinstance(want, tuple) and isinstance(want[0], type):
                assert got == want
                errors += 1
                continue
            stages, extremes = want
            assert ([_bits(got.stage_values(s)) for s in range(len(got.stages))]
                    == [_bits(st) for st in stages])
            assert ([(from_pair(lo)._mpf_, from_pair(hi)._mpf_) for lo, hi in got.extremes]
                    == [(lo._mpf_, hi._mpf_) for lo, hi in extremes])
    assert errors > 0  # the error paths were compared too


@pytest.mark.parametrize("precision", [53, 128])
def test_violations_are_those_of_mpf_operators(precision, monkeypatch, rng):
    # past the thresholds blocks escape; the same block, value and message
    # must be reported, and the same forced runs must overrun
    monkeypatch.setattr(gn, "at_most_threshold", lambda beta, sequence, m: True)
    violations = 0
    for mode, m, beta in [(gn.MODE_MAJORITY, 1, float(omega_threshold(1)) + 3e-3),
                          (gn.MODE_MAJORITY, 2, float(omega_threshold(2)) + 2e-3),
                          (gn.MODE_STEERED_PAIR, 2, float(lambda_threshold(2)) + 1e-2)]:
        ctx = BetaContext(beta, precision_bits=precision)
        if mode == gn.MODE_MAJORITY:
            iv, pair = block_steering_interval(ctx, m), (extend_m, _ref_extend_m)
        else:
            iv, pair = pair_steering_interval(ctx), (extend_s3, _ref_extend_s3)
        with workprec(precision):
            orbits = [iv.lo, iv.hi]
            orbits += [iv.lo + mpf(rng.random()) * (iv.hi - iv.lo) for _ in range(8)]
        for orbit in orbits:
            got, want = (_bits(_outcome(fn, ctx, m, "10", orbit)) for fn in pair)
            assert got == want
            violations += got[0] is ContainmentViolation
    assert violations > 0


@pytest.mark.parametrize("precision", [53, 128])
@pytest.mark.parametrize("widen", ["lo", "core_lo"])
def test_tolerance_past_the_pair_intervals_lower_end(precision, widen, rng):
    # A tolerance above the pair interval's lower end puts the window's
    # lower end below 0, and one above core_lo the core's too; branch digit
    # 1 can then cancel to a tiny value and orbits can be 0 or negative.
    # Runs and single extensions must give the results and errors of the
    # mpf operators.  The run starts a few ulps above the tolerance (the
    # least start allowed) and about 1/beta press on the run scale's bound
    # (gn._pair_scale): a parent finer than the scale would break bit
    # identity.
    outcomes = set()
    for m in (2, 5):
        for f in (0.5, 0.9999):
            beta = _beta_below_lambda(m, f)
            exact = pair_steering_interval(
                BetaContext(beta, precision_bits=precision, comparison_tolerance=0))
            with workprec(precision):
                tolerance = getattr(exact, widen) * mpf("1.1")
            ctx = BetaContext(beta, precision_bits=precision,
                              comparison_tolerance=tolerance)
            iv = pair_steering_interval(ctx)
            assert iv.window.lo_w < 0
            with workprec(precision):
                orbits = [iv.lo, iv.core_lo, iv.core_hi, iv.hi, iv.window.lo_w, mpf(0)]
                orbits += [iv.lo + mpf(rng.random()) * (iv.hi - iv.lo) for _ in range(6)]
                # from about 1/beta, branch digit 1 cancels to a few ulps of 1
                inv = 1 / ctx.beta
                near_inv = [inv + k * mpf(2) ** (frexp(inv)[1] - precision)
                            for k in range(-3, 4)]
                orbits += near_inv
                tol = ctx.comparison_tolerance
                starts = [tol + k * mpf(2) ** (frexp(tol)[1] - precision)
                          for k in range(1, 4)]
            for orbit in orbits:
                got, want = (_bits(_outcome(fn, ctx, m, "01", orbit))
                             for fn in (extend_s3, _ref_extend_s3))
                assert got == want
                outcomes.add(got[0] if isinstance(got, tuple) else "ok")
            for x in (1.0, ctx.core_lo, ctx.one_over_beta_minus_one * mpf("0.93"),
                      *starts, *near_inv):
                got = _outcome(run_generator_s3, ctx, m, x, 4)
                want = _outcome(_ref_stages, ctx, gn.MODE_STEERED_PAIR, m, x, 4)
                if isinstance(want, tuple) and isinstance(want[0], type):
                    assert got == want
                    continue
                stages, extremes = want
                assert ([_bits(got.stage_values(s)) for s in range(len(got.stages))]
                        == [_bits(st) for st in stages])
                assert ([(from_pair(lo)._mpf_, from_pair(hi)._mpf_)
                         for lo, hi in got.extremes]
                        == [(lo._mpf_, hi._mpf_) for lo, hi in extremes])
    # the zero, tiny and negative orbits were extended or refused alike
    assert {"ok", ContainmentViolation, NoSteeringWord} <= outcomes


# ------------------------------------------------------- shared tables

class TestSharedTables:
    """Each per-base table is a ``functools.lru_cache`` keyed on the context,
    and contexts are values: equal ones share every table."""

    _CACHES = ("block_steering_interval", "pair_steering_interval",
               "_require_pair_mode", "_block_words", "_steering_table",
               "_pair_scale", "_pair_steering")

    def test_equal_keys_share_tables(self):
        a, b = BetaContext("1.02"), BetaContext("1.02")
        assert a is not b and a == b
        assert block_steering_interval(a, 2) is block_steering_interval(b, 2)
        assert gn._steering_table(a, 3) is gn._steering_table(b, 3)
        assert gn._block_words(a, 5, "1") is gn._block_words(b, 5, "1")

    @pytest.mark.parametrize("other", [
        {"precision_bits": 96}, {"comparison_tolerance": "1e-30"},
        {"comparison_tolerance": 0}])
    def test_other_precision_or_tolerance_does_not(self, other):
        beta = _beta_below_omega(2)
        a, b = BetaContext(beta), BetaContext(beta, **other)
        assert a != b
        assert block_steering_interval(a, 2) is not block_steering_interval(b, 2)

    def test_failed_validation_is_not_stored(self):
        contexts = [BetaContext("1.55") for _ in range(2)]  # above omega_2, lambda_2
        for fn in (block_steering_interval, gn._require_pair_mode):
            before = fn.cache_info()
            for ctx in contexts:  # the second call raises again
                with pytest.raises(OutOfDomain):
                    fn(ctx, 2)
            after = fn.cache_info()
            assert after.misses == before.misses + 2
            assert after.currsize == before.currsize

    def test_store_is_bounded(self):
        cap = gn._TABLE_CACHE_SIZE
        for name in self._CACHES:
            assert getattr(gn, name).cache_info().maxsize == cap
        contexts = [BetaContext(1 + i / 997) for i in range(1, 2 * cap + 2)]
        first = [pair_steering_interval(ctx) for ctx in contexts]
        assert pair_steering_interval.cache_info().currsize == cap
        # the most recently used bases are kept, the oldest dropped
        assert pair_steering_interval(BetaContext(contexts[-1].beta)) is first[-1]
        assert pair_steering_interval(BetaContext(contexts[0].beta)) is not first[0]

    def test_other_bases_leave_a_generator_base_in_place(self):
        # contexts that never run a generator enter no table cache, so 40 of
        # them (a burst of bounds requests, say) evict nothing
        beta = _beta_below_omega(1)
        run_generator_m(BetaContext(beta), 1, 7.0, 1)
        kept = (block_steering_interval(BetaContext(beta), 1),
                gn._block_words(BetaContext(beta), 3, "1"))
        for i in range(40):
            kappa_lower_bound(BetaContext(1.2 + i / 400))
        assert block_steering_interval(BetaContext(beta), 1) is kept[0]
        assert gn._block_words(BetaContext(beta), 3, "1") is kept[1]
