"""Tests for the scalar core: context, maps, polynomials and roots."""

import ast
import dataclasses
import hashlib
import itertools
import math
import pathlib
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import frexp, mp, mpf, workprec
from mpmath.libmp import from_man_exp, mpf_add, mpf_mul, mpf_sub, round_nearest

import betaprefix
import betaprefix.numeric as numeric
from betaprefix import (BetaContext, NoRootFound, PolynomialFamily,
                        apply_word, evaluate_polynomial,
                        golden_ratio, lambda_threshold, omega_threshold,
                        polynomial_spec, polynomial_string,
                        smallest_root_above_one)
from betaprefix.numeric import (ROOT_SEARCH_COUNTS, PolynomialSpec,
                                _exact_sign, _float_value, _sign_right_of_one,
                                _sparse, certified_sign, compare_pairs,
                                descartes_bound_above_one, from_pair, map_pair,
                                pair_sum, round_nearest_even, to_pair)

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

    def test_equal_keys_compare_equal_and_hash_alike(self):
        # the key is (beta, precision, tolerance) as the context holds them
        a = BetaContext("1.3")
        b = BetaContext(a.beta, 128, mpf(2) ** -64)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        for other in (BetaContext("1.3", 96), BetaContext("1.3", comparison_tolerance=0),
                      BetaContext("1.31")):
            assert a != other
        assert a != "1.3"
        assert repr(a) == ("BetaContext(beta=1.3, precision_bits=128, "
                           "comparison_tolerance=5.421e-20)")

    def test_core_two_cycle(self, rng):
        # T0 sends the lower core endpoint to the upper and T1 sends it back
        for _ in range(25):
            ctx = BetaContext(rng.uniform(1.01, 1.99))
            tol = ctx.comparison_tolerance
            assert abs(apply_word(ctx, "0", ctx.core_lo) - ctx.core_hi) <= tol
            assert abs(apply_word(ctx, "1", ctx.core_hi) - ctx.core_lo) <= tol


def _around(end, precision):
    """``end`` and its neighbours one ``precision``-bit ulp either side."""
    ulp = mpf(2) ** ((frexp(end)[1] if end else 0) - precision)
    with workprec(precision + 8):
        return end - ulp, end, end + ulp


class TestWindow:
    @pytest.mark.parametrize("precision", [53, 128, 200])
    @pytest.mark.parametrize("tolerance", [0, None, "1e-30"])
    def test_contains_is_the_widened_comparison(self, precision, tolerance):
        ctx = BetaContext("1.3", precision_bits=precision,
                          comparison_tolerance=tolerance)
        tol = ctx.comparison_tolerance
        with workprec(precision):
            intervals = [(0, ctx.one_over_beta_minus_one),
                         (ctx.core_lo, ctx.core_hi),
                         (mpf("0.1"), mpf("0.7")), (0.25, 2)]
        for lo, hi in intervals:
            win = ctx.window(lo, hi)
            with workprec(precision):
                ends = (lo - tol, hi + tol)
            assert (win.lo, win.hi, win.lo_w, win.hi_w) == (lo, hi, *ends)
            with workprec(precision // 3):  # ambient below the context's
                assert ctx.window(lo, hi) == win
            for x in (*_around(ends[0], precision), *_around(ends[1], precision)):
                with workprec(precision):
                    want = lo - tol <= x <= hi + tol
                assert win.contains(x) == want
            assert win.contains(ends[0]) and win.contains(ends[1])

    @pytest.mark.parametrize("precision", [53, 128])
    @pytest.mark.parametrize("tolerance", [0, None])
    def test_contains_pair_is_contains(self, precision, tolerance):
        # one ulp either side of each widened end, 0 and values 2^-10^6
        # away from it, each also with a mantissa carrying trailing zeros
        ctx = BetaContext("1.3", precision_bits=precision,
                          comparison_tolerance=tolerance)
        tiny = mpf(2) ** -10 ** 6
        for win in (ctx.window(ctx.core_lo, ctx.core_hi), ctx.base):
            for x in (*_around(win.lo_w, precision), *_around(win.hi_w, precision),
                      mpf(0), tiny, -tiny):
                d, e = to_pair(x, precision + 8)
                for pair in ((d, e), (d << 7, e - 7)):
                    assert win.contains_pair(pair) == win.contains(x)

    @pytest.mark.parametrize("tolerance", [0, None])
    def test_base_is_the_admissible_window(self, tolerance):
        ctx = BetaContext("1.7", comparison_tolerance=tolerance)
        assert ctx.base == ctx.window(0, ctx.one_over_beta_minus_one)


class TestMaps:
    def test_zero_fixed_point(self, ctx15):
        assert apply_word(ctx15, "0", 0) == 0

    def test_one_digit_at_one(self, ctx15):
        assert float(apply_word(ctx15, "1", 1)) == pytest.approx(0.5)

    def test_bad_digit(self, ctx15):
        with pytest.raises(ValueError):
            apply_word(ctx15, "2", 0.5)

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
        stepped = apply_word(ctx, "0", apply_word(ctx, "1", x))
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
                v = apply_word(ctx, "01"[b], v)
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
                    v = apply_word(ctx, "01"[b], v)
                assert abs(apply_word(ctx, word, x) - v) < mpf(2) ** -64


_PRECISIONS = [53, 96, 128, 200]


def _signed(raw):
    sign, man, exp, _ = raw
    return (-man if sign else man), exp


def _helper_sum(a, b, prec, subtract=False):
    """a + b (or a - b) exactly on integers, then rounded by the helper."""
    (da, ea), (db, eb) = _signed(a), _signed(b)
    db = -db if subtract else db
    e = min(ea, eb)
    return from_man_exp(*round_nearest_even((da << (ea - e)) + (db << (eb - e)), e, prec))


def _operand(rng, prec, exp):
    """A raw value with a full ``prec``-bit mantissa of either sign at 2^exp."""
    man = rng.getrandbits(prec) | 1 << (prec - 1)
    return from_man_exp(-man if rng.random() < 0.5 else man, exp)


class TestRoundNearestEven:
    @pytest.mark.parametrize("prec", _PRECISIONS)
    def test_equals_mpf_add_and_sub_on_random_operands(self, rng, prec):
        for _ in range(2000):
            a = _operand(rng, rng.randint(1, prec), rng.randint(-400, 400))
            # exponent gaps up to twice the precision, both ways
            b = _operand(rng, rng.randint(1, prec), a[2] + rng.randint(-2 * prec, 2 * prec))
            assert _helper_sum(a, b, prec) == mpf_add(a, b, prec, round_nearest)
            assert _helper_sum(a, b, prec, True) == mpf_sub(a, b, prec, round_nearest)
            (da, ea), (db, eb) = _signed(a), _signed(b)
            got = from_man_exp(*round_nearest_even(da * db, ea + eb, prec))
            assert got == mpf_mul(a, b, prec, round_nearest)

    @pytest.mark.parametrize("prec", _PRECISIONS)
    def test_half_ulp_ties_round_to_even(self, rng, prec):
        evens = odds = 0
        for _ in range(400):
            man = rng.getrandbits(prec) | 1 << (prec - 1)
            a = from_man_exp(man, 1)  # ulp 2, so +-1 is exactly half an ulp
            for b in (from_man_exp(1, 0), from_man_exp(-1, 0)):
                got = _helper_sum(a, b, prec)
                assert got == mpf_add(a, b, prec, round_nearest)
                # 2 man +- 1 went to the neighbour with an even mantissa,
                # a multiple of 4
                assert got[2] >= 2
            evens += man % 2 == 0
            odds += man % 2 == 1
        assert evens and odds
        # the helper on a tie directly: 0b...x1 followed by exactly one half
        assert round_nearest_even(0b1011, 0, 3) == (0b110, 1)
        assert round_nearest_even(0b1001, 0, 3) == (0b100, 1)
        assert round_nearest_even(-0b1011, 0, 3) == (-0b110, 1)

    @pytest.mark.parametrize("prec", _PRECISIONS)
    def test_carry_into_the_next_binade(self, prec):
        top = from_man_exp((1 << prec) - 1, 0)  # all ones
        for b in ((1, -1), (3, -2), (1, 0), (-1, -1)):
            b = from_man_exp(*b)
            got = _helper_sum(top, b, prec)
            assert got == mpf_add(top, b, prec, round_nearest)
        assert _helper_sum(top, from_man_exp(1, -1), prec) == from_man_exp(1, prec)
        assert round_nearest_even((1 << (prec + 1)) - 1, 0, prec) == (1 << prec, 1)

    @pytest.mark.parametrize("prec", _PRECISIONS)
    def test_cancellation_to_zero(self, rng, prec):
        for _ in range(50):
            a = _operand(rng, prec, rng.randint(-300, 300))
            got = _helper_sum(a, a, prec, subtract=True)
            assert got == mpf_sub(a, a, prec, round_nearest) == from_man_exp(0, 0)
        assert round_nearest_even(0, -77, prec) == (0, -77)

    @pytest.mark.parametrize("prec", _PRECISIONS)
    def test_exponent_gaps_wider_than_the_precision(self, rng, prec):
        for gap in (prec + 1, prec + 2, prec + 5, 2 * prec + 3, 1000):
            for _ in range(40):
                a = _operand(rng, prec, 0)
                b = _operand(rng, rng.randint(1, prec), -gap)
                for x, y in ((a, b), (b, a)):
                    assert _helper_sum(x, y, prec) == mpf_add(x, y, prec, round_nearest)
                    assert (_helper_sum(x, y, prec, True)
                            == mpf_sub(x, y, prec, round_nearest))

    def test_exact_values_come_back_unchanged(self, rng):
        for prec in _PRECISIONS:
            d = rng.getrandbits(prec)
            assert round_nearest_even(d, -5, prec) == (d, -5)
            assert round_nearest_even(-d, 9, prec) == (-d, 9)


def _is_tie(z, prec):
    """Whether the integer z lies exactly half an ulp between two
    ``prec``-bit neighbours."""
    n = abs(z).bit_length() - prec
    return n > 0 and abs(z) % (1 << n) == 1 << (n - 1)


class TestMapPair:
    @pytest.mark.parametrize("prec", _PRECISIONS)
    def test_equals_operators_on_random_operands(self, rng, prec):
        for _ in range(40):
            ctx = BetaContext(rng.uniform(1.001, 1.999), prec)
            ub = ctx.one_over_beta_minus_one
            for _ in range(20):
                with workprec(prec):
                    v = ub * mpf(rng.random())
                for digit in (0, 1):
                    with workprec(prec):
                        want = ctx.beta * v - digit
                    got = map_pair(ctx, digit, to_pair(v, prec))
                    assert from_pair(got)._mpf_ == want._mpf_

    @pytest.mark.parametrize("prec", _PRECISIONS)
    def test_half_ulp_ties(self, rng, prec):
        # at beta = 1.5 the product 3 d 2^(e-1) of a full mantissa d carries
        # one or two bits past the precision, so about a third of the
        # products are ties; 1.5 v - 1 is a tie for v = k 2^-prec, k odd
        ctx = BetaContext("1.5", prec)
        operands = [(rng.getrandbits(prec) | 1 << (prec - 1), rng.randint(-prec - 6, 0))
                    for _ in range(300)]
        operands += [(2 * j + 1, -prec) for j in range(8)]
        ties = [0, 0]
        for d, e in operands:
            for digit in (0, 1):
                with workprec(prec):
                    want = ctx.beta * from_pair((d, e)) - digit
                assert from_pair(map_pair(ctx, digit, (d, e)))._mpf_ == want._mpf_
            ties[0] += _is_tie(3 * d, prec)
            pd, pe = round_nearest_even(3 * d, e - 1, prec)
            ties[1] += pe < 0 and _is_tie(pd - (1 << -pe), prec)
        assert ties[0] > 50 and ties[1] >= 8


class TestPairArithmetic:
    @pytest.mark.parametrize("prec", _PRECISIONS)
    def test_far_apart_operands(self, rng, prec):
        # gaps up to twice the precision, where the sum stops shifting the
        # smaller operand, and far past it; a short mantissa such as -1's
        # leaves room for a finer operand to count
        for gap in (prec, prec + 1, 2 * prec - 1, 2 * prec, 2 * prec + 1,
                    2 * prec + 2, 2 * prec + 3, 10 ** 6):
            for _ in range(40):
                a = _signed(_operand(rng, rng.choice([1, 2, prec]), 0))
                b = _signed(_operand(rng, rng.randint(1, prec), -gap))
                for x, y in ((a, b), (b, a), (a, (0, -gap)), ((0, 0), b)):
                    got = from_pair(pair_sum(x, y, prec))
                    with workprec(prec):
                        assert got == from_pair(x) + from_pair(y)
                    with workprec(2 * gap + 2 * prec):
                        exact = from_pair(x) - from_pair(y)
                    sign = compare_pairs(x, y)
                    assert (sign > 0) - (sign < 0) == (exact > 0) - (exact < 0)
        # the carry mantissa 2^prec, one bit longer than the precision
        top = round_nearest_even((1 << (prec + 1)) - 1, 0, prec)
        with workprec(prec):
            assert (from_pair(pair_sum(top, (-1, -2 * prec - 3), prec))
                    == from_pair(top) - from_pair((1, -2 * prec - 3)))


def test_no_module_uses_a_second_arithmetic():
    # every orbit loop runs on the pairs above; libmp's operations on raw
    # tuples are a second arithmetic with the same values, kept out
    banned = {"mpf_add", "mpf_sub", "mpf_mul", "mpf_cmp", "fone"}
    found = []
    for path in sorted(pathlib.Path(betaprefix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            found += [(path.name, name) for name in sorted(names & banned)]
    assert found == []


def _operator_apply_word(ctx, word, x):
    """``apply_word`` as mpf operators under ``workprec``: the product, then
    each subtraction in digit order, each rounded once."""
    k = len(word)
    with workprec(ctx.precision_bits):
        acc = ctx.power(k) * mpf(x)
        for n, ch in enumerate(word, start=1):
            if ch == "1":
                acc -= ctx.power(k - n)
        return acc


def _runs_word(rng, length):
    """A word of the given length made of runs, most of them of ones."""
    out = ""
    while len(out) < length:
        out += ("1" if rng.random() < 0.7 else "0") * rng.randint(1, 24)
    return out[:length]


@pytest.mark.parametrize("prec", _PRECISIONS)
def test_apply_word_is_bit_identical_to_mpf_operators(rng, prec):
    bases = ["1.0009", "1.2", "1.61", omega_threshold(1), lambda_threshold(3)]
    for beta in bases:
        ctx = BetaContext(beta, prec)
        ub = ctx.one_over_beta_minus_one
        with workprec(prec + 40):  # some points carry more bits than prec
            xs = [ub * mpf(rng.random()) for _ in range(12)]
        xs += [mpf(0), -ub / 3, ub, ctx.core_lo, "0.3", 1]
        for x in xs:
            for length in (0, 1, 2, 7, 31, 64, 80):
                for word in (_runs_word(rng, length), "1" * length):
                    got = apply_word(ctx, word, x)
                    assert got._mpf_ == _operator_apply_word(ctx, word, x)._mpf_


def _fresh_apply_word(ctx, word, x):
    """``apply_word`` with the context's prefix memo cleared first."""
    ctx._last_word = None
    return apply_word(ctx, word, x)


def _fresh_pair(ctx, word, v):
    ctx._last_word = None
    return numeric.apply_word_pair(ctx, word, v)


def _word_pool(rng, length, count):
    """Words of one length that share prefixes: random stems, each closed
    by every tail of its last few digits."""
    tail = min(length, 3)
    stems = [_runs_word(rng, length - tail) for _ in range(count)]
    return [stem + "".join(bits) for stem in stems
            for bits in itertools.product("01", repeat=tail)]


class TestWordMemo:
    """``apply_word_pair`` resumes from the prefix shared with its last call;
    every result must be the one a fresh call gives."""

    def test_interleaved_calls_are_fresh_calls(self, rng):
        contexts = [BetaContext("1.2", 128), BetaContext(lambda_threshold(3), 96)]
        runs = []  # runs of neighbouring words, which share prefixes
        for ctx in contexts:
            points = [ctx.core_lo, ctx.one_over_beta_minus_one * mpf("0.37")]
            for length in (9, 30):
                for x in points:
                    words = _word_pool(rng, length, 4)
                    runs += [[(ctx, w, x) for w in words[i:i + 3]]
                             for i in range(0, len(words), 3)]
        rng.shuffle(runs)
        calls = [call for run in runs for call in run]
        # calls that raise or leave the pairs, in between
        bad = [(contexts[0], "0120", calls[0][2]), (contexts[1], "01" * 5, mp.inf)]
        for i, call in zip((5, 40), bad):
            calls.insert(i, call)
        got = []
        for ctx, w, x in calls:
            try:
                got.append(apply_word(ctx, w, x)._mpf_)
            except ValueError:
                got.append(ValueError)
        assert got.count(ValueError) == 1
        for (ctx, w, x), value in zip(calls, got):
            if value is ValueError:
                with pytest.raises(ValueError):
                    _fresh_apply_word(ctx, w, x)
                continue
            assert value == _fresh_apply_word(ctx, w, x)._mpf_
            assert value == _operator_apply_word(ctx, w, x)._mpf_

    def test_pair_calls_that_raise_keep_the_memo(self):
        ctx = BetaContext("1.5", 128)
        v = to_pair(ctx.core_lo, 128)
        first = numeric.apply_word_pair(ctx, "0110", v)
        kept = ctx._last_word
        with pytest.raises(ValueError):
            numeric.apply_word_pair(ctx, "01a0", v)
        with pytest.raises(ValueError):
            to_pair(mp.inf, 128)
        assert ctx._last_word is kept
        assert numeric.apply_word_pair(ctx, "0111", v) == _fresh_pair(ctx, "0111", v)
        assert numeric.apply_word_pair(ctx, "0110", v) == first

    def test_lexicographic_sweep_rounds_each_prefix_once(self, monkeypatch):
        ctx = BetaContext("1.3", 128)
        v = to_pair(ctx.core_hi, 128)
        words = ["".join(b) for b in itertools.product("01", repeat=12)]
        want = [_fresh_pair(ctx, w, v) for w in words]
        subtractions = 0
        original = numeric.pair_sum

        def counting(a, b, prec):
            nonlocal subtractions
            subtractions += 1
            return original(a, b, prec)

        monkeypatch.setattr(numeric, "pair_sum", counting)
        ctx._last_word = None
        assert [numeric.apply_word_pair(ctx, w, v) for w in words] == want
        # fresh calls would round k 2^(k-1) subtractions, one per digit 1;
        # each word after the first differs from the one before in a 1
        # followed by 0s, so the sweep rounds one per word
        assert subtractions == 2 ** 12 - 1

    def test_two_threads(self):
        # one context, so both threads read and replace its one memo
        ctx = BetaContext("1.25", 128)
        jobs = []
        for x, length in ((ctx.core_lo, 10), (ctx.core_hi, 9)):
            v = to_pair(x, 128)
            words = ["".join(b) for b in itertools.product("01", repeat=length)]
            jobs.append((ctx, v, words, [_fresh_pair(ctx, w, v) for w in words]))
        mismatches = []

        def sweep(ctx, v, words, want):
            for _ in range(5):
                got = [numeric.apply_word_pair(ctx, w, v) for w in words]
                mismatches.extend(w for w, a, b in zip(words, got, want) if a != b)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside sweeps
        try:
            threads = [threading.Thread(target=sweep, args=job) for job in jobs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


class TestThresholdBand:
    """A base between a threshold's cached lower end and the threshold
    itself is decided by exact signs."""

    @pytest.mark.parametrize("sequence, threshold", [
        ("omega", omega_threshold), ("lambda", lambda_threshold)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sides_of_the_root(self, sequence, threshold, m):
        lower = threshold(m)
        with workprec(200):
            root = min(smallest_root_above_one(polynomial_spec(f, m), 1e-40, 200)
                       for f in numeric._FAMILIES[sequence])
            assert lower < root < lower + mpf(1e-9)
            inside = (lower + root) / 2
            outside = root + mpf(10) ** -35
        before = ROOT_SEARCH_COUNTS.threshold_signs
        assert numeric.at_most_threshold(lower, sequence, m)
        assert numeric.at_most_threshold(inside, sequence, m)
        assert numeric.at_most_threshold(root, sequence, m)
        assert not numeric.at_most_threshold(outside, sequence, m)
        assert ROOT_SEARCH_COUNTS.threshold_signs - before == 3
        with workprec(200):
            far = lower + mpf("3e-9")
        assert not numeric.at_most_threshold(far, sequence, m)
        assert ROOT_SEARCH_COUNTS.threshold_signs - before == 3

    def test_plastic_number(self):
        # lambda_1 is the root of x^3 - x - 1, 1.3247179572447460...; the
        # cached lower end is 1.32471795658929...
        beta = mpf("1.3247179569170202332")
        assert beta > lambda_threshold(1)
        assert numeric.at_most_threshold(beta, "lambda", 1)
        assert not numeric.at_most_threshold(mpf("1.3247179575"), "lambda", 1)


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

    @pytest.mark.parametrize("m", [1.5, True, 2.0])
    def test_rejects_m_that_is_not_an_int(self, m):
        with pytest.raises(ValueError, match="positive integer"):
            polynomial_spec(PolynomialFamily.OMEGA_1, m)

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
        before = ROOT_SEARCH_COUNTS.exact_signs
        for family in PolynomialFamily:
            for m in range(1, 65):
                spec = polynomial_spec(family, m)
                assert (smallest_root_above_one(spec)._mpf_
                        == _linear_scan_root(spec)._mpf_), (family, m)
        # every sign of the family searches was certified by its error bound
        assert ROOT_SEARCH_COUNTS.exact_signs == before

    def test_cancelling_evaluation_takes_the_exact_sign(self):
        # -(x - 1)(10^60 x - 10^60 - 1) has its root at 1 + 1e-60 and is
        # positive on (1, 1 + 1e-60); evaluations cancel some 120 digits
        a = 10 ** 60
        spec = PolynomialSpec(PolynomialFamily.OMEGA_3, 1,
                              ((2, -a), (1, 2 * a + 1), (0, -(a + 1))))
        before = ROOT_SEARCH_COUNTS.exact_signs
        root = smallest_root_above_one(spec, precision_bits=256)
        assert ROOT_SEARCH_COUNTS.exact_signs > before
        with workprec(256):
            assert 1 < root < 1 + mpf(10) ** -60
        assert _exact_sign(spec.coefficients, root) == 1
        # 160 bits cannot represent a value in (1, 1 + 1e-60]
        with pytest.raises(NoRootFound, match="cannot narrow"):
            smallest_root_above_one(spec)

    @pytest.mark.parametrize("precision", [53, 160, 256])
    def test_certified_sign_is_exact_near_a_root(self, precision, rng):
        # roots 1e-60 apart at 1, and roots 5e-31 apart at 1.5 times x^40,
        # whose terms are far larger than their coefficients
        a, b = 10 ** 60, 10 ** 30
        pairs = [(1, PolynomialSpec(PolynomialFamily.OMEGA_3, 1,
                                    ((2, -a), (1, 2 * a + 1), (0, -(a + 1))))),
                 (1.5, PolynomialSpec(PolynomialFamily.OMEGA_3, 1,
                                      ((42, 4 * b), (41, -(12 * b + 2)),
                                       (40, 9 * b + 3))))]
        for center, spec in pairs:
            with workprec(precision):
                for _ in range(200):
                    x = center + mpf(10) ** -rng.uniform(0, 80)
                    assert (certified_sign(spec.coefficients, x)
                            == _exact_sign(spec.coefficients, x))

    def test_exact_sign_matches_fractions(self, rng):
        for _ in range(200):
            coefficients = tuple(sorted(
                {rng.randint(0, 40): rng.randint(-10 ** 6, 10 ** 6)
                 for _ in range(4)}.items(), reverse=True))
            man = (rng.getrandbits(60) | 1) * rng.choice((1, 1, 1, -1))
            exp = rng.randint(-70, 4)
            x = mpf((man, exp))
            q = man * Fraction(2) ** exp
            value = sum(c * q ** e for e, c in coefficients)
            assert _exact_sign(coefficients, x) == (value > 0) - (value < 0)
        assert _exact_sign(polynomial_spec(PolynomialFamily.LAMBDA, 2).coefficients,
                           mpf(1)) == 0

    def test_root_at_one_is_divided_out(self):
        # -(x - 1)(2x - 3): two sign variations, less the root at 1
        spec = PolynomialSpec(PolynomialFamily.OMEGA_3, 1, ((2, -2), (1, 5), (0, -3)))
        assert descartes_bound_above_one(spec) == 1
        root = smallest_root_above_one(spec)
        assert root._mpf_ == _linear_scan_root(spec)._mpf_
        assert abs(root - 1.5) < 1e-9

    def test_two_roots_return_the_smaller(self):
        # 10x^2 - 27x + 18 = (2x - 3)(5x - 6) is positive at both grid ends;
        # the search takes only polynomials with at most one root above 1
        two = PolynomialSpec(PolynomialFamily.OMEGA_3, 1, ((2, 10), (1, -27), (0, 18)))
        assert descartes_bound_above_one(two) == 2
        with pytest.raises(ValueError, match="may have 2 roots above 1"):
            smallest_root_above_one(two)

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

    @pytest.mark.parametrize("m", [1.5, True, 2.0])
    def test_thresholds_reject_m_that_is_not_an_int(self, m):
        omega_threshold(1), lambda_threshold(1), omega_threshold(2)  # cached
        for threshold in (omega_threshold, lambda_threshold):
            with pytest.raises(ValueError, match="positive integer"):
                threshold(m)


def _float_tier(coefficients, x):
    """The float64 tier's verdict: the sign it certifies, or None."""
    value = _float_value(coefficients, x)
    if value is None or abs(value[0]) <= value[1]:
        return None
    return 1 if value[0] > 0 else -1


def _with_root(rng, degree, q_max, k=1):
    """(b x^k - a) q(x) with a random root r = (a/b)^(1/k) in (1, 2), r^k - 1
    log-uniform down to 1e-6, and a random q of the given degree with
    positive coefficients up to q_max, so that p has the sign of x - r for
    x > 0; returns (coefficients, root factor (a, b, k))."""
    b = rng.randint(2, 10 ** 6)
    ratio = 10 ** rng.uniform(-6, math.log10(2.0 ** min(k, 40) - 1))  # r^k - 1
    a = b + max(1, round(b * ratio))
    q = {degree: rng.randint(1, q_max), 0: rng.randint(1, q_max)}
    for _ in range(rng.randint(0, 6)):
        q[rng.randint(0, degree)] = rng.randint(1, q_max)
    terms = [(e + k, b * c) for e, c in q.items()] + [(e, -a * c) for e, c in q.items()]
    return _sparse(terms), (a, b, k)


def _root(factor):
    a, b, k = factor
    return (mpf(a) / b) ** (mpf(1) / k)


def _factor_sign(x, factor):
    """The exact sign of b x^k - a for an mpf x >= 0, in integers."""
    a, b, k = factor
    man, exp = x.man, x.exp
    lhs, rhs = b * man ** k, a
    if exp >= 0:
        lhs <<= k * exp
    else:
        rhs <<= -k * exp
    return (lhs > rhs) - (lhs < rhs)


class TestFloatTier:
    @pytest.mark.parametrize("degrees,steep", [((1, 300), False), ((1000, 1100), False),
                                               ((30000, 60003), False),
                                               ((1, 300), True), ((1000, 2000), True)])
    def test_tier_returns_the_exact_sign_or_declines(self, rng, degrees, steep):
        # points 1e-18..1e-3 from built-in roots, and x = 1 and 2.  A root
        # of b x^k - a with large k is steep: the error of the powers moves
        # the value by about k times their relative error.  At 1000..1100
        # near 2 the squarings underflow to subnormals.
        decided = declined = subnormal = 0
        with workprec(160):
            for _ in range(60):
                degree = rng.randint(*degrees)
                k = rng.randint(2, degree) if steep else 1
                q_max = rng.choice((10 ** 6, 2 ** 900))
                coefficients, factor = _with_root(rng, degree - k + 1, q_max, k)
                r = _root(factor)
                points = [mpf(1), mpf(2)]
                for _ in range(8):
                    d = r * mpf(10) ** -rng.uniform(3, 18)
                    points.append(r + d if rng.random() < 0.5 else r - d)
                for x in points:
                    sign = _float_tier(coefficients, x)
                    exact = _factor_sign(x, factor)
                    if degree <= 300:
                        assert _exact_sign(coefficients, x) == exact
                    assert sign in (None, exact), (coefficients, x)
                    decided += sign is not None
                    declined += sign is None
                    subnormal += 0 < float(x) ** -(degree + 1) < 2.0 ** -1022
        assert decided and declined
        assert subnormal or degrees != (1000, 1100)

    def test_coefficients_beyond_float_range_skip_the_tier(self):
        # (2^1100 + 1) x - 2^1100 - 2 has its root just above 1
        big = 2 ** 1100
        coefficients = ((1, big + 1), (0, -big - 2))
        with workprec(160):
            for x in (mpf(1), mpf("1.5"), mpf(2)):
                assert _float_value(coefficients, x) is None
                assert certified_sign(coefficients, x) == _exact_sign(coefficients, x)
        assert _float_value(((1, 2 ** 999), (0, -2 ** 999)), mpf(2)) is None  # sum |c| = 2^1000
        assert _float_value(((1, 1), (0, -1)), mpf("0.99")) is None  # x outside [1, 2]

    def test_bound_covers_the_derivation_and_the_error(self, rng):
        # the bound is never below twice the first-order derivation of
        # _float_value's docstring, in exact arithmetic, and the true error
        # stays within the derivation
        u = Fraction(1, 2 ** 53)
        with workprec(160):
            for _ in range(150):
                degree = rng.randint(1, 400)
                coefficients = _sparse(
                    (rng.randint(0, degree), rng.choice((-1, 1)) * rng.randint(1, 2 ** 62))
                    for _ in range(rng.randint(1, 6)))
                if not coefficients:
                    continue
                deg, t = coefficients[0][0], len(coefficients)
                x = rng.choice((mpf(1), mpf(2), 1 + mpf(rng.random())))
                y = 1 / (x.man * Fraction(2) ** x.exp)
                value, bound = _float_value(coefficients, x)
                terms = [abs(c) * y ** (deg - e) for e, c in coefficients]
                derived = u * sum(m * (4 * (deg - e) + t + 1)
                                  for m, (e, _) in zip(terms, coefficients))
                derived += (deg + 1) * sum(abs(c) for _, c in coefficients) / 2 ** 1075
                assert Fraction(bound) >= 2 * derived * (1 - Fraction(1, 2 ** 30))
                exact = sum(c * y ** (deg - e) for e, c in coefficients)
                assert abs(Fraction(value) - exact) <= derived

    def test_family_searches_decide_every_sign_in_float(self):
        before = dataclasses.replace(ROOT_SEARCH_COUNTS)
        for family in PolynomialFamily:
            for m in range(1, 65):
                smallest_root_above_one(polynomial_spec(family, m))
        assert ROOT_SEARCH_COUNTS.evaluations - before.evaluations == 7935
        assert ROOT_SEARCH_COUNTS.float_signs - before.float_signs == 7935
        assert ROOT_SEARCH_COUNTS.exact_signs == before.exact_signs

    def test_thresholds_are_pinned(self):
        # frozen from the search that took every sign at 160 bits
        digest = hashlib.sha256()
        for m in range(1, 65):
            digest.update(repr(omega_threshold(m)._mpf_).encode())
            digest.update(repr(lambda_threshold(m)._mpf_).encode())
        assert digest.hexdigest()[:16] == "c88cab6243a8f999"
        lam = (0, 7824332260647908074620349, -82, 83)
        assert omega_threshold(15000)._mpf_ == (0, 9671406561752736676107925, -83, 84)
        assert lambda_threshold(15000)._mpf_ == lam
        assert omega_threshold(10 ** 5)._mpf_ == (0, 309485009826180772003239573, -88, 89)
        assert lambda_threshold(10 ** 5)._mpf_ == lam
