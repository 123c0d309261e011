"""Round-trip tests for the serialization formats."""

import json
import math

import pytest
from mpmath import mp, mpf, workprec
from mpmath.libmp import to_str

from betaprefix import (BetaContext, bound_report, enumerate_prefixes_direct,
                        growth_estimate, lambda_threshold, omega_threshold,
                        run_generator_m, run_generator_s3)
from betaprefix.numeric import from_pair
from betaprefix.records import (bound_report_records, generator_run_records,
                                growth_records, parse_prefix_set_records,
                                parse_real, prefix_set_records, real_repr,
                                to_jsonl)


def _nstr_reference(value, precision_bits):
    """The formula ``real_repr`` replaced: ``mp.nstr`` of ``mpf(value)``
    under ``workprec``."""
    digits = math.ceil(precision_bits * math.log10(2)) + 2
    with workprec(precision_bits):
        return mp.nstr(mpf(value), digits, strip_zeros=True)


def _random_mpf(rng, bits):
    """A signed mpf with a full ``bits``-bit mantissa, of magnitude between
    2^-300 and 2^300."""
    man = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    with workprec(bits):
        v = mpf((man, rng.randint(-300, 300) - bits))
    return -v if rng.random() < 0.5 else v


class TestRealRepr:
    def test_round_trip_at_128_bits(self, rng):
        with workprec(128):
            for _ in range(50):
                v = mpf(rng.random()) * mpf(rng.randint(1, 5))
                text = real_repr(v, 128)
                assert parse_real(text, 128) == v

    @pytest.mark.parametrize("bits", [53, 96, 128, 200])
    def test_matches_nstr_under_workprec(self, rng, bits):
        texts = []
        for _ in range(300):
            v = _random_mpf(rng, bits)
            texts.append(real_repr(v, bits))
            assert texts[-1] == _nstr_reference(v, bits)
        # both printing forms were exercised, with both exponent signs
        assert any("e-" in t for t in texts) and any("e+" in t for t in texts)
        assert any("e" not in t for t in texts)

    @pytest.mark.parametrize("value", [
        0, mpf(0), mpf(-1), mpf("-0.75"), mpf(2) ** -20, mpf("9.9e-6"),
        mpf("1.2e-5"), mpf(10) ** 40, mpf("1.5e40"), -mpf(3) ** 90,
        mpf(2) ** 300])
    def test_edge_values(self, value):
        for bits in (53, 128):
            assert real_repr(value, bits) == _nstr_reference(value, bits)

    def test_rounds_wider_mpfs_to_the_precision(self, rng):
        rounded_away = 0
        for _ in range(200):
            v = _random_mpf(rng, 256)
            assert real_repr(v, 128) == _nstr_reference(v, 128)
            rounded_away += real_repr(v, 128) != real_repr(v, 256)
        assert rounded_away > 150

    @pytest.mark.parametrize("value", [
        7, -3, 2 ** 200 + 1, 10 ** 45, 0.1, -2.5e-7, 1e300, 5e-324,
        "0.1", "1e-30", "-12345.678e50", "1.4655712309346923925041481699668739"])
    def test_str_int_and_float_inputs(self, value):
        for bits in (53, 96, 128):
            assert real_repr(value, bits) == _nstr_reference(value, bits)


def _to_str_reference(value, bits):
    """``libmp.to_str`` of the value rounded to ``bits``, at ``real_repr``'s
    digit count."""
    digits = math.ceil(bits * math.log10(2)) + 2
    with workprec(bits):
        return to_str(mpf(value)._mpf_, digits, strip_zeros=True)


# Values just below 10^k whose first dps decimal digits are all 9 and the
# next one at least 5, so that printing carries into the next power of ten:
# (bits, mantissa, binary exponent, k), found by scanning the few values
# below 10^k for |k| <= 1050.  At these precisions such values are rare
# (none for 200 bits in that range).
_CARRY_VALUES = [
    (53, 5374300886053671, 456, 153),
    (96, 15883831155095840238899676941, -3399, -995),
    (96, 53575430359313366047421252453, -999, -272),
    (128, 205935843856895663747728439408907576983, -1858, -521),
    (128, 62359851618708732087445779109278077409, 1170, 390),
    (128, 91029370228147774707845092605023868197, 2661, 839),
]


class TestPrinter:
    """``real_repr``'s own digit conversion against ``libmp.to_str``."""

    @pytest.mark.parametrize("bits", [53, 96, 128, 200])
    def test_random_values(self, rng, bits):
        for _ in range(2000):
            v = _random_mpf(rng, bits)
            assert real_repr(v, bits) == _to_str_reference(v, bits)
        # near unit magnitude, where the fixed-point form is used
        for _ in range(2000):
            man = rng.getrandbits(bits) | 1 << (bits - 1)
            with workprec(bits):
                v = mpf((man, rng.randint(-25, 25) - bits)) * rng.choice((1, -1))
            assert real_repr(v, bits) == _to_str_reference(v, bits)

    @pytest.mark.parametrize("value", [
        0, mpf(0), -1, mpf("-0.375"), mpf("-1e-300"), -mpf(2) ** 90, mpf(1),
        mpf("0.1"), mpf("9.5e-6"), mpf("1e-5"), mpf(10) ** 39, mpf(10) ** 40])
    def test_zero_and_negative_values(self, value):
        for bits in (53, 96, 128, 200):
            assert real_repr(value, bits) == _to_str_reference(value, bits)
            assert real_repr(-mpf(value), bits) == _to_str_reference(-mpf(value), bits)

    @pytest.mark.parametrize("bits, man, exp, k", _CARRY_VALUES)
    def test_values_that_round_up_to_the_next_power_of_ten(self, bits, man, exp, k):
        with workprec(bits):
            v = mpf((man, exp))
            values = (v, -v)
        with workprec(bits + 4000):
            assert v < mpf(10) ** k
        for value in values:
            text = real_repr(value, bits)
            assert text == _to_str_reference(value, bits)
            assert text.lstrip("-") == f"1.0e{k:+d}"

    @pytest.mark.parametrize("bits", [53, 128, 200, 820, 1000])
    def test_extreme_exponents(self, rng, bits):
        # binary exponents around 3500, where to_str first scales by a power
        # of ten, far beyond it, and precisions of 247 digits or more
        for e in (3490, 3499, 3500, 3501, 3510, 10 ** 5, 10 ** 7):
            for sign in (1, -1):
                for scale in (e, -e):
                    man = sign * (rng.getrandbits(bits) | 1 << (bits - 1) | 1)
                    with workprec(bits):
                        v = mpf((man, scale - bits))  # exact: the mantissa fits
                    assert real_repr(v, bits) == _to_str_reference(v, bits)
        for special in (mp.inf, -mp.inf, mp.nan):
            assert real_repr(special, bits) == _to_str_reference(special, bits)


class TestPairPrinter:
    """A ``numeric`` pair prints as the mpf it stands for."""

    @pytest.mark.parametrize("bits", [53, 128, 200, 900])
    def test_pairs_print_as_their_mpf(self, rng, bits):
        pairs = [(0, 0), (0, -40), (0, 5)]
        for _ in range(300):
            d = rng.getrandbits(bits) | 1 << (bits - 1)
            e = rng.randint(-60, 20) - bits
            pairs += [(d, e), (-d, e),
                      (d << 9, e - 9), (-d << 3, e - 3),  # trailing zeros
                      (d >> rng.randint(1, bits - 1), e)]  # short mantissas
        for _ in range(40):  # wider than the precision: rounded first
            d = rng.getrandbits(bits + 40) | 1 << (bits + 39)
            pairs += [(d, -bits - 40), (-d, 5 - bits)]
        for scale in (3490, 3499, 3500, 3501, 3510, 10 ** 5):  # |exp + bc| > 3500
            d = rng.getrandbits(bits) | 1 << (bits - 1)
            pairs += [(d, scale - bits), (-d, -scale - bits), (d << 4, scale - bits - 4)]
        for pair in pairs:
            assert real_repr(pair, bits) == real_repr(from_pair(pair), bits), pair

    def test_stage_values_print_as_their_mpf(self):
        ctx = BetaContext(lambda_threshold(3))
        run = run_generator_s3(ctx, 3, 0.7, 6)
        recs = generator_run_records(run, ctx.beta, 128)
        texts = [r["orbit_value"] for r in recs if r["kind"] == "stage_word"]
        want = [real_repr(v, 128) for s in range(len(run.stages))
                for _, v in run.stage_values(s)]
        assert texts == want and len(texts) == 127
        stages = [r for r in recs if r["kind"] == "stage"]
        assert ([(r["orbit_min"], r["orbit_max"]) for r in stages]
                == [(real_repr(from_pair(lo), 128), real_repr(from_pair(hi), 128))
                    for lo, hi in run.extremes])


def _json_dumps_lines(recs):
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in recs)


@pytest.mark.parametrize("run_of", [
    lambda: (BetaContext(1 + 0.7 * (float(omega_threshold(1)) - 1)), 1, 1.0, 3,
             run_generator_m),
    lambda: (BetaContext(lambda_threshold(2)), 2, 0.9, 5, run_generator_s3),
], ids=["majority", "steered-pair"])
def test_to_jsonl_equals_json_dumps(run_of):
    ctx, m, x, blocks, run_fn = run_of()
    recs = generator_run_records(run_fn(ctx, m, x, blocks), ctx.beta, 128)
    assert sum(r["kind"] == "stage_word" for r in recs) > 30
    assert to_jsonl(recs) == _json_dumps_lines(recs)


@pytest.mark.parametrize("bits", [53, 200])
def test_stage_printer_lines_equal_json_dumps(bits):
    # the batch printer and the stage_word template at other precisions
    ctx = BetaContext(1 + 0.5 * (float(omega_threshold(2)) - 1), bits)
    recs = generator_run_records(run_generator_m(ctx, 2, 0.8, 2), ctx.beta, bits)
    assert sum(r["kind"] == "stage_word" for r in recs) == 1 + 16 + 256
    assert to_jsonl(recs) == _json_dumps_lines(recs)


class TestPrefixSetFormats:
    def test_records_round_trip(self, ctx15):
        ps = enumerate_prefixes_direct(ctx15, 1, 8)
        lines = to_jsonl(prefix_set_records(ps, 128)).splitlines()
        back = parse_prefix_set_records(lines, 128)
        assert back.k == ps.k
        assert back.words == ps.words
        for w in ps.words:
            assert back.orbit_values[w] == ps.orbit_values[w]

    def test_records_parse_detects_inconsistency(self, ctx15):
        ps = enumerate_prefixes_direct(ctx15, 1, 6)
        recs = prefix_set_records(ps, 128)
        recs[-1]["count"] += 1
        with pytest.raises(ValueError):
            parse_prefix_set_records(recs, 128)


class TestOtherRecords:
    def test_generator_run_records(self):
        beta = 1 + 0.7 * (float(omega_threshold(1)) - 1)
        ctx = BetaContext(beta)
        run = run_generator_m(ctx, 1, 1.0, 2)
        recs = generator_run_records(run, ctx.beta, 128)
        kinds = [r["kind"] for r in recs]
        assert kinds.count("generator_run") == 1
        assert kinds.count("stage") == 3
        stage_counts = [r["count"] for r in recs if r["kind"] == "stage"]
        assert stage_counts == [1, 4, 16]
        words = [r for r in recs if r["kind"] == "stage_word"]
        assert len(words) == 21
        # records serialize to one JSON object per line
        for line in to_jsonl(recs).splitlines():
            json.loads(line)

    def test_bound_report_records(self, ctx15):
        rep = bound_report(ctx15, m_max=8)
        recs = bound_report_records(rep, 128)
        head = recs[0]
        assert head["kind"] == "bound_report"
        assert head["kappa"] == pytest.approx(0.125)

    def test_growth_records(self, ctx15):
        est = growth_estimate(ctx15, 1.0, 8, 14)
        recs = growth_records(est)
        assert recs[-1]["kind"] == "growth_summary"
        assert len(recs) == len(est.k_values) + 1
