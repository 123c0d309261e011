"""Serialization helpers: JSON-line records.

The records format is one JSON object per line with a ``kind`` field; the
field schemas are documented in the README.  Real numbers are emitted as
decimal strings with enough digits to round-trip at the producing context's
binary precision: :func:`real_repr` rounds the value once to that precision
and prints it in one pass with its own digit conversion, which gives the
string of mpmath's ``libmp.to_str`` (the formatter behind ``mp.nstr``) byte
for byte; the few values it does not handle itself (zero, infinities, NaN,
extreme exponents, precisions of 811 bits or more) go to ``to_str``.  It
takes an mpf or a ``numeric`` pair; a generator run's orbit values are
pairs, and each stage's are printed in one batch (:func:`_pair_reprs`), with
no conversion to mpf.  :func:`to_jsonl` writes each line as
``json.dumps(record, sort_keys=True)`` would; the ``stage_word`` lines,
nearly all of a generator run's output, come from one template with the
same key order and separators.
"""

from __future__ import annotations

import functools
import json
import math

from mpmath import mpf, workprec
from mpmath.libmp import from_man_exp, to_str

from .bounds import BoundReport
from .generators import GeneratorRun
from .numeric import DEFAULT_PRECISION_BITS, round_nearest_even, to_raw
from .prefixes import GrowthEstimate, PrefixSet


_LOG2_10 = math.log(10, 2)  # the constant of libmp.to_digits_exp
_NEXT_DIGIT = dict(zip("012345678", "123456789"))


@functools.lru_cache(maxsize=64)
def _print_constants(precision_bits: int) -> tuple:
    """(dps, bitprec, min_fixed) of ``to_str`` for ``real_repr``'s digit
    count at ``precision_bits``."""
    dps = math.ceil(precision_bits * math.log10(2)) + 2
    return dps, int((dps + 3) * _LOG2_10) + 10, min(-(dps // 3), -5)


@functools.lru_cache(maxsize=None)
def _pow10(n: int) -> int:
    """10^n; ``real_repr`` asks for n below about 1300 only, as its binary
    exponents stay within 3500."""
    return 10 ** n


def real_repr(value, precision_bits: int = DEFAULT_PRECISION_BITS) -> str:
    """Decimal string with enough digits to round-trip the binary value.

    The value is rounded to nearest at ``precision_bits`` (an mpf or a
    ``numeric`` pair (d, e) that already fits is unchanged; a str, int or
    float is converted as ``mpf(value)`` at that precision) and printed
    with ``dps = ceil(precision_bits * log10(2)) + 2`` significant digits,
    trailing zeros stripped: the string ``libmp.to_str`` gives, which is the
    one ``mp.nstr`` gives for ``mpf(value)`` under
    ``workprec(precision_bits)``.  A pair prints as the mpf d * 2^e does.
    See :func:`_pair_reprs` for the printer.
    """
    if type(value) is not tuple:
        raw = to_raw(value, precision_bits)
        sign, man, exp, _ = raw
        if not man and exp:  # an infinity or NaN, which no pair holds
            return to_str(raw, _print_constants(precision_bits)[0], strip_zeros=True)
        value = (-man if sign else man), exp
    return _pair_reprs((value,), precision_bits)[0]


def _pair_reprs(pairs, precision_bits: int) -> list:
    """:func:`real_repr` of each pair (d, e) of an iterable, with the
    per-call constants looked up once and those of each binary magnitude
    once per call.

    A pair with more than ``precision_bits`` bits is rounded first
    (:func:`round_nearest_even`).  A finite nonzero value is printed here in
    one pass, byte for byte as ``to_str`` prints it: the value times a power
    of ten, floored to an integer of at least ``dps + 3`` digits, is cut to
    ``dps`` digits and rounded half up on the next one, then written in
    fixed-point form when its decimal exponent lies strictly between
    ``min(-(dps // 3), -5)`` and ``dps``, else as ``d.ddd`` with an
    exponent.  The power of ten depends on e + bitlength(d) only, which
    trailing zero bits of d do not change.  Zero, binary exponents beyond
    3500 (which ``to_str`` first scales by a power of ten) and ``dps`` of
    247 or more, from 811 bits on (where it splits the digit conversion),
    go to ``to_str`` itself.
    """
    dps, bitprec, min_fixed = _print_constants(precision_bits)
    scales = {}  # e + bitlength(d) -> (10^fixdps, fixdps + 1)
    out = []
    append = out.append
    for d, e in pairs:
        man = -d if d < 0 else d
        bc = man.bit_length()
        scale = scales.get(e + bc) if 0 < bc <= precision_bits else None
        if scale is None:
            if bc > precision_bits:
                d, e = round_nearest_even(d, e, precision_bits)
                man = -d if d < 0 else d
                bc = man.bit_length()
            if not man or abs(e + bc) > 3500 or dps >= 247:
                append(to_str(from_man_exp(d, e), dps, strip_zeros=True))
                continue
            # to_str's fixed-point scaling: a shift by fixprec bits and
            # fixdps digits, where man << (e + fixprec) never shifts right
            fixdps = int(max(bitprec - e - bc, 0) / _LOG2_10 + 0.5)
            scale = scales[e + bc] = (_pow10(fixdps), fixdps + 1)
        p10, lead = scale
        n = man * p10
        digits = str(n >> -e if e < 0 else n << e)
        exponent = len(digits) - lead
        if len(digits) > dps and digits[dps] >= "5":
            head = digits[:dps].rstrip("9")
            if head:
                digits = head[:-1] + _NEXT_DIGIT[head[-1]] + "0" * (dps - len(head))
            else:  # 99...9 rounded up to the next power of ten
                digits = "1" + "0" * (dps - 1)
                exponent += 1
        else:
            digits = digits[:dps]
        if min_fixed < exponent < dps:
            if exponent < 0:
                text = "0." + "0" * (-exponent - 1) + digits
            else:
                text = digits[:exponent + 1] + "." + digits[exponent + 1:]
            exponent = 0
        else:
            text = digits[:1] + "." + digits[1:]
        text = text.rstrip("0")
        if text[-1] == ".":
            text += "0"
        if exponent:
            text += f"e{exponent:+d}"
        append("-" + text if d < 0 else text)
    return out


def parse_real(text: str, precision_bits: int = DEFAULT_PRECISION_BITS):
    with workprec(precision_bits):
        return mpf(text)


# ---------------------------------------------------------------- prefix sets

def prefix_set_records(ps: PrefixSet,
                       precision_bits: int = DEFAULT_PRECISION_BITS) -> list:
    recs = [{"kind": "prefix", "word": w,
             "orbit_value": real_repr(ps.orbit_values[w], precision_bits)}
            for w in ps.words]
    recs.append({"kind": "prefix_set", "k": ps.k, "count": ps.count})
    return recs


def parse_prefix_set_records(lines, precision_bits: int = DEFAULT_PRECISION_BITS) -> PrefixSet:
    words = []
    values = {}
    k = None
    count = None
    for line in lines:
        rec = json.loads(line) if isinstance(line, str) else line
        if rec["kind"] == "prefix":
            words.append(rec["word"])
            values[rec["word"]] = parse_real(rec["orbit_value"], precision_bits)
        elif rec["kind"] == "prefix_set":
            k, count = rec["k"], rec["count"]
    if k is None or count != len(words):
        raise ValueError("inconsistent prefix set records")
    return PrefixSet(k=k, words=tuple(sorted(words)), orbit_values=values)


# ------------------------------------------------------------ generator runs

def generator_run_records(run: GeneratorRun, beta,
                          precision_bits: int = DEFAULT_PRECISION_BITS,
                          include_words: bool = True) -> list:
    recs = [{
        "kind": "generator_run",
        "mode": run.mode,
        "m": run.m,
        "beta": real_repr(beta, precision_bits),
        "x": real_repr(run.x, precision_bits),
        "entry_word": run.entry_word,
        "entry_steps": run.entry_steps,
        "block_length": run.block_length,
        "num_blocks": run.num_blocks,
    }]
    for s, (stage, extremes) in enumerate(zip(run.stages, run.extremes)):
        least, greatest = _pair_reprs(extremes, precision_bits)
        recs.append({
            "kind": "stage",
            "index": s,
            "count": len(stage),
            "word_length": len(stage[0][0]),
            "orbit_min": least,
            "orbit_max": greatest,
        })
        if include_words:
            texts = _pair_reprs([v for _, v in stage], precision_bits)
            recs += [{"kind": "stage_word", "stage": s, "word": w, "orbit_value": t}
                     for (w, _), t in zip(stage, texts)]
    return recs


# ------------------------------------------------------------- bound reports

def bound_report_records(report: BoundReport,
                         precision_bits: int = DEFAULT_PRECISION_BITS) -> list:
    rec = {
        "kind": "bound_report",
        "beta": real_repr(report.beta, precision_bits),
        "kappa": report.kappa,
        "omega_bound_m": report.omega_bound[0] if report.omega_bound else None,
        "omega_bound": report.omega_bound[1] if report.omega_bound else None,
        "lambda_bound_m": report.lambda_bound[0] if report.lambda_bound else None,
        "lambda_bound": report.lambda_bound[1] if report.lambda_bound else None,
        "best_lower": report.best_lower,
        "local_dim_min": report.local_dim_min,
    }
    recs = [rec]
    for m, value, threshold in report.upper_bounds:
        recs.append({"kind": "upper_bound", "m": m, "value": value,
                     "threshold": threshold})
    for cand in report.local_dim_upper:
        recs.append({"kind": "local_dim_bound", "source": cand.source,
                     "m": cand.m, "value": cand.value,
                     "threshold": cand.threshold})
    return recs


# ------------------------------------------------------------------ growth

def growth_records(est: GrowthEstimate) -> list:
    recs = [{"kind": "growth_point", "k": k, "log2_count": lc,
             "slope": lc / k}
            for k, lc in zip(est.k_values, est.log2_counts)]
    recs.append({"kind": "growth_summary", "lower_slope": est.lower_slope,
                 "upper_slope": est.upper_slope})
    return recs


def to_jsonl(records: list) -> str:
    """One ``json.dumps(rec, sort_keys=True)`` line per record.  A
    ``stage_word`` record holds two strings that need no JSON escaping, a
    0/1 word and a decimal orbit value, so its line is filled into a
    template with the sorted keys and ``json.dumps`` separators."""
    return "".join([
        f'{{"kind": "stage_word", "orbit_value": "{rec["orbit_value"]}", '
        f'"stage": {rec["stage"]}, "word": "{rec["word"]}"}}\n'
        if rec["kind"] == "stage_word" else json.dumps(rec, sort_keys=True) + "\n"
        for rec in records])
