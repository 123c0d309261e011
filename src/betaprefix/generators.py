"""The two prefix generators and their steering intervals.

Both constructions push the orbit of x into a steering subinterval of the
admissible interval and then extend prefixes block by block so that every
extension's orbit lands back inside it:

* majority-block mode (``m``): blocks of length 2m+1 whose majority digit
  is chosen by which side of the pivot 1/(beta^2-1) the orbit sits on.
  Each block admits exactly 2^(2m) majority words, all of which return to
  the steering interval when beta is at most the omega threshold for m.
* steered-pair mode (``s3``): blocks of length m+2 built from at most m+1
  forced steps into the core two-cycle, one free branch digit, and a
  steering word chosen to land back in the interval.  Each block yields
  exactly 2 extensions when beta is at most the lambda threshold for m.

Orbit containment is asserted for every extension; a violation falsifies
the defining polynomial inequality for the given beta and aborts loudly.
Both domain checks, beta <= omega_m and beta <= lambda_m, are exact
(``numeric.at_most_threshold``).

The generator tables (steering intervals with their windows, the
pair-mode check, block words with their affine offsets, steering words
sorted by offset, the steered-pair run scale) are built once per base and
process by ``functools.lru_cache``: contexts are values (see ``numeric``).
A run looks them up once, when it builds its stage function
``extend_stage(parents) -> (stage, least, greatest)`` (one per mode,
:func:`_block_extender` and :func:`_pair_extender`), which extends a whole
stage in one loop.  Every orbit loop rounds each sum and product once, as
the mpf operators do, on the pairs of ``numeric``; stages and their
extremes keep the pairs, which become mpf only in
:meth:`GeneratorRun.stage_values`.  The steered-pair loop holds its values
as ints at one binary scale per base and m, where each is exact
(:func:`_pair_scale`).

A word of length L acts on an orbit value v as beta^L * v + q, the offsets
q kept exactly as ints at one exponent (:func:`_offset_table`).  Rounding
``beta^L * v + q`` is monotone in q, so the steering words that land in a
window are one run of the offset-sorted table, whose lexicographically
smallest word is the one a scan of all 2^L words finds first; C ``bisect``
finds the run between the rounding thresholds of the window's ends
(:func:`_steer_run`).  For the same reason a majority block's extremes come
from its extreme offsets.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

from mpmath import mp, mpf, workprec

from .errors import (CapExceeded, ContainmentViolation, InvalidPoint,
                     MemoryGuard, NoSteeringWord, OutOfDomain, Unreachable)
from .numeric import (BetaContext, Window, apply_word, apply_word_pair,
                      at_most_threshold, below_golden_ratio, compare_pairs,
                      from_pair, lambda_threshold, map_pair, omega_threshold,
                      pair_product, pair_sum, round_nearest_even, to_pair)
from .prefixes import DEFAULT_SURVIVOR_CAP

_ENTRY_DFS_BUDGET = 2_000_000
_ENTRY_CEILING = 10_000  # longest entry word, in digits
_CLIMB_MARGIN = 2  # steps a climb may take past its computed length
_TABLE_CACHE_SIZE = 256  # entries of each per-base table cache

MODE_MAJORITY = "m"
MODE_STEERED_PAIR = "s3"


@dataclass(frozen=True)
class BlockSteeringInterval:
    """Steering interval for majority-block mode: [lo, hi] with the pivot
    splitting it into the zeros-heavy and ones-heavy halves, and its
    containment window."""

    m: int
    lo: object
    pivot: object
    hi: object
    window: Window


@dataclass(frozen=True)
class PairSteeringInterval:
    """Steering interval for steered-pair mode, with the inner core
    two-cycle [core_lo, core_hi] that orbits cannot jump over, and the
    containment windows of both."""

    lo: object
    core_lo: object
    core_hi: object
    hi: object
    window: Window
    core: Window


# One cache per table; a call that raises keeps nothing, so a failed
# validation repeats on every call.
_per_base = functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)


@_per_base
def block_steering_interval(ctx: BetaContext, m: int) -> BlockSteeringInterval:
    """Validated steering interval for majority-block mode, built once per
    base.

    lo is the word 1^(2m+1) applied to core_lo = 1/(beta^2-1), which is
    (-beta^(2m+2)+beta+1)/(beta^2-1), and hi the word 0^(2m+1) applied to
    core_hi = beta/(beta^2-1), which is beta^(2m+2)/(beta^2-1).  Both are
    computed in the affine form beta^(2m+1) * v + offset that
    :func:`_block_extender` applies to blocks, so the extremal block from
    the pivot lands exactly on lo.  Requires beta <= omega threshold of m;
    then 0 <= lo < pivot < hi <= 1/(beta-1).
    """
    if not at_most_threshold(ctx.beta, "omega", m):
        raise OutOfDomain(
            f"majority-block mode needs beta <= omega_{m} = "
            f"{omega_threshold(m)}, got {ctx.beta}")
    n = 2 * m + 1
    with workprec(ctx.precision_bits):
        lo = ctx.power(n) * ctx.core_lo + apply_word(ctx, "1" * n, 0)
    hi = apply_word(ctx, "0" * n, ctx.core_hi)
    if not (ctx.base.lo_w <= lo < ctx.core_lo < hi <= ctx.base.hi_w):
        raise ContainmentViolation(
            f"steering interval endpoints out of order for m={m}, beta={ctx.beta}")
    return BlockSteeringInterval(m=m, lo=lo, pivot=ctx.core_lo, hi=hi,
                                 window=ctx.window(lo, hi))


@_per_base
def pair_steering_interval(ctx: BetaContext) -> PairSteeringInterval:
    """Validated steering interval for steered-pair mode, built once per
    base: lo is the digit 1 applied to core_lo, (1+beta-beta^2)/(beta^2-1),
    and hi the digit 0 applied to core_hi, beta^2/(beta^2-1).  Needs beta
    below the golden ratio so the interval fits inside the admissible one."""
    if not below_golden_ratio(ctx.beta):
        raise OutOfDomain(
            f"steered-pair interval needs beta < (1+sqrt(5))/2, got {ctx.beta}")
    lo = apply_word(ctx, "1", ctx.core_lo)
    hi = apply_word(ctx, "0", ctx.core_hi)
    if not (ctx.base.lo_w <= lo <= ctx.core_lo <= ctx.core_hi <= hi
            <= ctx.base.hi_w):
        raise ContainmentViolation(
            f"pair steering interval endpoints out of order for beta={ctx.beta}")
    return PairSteeringInterval(lo=lo, core_lo=ctx.core_lo,
                                core_hi=ctx.core_hi, hi=hi,
                                window=ctx.window(lo, hi),
                                core=ctx.window(ctx.core_lo, ctx.core_hi))


def _lex_smallest_entry(ctx: BetaContext, target: Window, x, length: int):
    """Lexicographically smallest admissible word of the given length whose
    final orbit value lands in the window ``target``.

    Depth-first in lex order with interval-reachability pruning: from value
    v with n steps left every reachable final value lies between the all-ones
    composition beta^n (v - ub) + ub and the all-zeros composition beta^n v,
    so subtrees whose bound interval misses the target are skipped.  Pairs
    are rounded as the mpf ``bn * (v - ub) + ub``, ``bn * v``,
    ``beta * v - 1`` and, for digit 0, that child ``+ 1`` would be.  Raises
    CapExceeded past ``_ENTRY_DFS_BUDGET`` nodes, Unreachable on no hit.
    """
    prec = ctx.precision_bits
    powers = ctx.int_powers(length)
    ub = to_pair(ctx.one_over_beta_minus_one, prec)
    minus_ub = (-ub[0], ub[1])
    lo, hi = target.ends
    base = ctx.base
    nodes = 0
    stack = [("", to_pair(x, prec))]
    while stack:
        w, v = stack.pop()
        nodes += 1
        if nodes > _ENTRY_DFS_BUDGET:
            raise CapExceeded(
                f"the lexicographic entry search of length {length} from x={x} "
                f"spent its budget of {_ENTRY_DFS_BUDGET} nodes")
        n = length - len(w)
        if n == 0:
            if target.contains_pair(v):
                return w
            continue
        bn = powers[n]
        ones = pair_sum(pair_product(bn, pair_sum(v, minus_ub, prec), prec), ub, prec)
        if compare_pairs(ones, hi) > 0:
            continue
        if compare_pairs(pair_product(bn, v, prec), lo) < 0:
            continue
        child = map_pair(ctx, 1, v)
        if base.contains_pair(child):
            stack.append((w + "1", child))
        child = pair_sum(child, (1, 0), prec)
        if base.contains_pair(child):
            stack.append((w + "0", child))
    raise Unreachable(
        f"no word of length {length} from x={x} lands in [{target.lo}, {target.hi}]")


def _climb(ctx: BetaContext, window: Window, v, cap: int):
    """Forced run of the orbit pair v towards ``window``: digit 0 while v
    lies below it, digit 1 while above.  Returns (digits, pair reached), or
    None when the run needs more than ``cap`` digits.  Digit 0 moves v up,
    away from 0, and digit 1 moves it down, away from 1/(beta-1), so the run
    is monotone; its last step may jump over the window, and callers check
    where it landed."""
    lo, hi = window.ends
    up = compare_pairs(v, lo) < 0
    digit = 0 if up else 1
    digits = ""
    while compare_pairs(v, lo) < 0 if up else compare_pairs(v, hi) > 0:
        if len(digits) == cap:
            return None
        v = map_pair(ctx, digit, v)
        digits += "01"[digit]
    return digits, v


def _climb_length(ctx: BetaContext, target: Window, x) -> int:
    """Length of the climb from the mpf x outside ``target`` into it, up to
    rounding: with u = 1/(beta-1), n digits 0 take x to beta^n x and n
    digits 1 take u - x to beta^n (u - x).  Call under ``workprec``."""
    u = ctx.one_over_beta_minus_one
    ratio = target.lo_w / x if x < target.lo_w else (u - target.hi_w) / (u - x)
    return int(mp.ceil(mp.log(ratio) / mp.log(ctx.beta)))


def _entry_word(ctx: BetaContext, target: Window, x):
    """Minimal-length word mapping x into the window ``target``,
    lexicographically smallest among minimal ones; returns (word, length).

    Minimality follows from value bounds rather than search: every word
    value at depth j lies between the all-ones and all-zeros compositions,
    and the monotone climb (all zeros from below, all ones from above)
    enters the interval without jumping over it, because the interval
    contains the core two-cycle.  From below, the all-zeros climb is also
    the lexicographically smallest word; from above, the all-ones descent
    only fixes the length.

    x must lie more than the tolerance above 0 and below u = 1/(beta-1),
    and more than 2 ulp(u) / (beta - 1) below u: near that repelling fixed
    point each step beta * v - 1 gains only (beta - 1)(u - v) on it and
    rounds off up to 1.5 ulp(u), so a rounded descent need not leave it.
    Past ``_ENTRY_CEILING`` digits the request raises CapExceeded; a climb
    longer than :func:`_climb_length` plus ``_CLIMB_MARGIN`` is Unreachable.
    """
    lo, hi = target.lo, target.hi
    prec = ctx.precision_bits
    with workprec(prec):
        x, tol = mpf(x), ctx.comparison_tolerance
        u = ctx.one_over_beta_minus_one
        _, _, exp, bc = u._mpf_
        near = max(tol, 2 * mpf(2) ** (exp + bc - prec) / (ctx.beta - 1))
        if not tol < x < u - near:
            raise InvalidPoint(f"x={x} must lie strictly inside (0, 1/(beta-1)), "
                               f"more than {mp.nstr(near, 3)} below its upper end")
        if target.contains(x):
            return "", 0
        steps = _climb_length(ctx, target, x)
        if steps > _ENTRY_CEILING:
            raise CapExceeded(
                f"entry into [{lo}, {hi}] from x={x} needs {steps} digits, "
                f"above the ceiling of {_ENTRY_CEILING}")
        climbed = _climb(ctx, target, to_pair(x, prec), steps + _CLIMB_MARGIN)
        if climbed is None:
            raise Unreachable(f"no entry into [{lo}, {hi}] from x={x} within "
                              f"{_CLIMB_MARGIN} steps past the computed {steps}")
        run, v = climbed
        if not target.contains_pair(v):
            raise Unreachable(
                f"monotone {'climb' if x < lo else 'descent'} jumped over "
                f"[{lo}, {hi}] from x={x}")
        j = len(run)
        if x < lo:
            return run, j
        word = _lex_smallest_entry(ctx, target, x, j)
        final = apply_word(ctx, word, x)
        if not target.contains(final):
            raise Unreachable(
                f"entry word {word!r} fails to land in [{lo}, {hi}] (value {final})")
        return word, j


def entry_word_m(ctx: BetaContext, m: int, x):
    """Step-1 entry for majority-block mode: minimal-length word into the
    block steering interval, all intermediate orbit values admissible."""
    return _entry_word(ctx, block_steering_interval(ctx, m).window, x)


def entry_word_s3(ctx: BetaContext, m: int, x):
    """Step-1 entry for steered-pair mode."""
    _require_pair_mode(ctx, m)
    return _entry_word(ctx, pair_steering_interval(ctx).window, x)


@_per_base
def _require_pair_mode(ctx: BetaContext, m: int) -> None:
    """Raise unless beta <= lambda_m."""
    if not at_most_threshold(ctx.beta, "lambda", m):
        raise OutOfDomain(
            f"steered-pair mode needs beta <= lambda_{m} = "
            f"{lambda_threshold(m)}, got {ctx.beta}")


@functools.lru_cache(maxsize=256)
def _majority_words(length: int, heavy: str) -> tuple:
    """All words of the given length in which ``heavy`` occupies a strict
    majority of positions, in lexicographic order."""
    need = length // 2 + 1
    return tuple("".join(bits) for bits in itertools.product("01", repeat=length)
                 if bits.count(heavy) >= need)


def _offset_table(ctx: BetaContext, words) -> tuple:
    """(offsets, exp): the affine offset of each word (the word applied to
    0), in the order given, kept exactly as the int ``offset / 2^exp`` at
    the one common exponent ``exp``."""
    pairs = [apply_word_pair(ctx, w, (0, 0)) for w in words]
    exp = min(e for d, e in pairs if d)
    return [d << (e - exp) for d, e in pairs], exp


@_per_base
def _block_words(ctx: BetaContext, length: int, heavy: str) -> tuple:
    """(words, offsets, exp, i_min, i_max): the majority words in
    lexicographic order with their offsets (:func:`_offset_table`), and the
    positions of a least and a greatest offset."""
    words = _majority_words(length, heavy)
    offsets, exp = _offset_table(ctx, words)
    positions = range(len(words))
    return (words, offsets, exp, min(positions, key=offsets.__getitem__),
            max(positions, key=offsets.__getitem__))


def _block_extender(ctx: BetaContext, m: int):
    """``extend_stage(parents)`` for majority mode: from the (word, orbit
    pair) parents of a stage, the next stage as (word, landing pair)
    entries, 2^(2m) per parent, with its least and greatest landing.
    Parents at or above the pivot take the ones-heavy blocks, those below
    it the zeros-heavy ones.  The steering interval and both block tables
    are looked up once, here.

    Every landing is ``base + q`` rounded once, base being beta^(2m+1) * o
    rounded once for the parent's orbit o; the rounding of
    :func:`round_nearest_even` runs inline over the offset list.  Rounding
    keeps ``base + q`` monotone in q, so a parent's extremes are the
    landings of a least and a greatest offset, and every block lands inside
    the window when these two do; otherwise the first block in word order
    that leaves it is named."""
    iv = block_steering_interval(ctx, m)
    prec = ctx.precision_bits
    window, pivot = iv.window, to_pair(iv.pivot, prec)
    length = 2 * m + 1
    scale = ctx.int_powers(length)[length]
    tables = {heavy: _block_words(ctx, length, heavy) for heavy in "01"}

    def extend_stage(parents):
        stage = []
        least = greatest = None
        for prefix_word, o in parents:
            if not window.contains_pair(o):
                with workprec(prec):
                    raise InvalidPoint(
                        f"orbit {from_pair(o)} outside steering interval [{iv.lo}, {iv.hi}]")
            words, offsets, exp, i_min, i_max = tables[
                "1" if compare_pairs(o, pivot) >= 0 else "0"]
            bd, be = pair_product(scale, o, prec)
            c = min(be, exp)  # base + q is exact at 2^c
            bd <<= be - c
            shift = exp - c
            landings = []
            for q in offsets:
                d = (q << shift) + bd
                n = d.bit_length() - prec
                if n > 0 and d > 0:
                    landings.append(((d + (1 << (n - 1)) - 1 + (d >> n & 1)) >> n, c + n))
                else:
                    landings.append(round_nearest_even(d, c, prec))
            lo, hi = landings[i_min], landings[i_max]
            if not (window.contains_pair(lo) and window.contains_pair(hi)):
                block, v = next((b, v) for b, v in zip(words, landings)
                                if not window.contains_pair(v))
                with workprec(prec):
                    raise ContainmentViolation(
                        f"block {block} (after {prefix_word!r}) leaves the steering "
                        f"interval: value {from_pair(v)} not in [{iv.lo}, {iv.hi}] "
                        f"at beta={ctx.beta}")
            stage += zip(map(prefix_word.__add__, words), landings)
            if least is None or compare_pairs(lo, least) < 0:
                least = lo
            if greatest is None or compare_pairs(hi, greatest) > 0:
                greatest = hi
        return stage, least, greatest
    return extend_stage


@functools.lru_cache(maxsize=64)
def _all_words(length: int) -> tuple:
    """Every word of the given length; word i has the bits of the int i."""
    return tuple("".join(bits) for bits in itertools.product("01", repeat=length))


@_per_base
def _steering_table(ctx: BetaContext, length: int) -> tuple:
    """(offsets, exp, order): the offsets of all words of the given length
    (at least 1) in word order (:func:`_offset_table`), and the word ints
    sorted by offset."""
    offsets, exp = _offset_table(ctx, _all_words(length))
    return offsets, exp, sorted(range(len(offsets)), key=offsets.__getitem__)


def _least_rounding_to(x, precision_bits: int, c: int) -> int:
    """The least int y such that y * 2^c, rounded to nearest (ties to even)
    at ``precision_bits``, is at least the pair x of at most that many bits.
    The greatest y that rounds to at most x is ``-_least_rounding_to(-x)``.

    With |x| = man * 2^e and 2^(prec-1) <= man < 2^prec, a value rounds to x
    or above when it lies above the midpoint between x and the next
    representable value below x, or on it when man is even (a tie goes to
    the even mantissa).  That gap is 2^e, halved when x > 0 and man is a
    power of two."""
    d, e = x
    if not d:
        return 0  # y >= 0 rounds to at least 0
    man = abs(d)
    k = precision_bits - man.bit_length()
    man, s = man << k, e - k - 2 - c
    if d > 0:  # the midpoint, as t * 2^(c + s)
        t = 4 * man - (1 if man == 1 << (precision_bits - 1) else 2)
    else:
        t = -4 * man - 2
    odd = man & 1
    if s >= 0:
        return (t << s) + odd
    y = t >> -s  # floor
    return y + (odd if y << -s == t else 1)


def _steer_run(offsets, order, low: int, high: int, base: int):
    """The steering kernel: the least word int (the lexicographically
    smallest word) whose exact landing ``base + q`` lies in [low, high], or
    None; ``offsets`` are the sorted q, ``order`` their word ints, all ints
    at one scale.  Those landings are one run of the offsets."""
    first = bisect.bisect_left(offsets, low - base)
    end = bisect.bisect_right(offsets, high - base, first)
    return min(order[first:end]) if first < end else None


def _at_scale(x, c: int, up: bool = False) -> int:
    """The pair x as an int at 2^c; rounded down, or up, if it is finer."""
    d, e = x
    return d << (e - c) if e >= c else -(-d >> (c - e)) if up else d >> (c - e)


@_per_base
def _pair_scale(ctx: BetaContext, m: int) -> tuple:
    """(c, lo, hi, core_lo, core_hi, base_lo, base_hi, floor, low, high):
    the run scale 2^c of steered-pair mode for this base and m, and as ints
    at 2^c the widened ends of the steering, core and admissible windows
    (lower ends rounded up, upper ones down, so comparisons with them are
    exact), the floor below which a parent cannot climb into the core, and
    the rounding thresholds of the steering window's ends.

    A kept value has at most prec bits, so if it is at least 2^f in
    magnitude it is a multiple of 2^(f + 1 - prec), as are sums and
    roundings of such values: c = f + 1 - prec for a bound 2^f <= 1 (so
    that the offsets, 0 or at least 1 in magnitude, are exact too) on all
    nonzero values.  Parents lie in the steering window, and one below
    2^F = core_lo 2^-(ceil((m+1) log2 beta) + 3) stays below the core for
    m + 1 rounded steps times beta, so it raises the forced climb's error
    at once.  Products times beta^L >= 1 do not shrink a value, a descent
    stays near core_lo > lo + 1/2, and branch digit 1 gives at least
    beta * core_lo - 1 (rounded as the loop rounds it) while that is
    positive; else a sum that cancels is a multiple of the ulp of an
    operand of at least 1/2, so at least 2^-prec.  When the core's lower
    end is not positive (a tolerance of about 1/3 or more), a parent below
    it is negative and cannot climb, and a run's values, from points above
    the tolerance, stay above 2^(-prec-1).  A parent pair finer than 2^c
    lies below 2^f, and rounding it down to the scale keeps its comparisons
    with the lower ends exact."""
    iv = pair_steering_interval(ctx)
    prec = ctx.precision_bits
    (lo, hi), (core_lo, core_hi), (base_lo, base_hi) = (
        iv.window.ends, iv.core.ends, ctx.base.ends)
    log2 = lambda v: v[1] + abs(v[0]).bit_length() - 1  # noqa: E731
    f = -prec - 1
    if core_lo[0] > 0:
        floor = log2(core_lo) - math.ceil((m + 1) * math.log2(float(ctx.beta))) - 3
        turn = pair_sum(pair_product(ctx.int_powers(1)[1], core_lo, prec), (-1, 0), prec)
        f = min(max(log2(lo), floor) if lo[0] > 0 else floor,
                log2(turn) if turn[0] > 0 else f)
    c = min(f, 0) + 1 - prec
    ends = [_at_scale(x, c, up) for x, up in ((lo, True), (hi, False), (core_lo, True),
                                              (core_hi, False), (base_lo, True),
                                              (base_hi, False))]
    return (c, *ends, 1 << (floor - c) if core_lo[0] > 0 else ends[2],
            _least_rounding_to(lo, prec, c), -_least_rounding_to((-hi[0], hi[1]), prec, c))


@_per_base
def _pair_steering(ctx: BetaContext, length: int, c: int) -> tuple:
    """(offsets, order, by_word): :func:`_steering_table` as ints at 2^c,
    sorted and in word order."""
    offsets, exp, order = _steering_table(ctx, length)
    by_word = [q << (exp - c) for q in offsets]
    return [by_word[i] for i in order], order, by_word


def _round_at(d: int, e: int, precision_bits: int, c: int) -> int:
    """d * 2^e rounded by :func:`round_nearest_even` (inline for d > 0), as
    an int at 2^c, which lies at or below the exponent of the result."""
    n = d.bit_length() - precision_bits
    if n > 0:
        if d > 0:
            return ((d + (1 << (n - 1)) - 1 + (d >> n & 1)) >> n) << (e + n - c)
        d, e = round_nearest_even(d, e, precision_bits)
    return d << (e - c) if d else 0


def _pair_extender(ctx: BetaContext, m: int):
    """``extend_stage(parents)`` for steered-pair mode: from a stage's
    (word, orbit pair) parents the next stage, two (word, landing pair)
    entries of length m+2 per parent, and its least and greatest landing.
    From below the core the lower map is forced until the orbit reaches it,
    from above the upper map, at most m+1 steps; then come the branch
    digits 0 and 1, each followed by the steering word of the remaining
    length that lands back in the steering interval.  One loop runs the
    stage on ints at the run scale of :func:`_pair_scale`, where every
    value kept is
    exact and each containment test, climb test and extreme is an int
    comparison.  Each product and sum is rounded once, to nearest even at
    the precision, in the mpf operators' order: the climb's beta * v (and
    - 1 above the core), the branch digits from one product beta * v, and
    beta^L * v plus the offset that :func:`_steer_run` picks against the
    window's rounding thresholds, so only the chosen landing is rounded."""
    _require_pair_mode(ctx, m)
    iv = pair_steering_interval(ctx)
    prec = ctx.precision_bits
    c, lo, hi, core_lo, core_hi, base_lo, base_hi, floor, low, high = _pair_scale(ctx, m)
    one = 1 << -c
    powers = ctx.int_powers(m + 1)
    bd, be = powers[1]
    tables = [None] * (m + 2)  # steering table per length

    def extend_stage(parents):
        stage = []
        least, greatest = hi + 1, lo - 1
        for w, o in parents:
            d, e = o
            v = d << (e - c) if e >= c else d >> (c - e)
            if not lo <= v <= hi:
                with workprec(prec):
                    raise InvalidPoint(
                        f"orbit {from_pair(o)} outside steering interval [{iv.lo}, {iv.hi}]")
            forced = ""
            up = v < core_lo
            while v < core_lo if up else v > core_hi:
                if len(forced) > m or v < floor:  # below floor: no m+1 steps reach the core
                    with workprec(prec):
                        raise ContainmentViolation(
                            f"forced {'climb' if up else 'descent'} into the core took "
                            f"more than m+1={m + 1} steps at beta={ctx.beta}")
                v = _round_at(bd * v, be + c, prec, c)
                if not up:
                    v = _round_at(v - one, c, prec, c)
                forced += "0" if up else "1"
            k = m + 1 - len(forced)  # steering length
            if k:
                if tables[k] is None:
                    tables[k] = (*_pair_steering(ctx, k, c), _all_words(k), *powers[k])
                offsets, order, by_word, words, sd, se = tables[k]
            vb = _round_at(bd * v, be + c, prec, c)
            for digit in "01":
                if digit == "1":
                    vb = _round_at(vb - one, c, prec, c)
                if not base_lo <= vb <= base_hi:
                    with workprec(prec):
                        raise ContainmentViolation(
                            f"branch digit {digit} leaves the admissible interval from "
                            f"core value {from_pair((v, c))} at beta={ctx.beta}")
                if k:
                    base = _round_at(sd * vb, se + c, prec, c)
                    i = _steer_run(offsets, order, low, high, base)
                    if i is None:
                        with workprec(prec):
                            raise NoSteeringWord(
                                f"no word of length {k} steers {from_pair((vb, c))} "
                                f"back into [{iv.lo}, {iv.hi}] at beta={ctx.beta}")
                    y, steer = base + by_word[i], words[i]
                elif lo <= vb <= hi:
                    y, steer = vb, ""
                else:
                    with workprec(prec):
                        raise NoSteeringWord(
                            f"value {from_pair((vb, c))} not in steering interval and "
                            "no steering steps left")
                n = y.bit_length() - prec
                if n <= 0:  # exact
                    pair = y, c
                elif y > 0:
                    r = (y + (1 << (n - 1)) - 1 + (y >> n & 1)) >> n
                    pair, y = (r, c + n), r << n
                else:
                    pair = round_nearest_even(y, c, prec)
                    y = pair[0] << (pair[1] - c)
                stage.append((w + forced + digit + steer, pair))
                if y < least:
                    least, least_pair = y, pair
                if y > greatest:
                    greatest, greatest_pair = y, pair
        return stage, least_pair, greatest_pair
    return extend_stage


@dataclass(frozen=True)
class GeneratorRun:
    """Completed generator run: the entry word plus one prefix stage per
    block.  Stage s holds 2^(2ms) words (majority mode) or 2^s words
    (steered-pair mode) of length entry_steps + s * block_length, each with
    its orbit value inside the steering interval, and ``extremes[s]`` is
    the least and the greatest orbit value of stage s.  Orbit values are
    ``numeric`` pairs (d, e), the value d * 2^e; :meth:`stage_values` gives
    them as mpf.  ``x`` is the starting point as an mpf."""

    mode: str
    m: int
    x: object
    entry_word: str
    entry_steps: int
    block_length: int
    stages: tuple  # tuple of tuples of (word, orbit pair)
    extremes: tuple  # tuple of (least, greatest) orbit pair per stage

    @property
    def num_blocks(self) -> int:
        return len(self.stages) - 1

    def stage_words(self, s: int) -> tuple:
        return tuple(w for w, _ in self.stages[s])

    def stage_values(self, s: int) -> tuple:
        """Stage s as (word, orbit value) with each value the mpf of its
        pair, exactly."""
        return tuple((w, from_pair(v)) for w, v in self.stages[s])

    def descendant_count(self, s_from: int, word: str, s_to: int) -> int:
        """Number of stage-s_to words extending ``word`` from stage s_from."""
        if s_to < s_from:
            raise ValueError("s_to must be >= s_from")
        return sum(1 for w, _ in self.stages[s_to] if w.startswith(word))


def _expected_stage_count(mode: str, m: int, s: int) -> int:
    return 2 ** (2 * m * s) if mode == MODE_MAJORITY else 2 ** s


def _run_generator(ctx: BetaContext, mode: str, m: int, x, num_blocks: int,
                   survivor_cap: int) -> GeneratorRun:
    if num_blocks < 0:
        raise ValueError("num_blocks must be nonnegative")
    if _expected_stage_count(mode, m, num_blocks) > survivor_cap:
        raise MemoryGuard(
            f"final stage of {_expected_stage_count(mode, m, num_blocks)} words "
            f"exceeds survivor cap {survivor_cap}")
    if mode == MODE_MAJORITY:
        entry, steps = entry_word_m(ctx, m, x)
        block_length, extender = 2 * m + 1, _block_extender
    else:
        entry, steps = entry_word_s3(ctx, m, x)
        block_length, extender = m + 2, _pair_extender
    with workprec(ctx.precision_bits):
        x = mpf(x)
    v0 = apply_word_pair(ctx, entry, to_pair(x, ctx.precision_bits))
    stages = [((entry, v0),)]
    extremes = [(v0, v0)]
    if num_blocks:  # a run with no blocks builds no block tables
        extend = extender(ctx, m)
    for s in range(1, num_blocks + 1):
        # parents are in lexicographic order and each parent's blocks, all
        # of one length, come out in it, so the stage is sorted
        nxt, least, greatest = extend(stages[-1])
        expected = _expected_stage_count(mode, m, s)
        if len(nxt) != expected:
            raise ContainmentViolation(
                f"stage {s} produced {len(nxt)} words, expected {expected}")
        stages.append(tuple(nxt))
        extremes.append((least, greatest))
    return GeneratorRun(mode=mode, m=m, x=x, entry_word=entry,
                        entry_steps=steps, block_length=block_length,
                        stages=tuple(stages), extremes=tuple(extremes))


def run_generator_m(ctx: BetaContext, m: int, x, num_blocks: int,
                    survivor_cap: int = DEFAULT_SURVIVOR_CAP) -> GeneratorRun:
    """Majority-block generator run: stage s holds exactly 2^(2ms) words of
    length entry_steps + s(2m+1)."""
    return _run_generator(ctx, MODE_MAJORITY, m, x, num_blocks, survivor_cap)


def run_generator_s3(ctx: BetaContext, m: int, x, num_blocks: int,
                     survivor_cap: int = DEFAULT_SURVIVOR_CAP) -> GeneratorRun:
    """Steered-pair generator run: stage s holds exactly 2^s words of
    length entry_steps + s(m+2)."""
    return _run_generator(ctx, MODE_STEERED_PAIR, m, x, num_blocks, survivor_cap)
