"""High-precision scalar core: the base context, the two expanding maps,
sparse integer polynomials and root finding certified by Descartes' rule
of signs.  Every sign of a sparse integer polynomial (root search, kappa,
a base against the golden ratio) is exact and comes from one routine,
:func:`certified_sign`, in up to three tiers: float64 under a proved
error bound (a floating-point filter, Shewchuk 1997), then the ambient
mpmath precision under its error bound, then integers.

Every orbit value is rounded to nearest at the context's working
precision, as mpmath's mpf operators round it, but the loops run on
integer pairs (below), not on mpf.  64-bit doubles misclassify interval
membership after a few dozen map applications when beta is close to 1, so
the default working width is 128 bits with a comparison tolerance of 2^-64
for boundary classification.

A :class:`BetaContext` is a value: contexts with equal ``(beta,
precision_bits, comparison_tolerance)`` compare equal and hash alike, so a
table that another module derives from a base and caches with
``functools.lru_cache`` is built once per process, whichever context asks.
Every orbit loop runs on one arithmetic: a value ``d * 2^e`` is the pair
``(d, e)`` of Python ints (:func:`to_pair`), sums and products are exact
integer operations that :func:`round_nearest_even` rounds once each, as the
mpf operators under ``workprec`` would, and :func:`compare_pairs` and
:meth:`Window.contains_pair` compare exactly.  :func:`apply_word_pair`
keeps the partial sums of its last call on the context and resumes from the
longest prefix that the next word of the same length, from the same point,
shares with it.

Whether a base is at most the omega or lambda threshold for m is decided
exactly as well (:func:`at_most_threshold`): the cached threshold, a
bracket's lower end, filters, and a base inside the bracket takes the signs
of the family members at it.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from enum import Enum

from mpmath import mp, mpf, workprec
from mpmath.libmp import from_man_exp, mpf_le, mpf_pos, round_nearest, to_float

from .errors import NoRootFound, OutOfDomain

DEFAULT_PRECISION_BITS = 128
DEFAULT_ROOT_TOL = 1e-9

# Root scan grid: start just above 1 to skip the known root at x=1 and step
# by 1e-3 up to 2 (both are 53-bit values).  The grid needs no assumption on
# root gaps: a polynomial that Descartes' rule allows one root above 1
# changes sign at most once on it.
_SCAN_OFFSET = mpf(10) ** -9
_SCAN_STEP = mpf(10) ** -3


@dataclass(frozen=True)
class Window:
    """A closed interval [lo, hi] with its tolerance-widened ends
    ``lo_w = lo - tol`` and ``hi_w = hi + tol``; build it with
    :meth:`BetaContext.window`.  mpf comparisons are exact at any
    precision, so ``contains`` needs no working precision of its own (an
    mpf goes straight to libmp's ``mpf_le`` on the raw tuples, any other
    value through the mpf operators), and ``contains_pair`` makes the same
    two comparisons on a pair."""

    lo: object
    hi: object
    lo_w: object
    hi_w: object
    ends: tuple = field(compare=False, repr=False)  # lo_w and hi_w as pairs

    def contains(self, x) -> bool:
        if type(x) is mpf:
            x = x._mpf_
            return mpf_le(self.lo_w._mpf_, x) and mpf_le(x, self.hi_w._mpf_)
        return self.lo_w <= x <= self.hi_w

    def contains_pair(self, v) -> bool:
        lo, hi = self.ends
        return compare_pairs(v, lo) >= 0 and compare_pairs(v, hi) <= 0


def to_raw(x, precision_bits: int) -> tuple:
    """x rounded to nearest at ``precision_bits``, as a libmp ``_mpf_``
    tuple: what ``mpf(x)._mpf_`` gives under ``workprec(precision_bits)``,
    without entering the context when x is already an mpf."""
    if type(x) is mpf:
        return mpf_pos(x._mpf_, precision_bits, round_nearest)
    with workprec(precision_bits):
        return mpf(x)._mpf_


def to_pair(x, precision_bits: int) -> tuple:
    """x rounded as by :func:`to_raw`, as the pair ``(d, e)`` with
    x = d * 2^e; ValueError for an infinity or NaN, which no pair holds."""
    sign, man, exp, _ = to_raw(x, precision_bits)
    if not man and exp:
        raise ValueError(f"{x} is not finite")
    return (-man if sign else man), exp


def from_pair(v):
    """The pair v = (d, e) as the mpf d * 2^e, exactly."""
    return mp.make_mpf(from_man_exp(*v))


def round_nearest_even(d: int, e: int, precision_bits: int) -> tuple:
    """d * 2^e rounded to nearest, ties to even, at ``precision_bits``, as
    (d', e') with |d'| <= 2^precision_bits; an exact value comes back
    unchanged.  Correct rounding is unique, so rounding the exact result of
    a sum or product gives the value the mpf operator gives on operands of
    at most ``precision_bits`` bits under ``workprec(precision_bits)``.

    With n bits to drop, ``(d + 2^(n-1) - 1 + q0) >> n`` for the low kept
    bit q0 rounds up past half, and at exactly half only an odd quotient."""
    n = d.bit_length() - precision_bits  # bit_length ignores the sign
    if n <= 0:
        return d, e
    if d < 0:  # nearest-even is symmetric
        q, e = round_nearest_even(-d, e, precision_bits)
        return -q, e
    return (d + (1 << (n - 1)) - 1 + (d >> n & 1)) >> n, e + n


def pair_product(a, b, precision_bits: int) -> tuple:
    """a * b for pairs, rounded once by :func:`round_nearest_even`."""
    (ad, ae), (bd, be) = a, b
    return round_nearest_even(ad * bd, ae + be, precision_bits)


def pair_sum(a, b, precision_bits: int) -> tuple:
    """a + b for pairs of at most ``precision_bits + 1`` mantissa bits,
    rounded once.  Past an exponent gap of 2 precision_bits + 1 the operand
    with the smaller exponent lies below half an ulp of the other, which is
    then the rounded sum (unless zero), and no mantissa is shifted by it."""
    (ad, ae), (bd, be) = (a, b) if a[1] >= b[1] else (b, a)
    gap = ae - be
    if gap > 2 * precision_bits + 1:
        return (ad, ae) if ad else (bd, be)
    return round_nearest_even((ad << gap) + bd, be, precision_bits)


def compare_pairs(a, b) -> int:
    """An int with the sign of a - b for pairs, exactly.  An operand whose
    exponent lies further below the other's than its mantissa has bits
    cannot decide the sign unless the other is zero, and is not shifted."""
    (ad, ae), (bd, be) = a, b
    if ae >= be:
        if ae - be > bd.bit_length():
            return ad or -bd
        return (ad << (ae - be)) - bd
    if be - ae > ad.bit_length():
        return -bd or ad
    return ad - (bd << (be - ae))


class BetaContext:
    """A validated base beta in (1,2) with working precision and cached
    constants.

    Cached values: ``one_over_beta_minus_one`` (right endpoint of the
    admissible interval), ``core_lo = 1/(beta^2-1)`` and
    ``core_hi = beta/(beta^2-1)`` (the two-cycle that no orbit can jump
    over), and ``base``, the admissible interval's :class:`Window`.  Every
    orbit containment decision goes through a window from :meth:`window`,
    whose ends are widened by ``comparison_tolerance`` so that
    closed-interval statements are not rejected through rounding.
    Contexts are values, equal and hashed alike when ``(beta,
    precision_bits, comparison_tolerance)`` agree; do not mutate one.  The
    powers of beta, grown on demand, the last :func:`apply_word_pair` call
    and the pair of the last mpf point of :func:`apply_word` are kept on
    the context and change no value it gives.
    """

    def __init__(self, beta, precision_bits: int = DEFAULT_PRECISION_BITS,
                 comparison_tolerance=None):
        if precision_bits <= 0:
            raise ValueError("precision_bits must be positive")
        self.precision_bits = int(precision_bits)
        with workprec(self.precision_bits):
            b = mpf(beta)
            if not (1 < b < 2):
                raise ValueError(f"beta must lie strictly in (1,2), got {b}")
            self.beta = b
            if comparison_tolerance is None:
                self.comparison_tolerance = mpf(2) ** -64
            else:
                self.comparison_tolerance = mpf(comparison_tolerance)
                if not 0 <= self.comparison_tolerance < mp.inf:
                    raise ValueError(
                        "comparison_tolerance must be finite and nonnegative, "
                        f"got {self.comparison_tolerance}")
            self.one_over_beta_minus_one = 1 / (b - 1)
            self.core_lo = 1 / (b * b - 1)
            self.core_hi = b / (b * b - 1)
        self.base = self.window(0, self.one_over_beta_minus_one)
        self._powers = [(1, 0), to_pair(b, self.precision_bits)]  # grown on demand
        self._last_word = None  # apply_word_pair's last call
        self._last_point = None  # apply_word's last mpf point, with its pair
        self._key = (b._mpf_, self.precision_bits, self.comparison_tolerance._mpf_)

    def __eq__(self, other):
        return isinstance(other, BetaContext) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return (f"BetaContext(beta={mp.nstr(self.beta, 20)}, "
                f"precision_bits={self.precision_bits}, "
                f"comparison_tolerance={mp.nstr(self.comparison_tolerance, 5)})")

    def power(self, n: int):
        """beta^n for n >= 0, as an mpf: the pair of :meth:`int_powers`."""
        if n < 0:
            raise ValueError("power() takes n >= 0")
        return from_pair(self.int_powers(n)[n])

    def int_powers(self, n: int) -> list:
        """beta^0 .. beta^n (at least) as pairs, cached and grown on demand:
        each is beta times the one before, rounded once, the values
        repeated mpf products under ``workprec`` give."""
        pw = self._powers
        while len(pw) <= n:
            pw.append(pair_product(pw[-1], pw[1], self.precision_bits))
        return pw

    def window(self, lo, hi) -> Window:
        """[lo, hi] with its ends widened by the comparison tolerance.

        The ends are computed at the context precision: endpoint arithmetic
        at a lower ambient precision could round them past the values they
        are meant to include.
        """
        prec = self.precision_bits
        with workprec(prec):
            lo_w = lo - self.comparison_tolerance
            hi_w = hi + self.comparison_tolerance
        return Window(lo, hi, lo_w, hi_w, (to_pair(lo_w, prec), to_pair(hi_w, prec)))

    def in_base_interval(self, x) -> bool:
        return self.base.contains(x)


def apply_word(ctx: BetaContext, word: str, x):
    """Closed-form composition of map steps along a binary word.

    For word digits e_1..e_k this returns beta^k * x - sum e_n beta^(k-n),
    which equals the left-to-right iteration of the maps beta * x - e_n up
    to accumulated rounding; a one-digit word is one map step.

    Rounding order, at ``ctx.precision_bits`` and to nearest (ties to
    even): x is rounded once, the product beta^k * x is rounded once, and
    then, for n = 1..k in digit order, each subtraction of beta^(k-n) with
    e_n = 1 is rounded once; the powers are those of ``ctx.power``.  These
    are the operations ``ctx.power(k) * mpf(x)`` and ``acc -= ctx.power(k-n)``
    run under ``workprec``, each correctly rounded, so the result is the
    same ``_mpf_``; here they run on pairs (:func:`apply_word_pair`).  The
    context keeps the pair of its last mpf x, keyed on ``x._mpf_`` and
    replaced whole, so many words from one point round x once.
    """
    if word.strip("01"):
        raise ValueError(f"word must be over '0'/'1', got {word!r}")
    last = ctx._last_point
    if type(x) is mpf and last is not None and last[0] == x._mpf_:
        v = last[1]
    else:
        try:
            v = to_pair(x, ctx.precision_bits)
        except ValueError:  # inf or nan: no finite power moves it
            with workprec(ctx.precision_bits):
                return ctx.power(len(word)) * mpf(x)
        if type(x) is mpf:
            ctx._last_point = x._mpf_, v
    return from_pair(apply_word_pair(ctx, word, v))


def map_pair(ctx: BetaContext, digit: int, v) -> tuple:
    """One map step on the pair v, beta * v - digit: the product rounded
    once, then for digit 1 the difference rounded once, as
    :func:`apply_word` rounds the one-digit word."""
    prec = ctx.precision_bits
    v = pair_product(ctx.int_powers(1)[1], v, prec)
    return pair_sum(v, (-1, 0), prec) if digit else v


def apply_word_pair(ctx: BetaContext, word: str, v) -> tuple:
    """:func:`apply_word` from the pair v to a pair, for a word over 0/1.

    The partial sum after n digits depends on the first n digits only.  The
    context keeps its last call as one tuple (length, start pair, word as
    an int, the partial sums after 0..length digits), replaced whole, so a
    call on another thread can only find it stale and miss.  A call with
    the length and start pair of the last one resumes from the partial sum
    of the longest prefix its word shares with that call's word, and
    rounds only the subtractions after it, in the same order: the result
    is the one a fresh evaluation gives.  The callers ask for many words of
    one length from one point in lexicographic order (the offset tables,
    the branching refresh, checks of a stage), where neighbours share all
    but their last few digits."""
    k = len(word)
    prec = ctx.precision_bits
    powers = ctx.int_powers(k)
    bits = int(word, 2) if k else 0
    last = ctx._last_word
    if last is not None and last[0] == k and last[1] == v:
        p = k - (bits ^ last[2]).bit_length()  # digits shared with the last word
        sums = list(last[3][:p + 1])
    else:
        p = 0
        sums = [pair_product(powers[k], v, prec)]
    acc = sums[p]
    for n in range(p + 1, k + 1):
        if word[n - 1] == "1":
            pm, pe = powers[k - n]
            acc = pair_sum(acc, (-pm, pe), prec)
        sums.append(acc)
    ctx._last_word = (k, v, bits, tuple(sums))
    return acc


class PolynomialFamily(Enum):
    """The four integer polynomial families whose smallest roots above 1
    bound the validity of the two generators.

    OMEGA_1: x^(4m+3) - x^(2m+2) - x^(m+2) - x^(m+1) + x + 1
    OMEGA_2: x^(2m+3) - x^(2m+2) - x^2 + 1
    OMEGA_3: x^(2m+3) - x - 1
    LAMBDA:  x^(m+3) - x^(m+2) - x^(m+1) + 1
    """

    OMEGA_1 = "omega1"
    OMEGA_2 = "omega2"
    OMEGA_3 = "omega3"
    LAMBDA = "lambda"


@dataclass(frozen=True)
class PolynomialSpec:
    """Sparse exponent -> integer coefficient polynomial for one family
    member.  Degrees reach the hundreds, so dense arrays are avoided."""

    family: PolynomialFamily
    m: int
    coefficients: tuple  # sorted ((exponent, coeff), ...), descending


def _sparse(terms) -> tuple:
    acc: dict[int, int] = {}
    for e, c in terms:
        acc[e] = acc.get(e, 0) + c
    return tuple(sorted(((e, c) for e, c in acc.items() if c != 0),
                        reverse=True))


def _require_index(m) -> None:
    """Raise ValueError unless m is an int >= 1 (a bool is not one)."""
    if type(m) is bool or not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")


def polynomial_spec(family: PolynomialFamily, m: int) -> PolynomialSpec:
    _require_index(m)
    if family is PolynomialFamily.OMEGA_1:
        terms = [(4 * m + 3, 1), (2 * m + 2, -1), (m + 2, -1), (m + 1, -1),
                 (1, 1), (0, 1)]
    elif family is PolynomialFamily.OMEGA_2:
        terms = [(2 * m + 3, 1), (2 * m + 2, -1), (2, -1), (0, 1)]
    elif family is PolynomialFamily.OMEGA_3:
        terms = [(2 * m + 3, 1), (1, -1), (0, -1)]
    elif family is PolynomialFamily.LAMBDA:
        terms = [(m + 3, 1), (m + 2, -1), (m + 1, -1), (0, 1)]
    else:
        raise ValueError(f"unknown family {family!r}")
    return PolynomialSpec(family, m, _sparse(terms))


def evaluate_polynomial(spec: PolynomialSpec, x):
    """Evaluate the sparse polynomial at x (at the ambient mp precision)."""
    x = mpf(x)
    total = mpf(0)
    for e, c in spec.coefficients:
        total += c * x ** e
    return total


def _exact_sign(coefficients: tuple, x) -> int:
    """Sign of p(x) for a sparse coefficient tuple (descending exponents)
    and an mpf x, in integers: x = a / 2^k makes
    2^(k deg) p(x) = sum c_e a^e 2^(k (deg - e)) an integer."""
    sign, man, exp, _ = x._mpf_
    a, k = (man << exp, 0) if exp >= 0 else (man, -exp)
    a = -a if sign else a
    deg = coefficients[0][0]
    total = sum(c * a ** e << k * (deg - e) for e, c in coefficients)
    return (total > 0) - (total < 0)


@dataclass
class RootSearchCounts:
    """Counts of :func:`certified_sign`, from every caller, kept over the
    life of the process; read them as differences.

    ``evaluations``: every sign asked for.  ``float_signs``: signs the
    float64 tier decided.  ``exact_signs``: signs that neither floating
    tier could certify and that :func:`_exact_sign` settled instead.
    ``threshold_signs``: bases that :func:`at_most_threshold` found inside
    a threshold's root bracket and decided by sign."""

    evaluations: int = 0
    float_signs: int = 0
    exact_signs: int = 0
    threshold_signs: int = 0


ROOT_SEARCH_COUNTS = RootSearchCounts()

# The float64 tier runs for deg < 2^32, where 4 deg 2^-53 < 2^-19, and for
# sum |c_e| < 2^1000, so that no term or partial sum overflows.
_FLOAT_DEGREE_LIMIT = 1 << 32
_FLOAT_MAGNITUDE_LIMIT = 1 << 1000


@functools.lru_cache(maxsize=16)
def _float_plan(coefficients: tuple):
    """The float64 tier's fixed data for one polynomial, or None when the
    tier cannot run on it: per term, c_e as a float, the squarings whose
    product is y^n for n = deg - e, and the error weight 4n + t + 1; then
    how many squarings to take, and the underflow allowance
    (deg + 1) 2^-1074 sum |c_e| (see :func:`_float_value`)."""
    deg = coefficients[0][0]
    magnitude = sum(abs(c) for _, c in coefficients)
    if deg >= _FLOAT_DEGREE_LIMIT or magnitude >= _FLOAT_MAGNITUDE_LIMIT:
        return None
    t = len(coefficients)
    terms = []
    for e, c in coefficients:
        n = deg - e
        terms.append((float(c), tuple(i for i in range(n.bit_length()) if n >> i & 1),
                      4 * n + t + 1))
    return (tuple(terms), deg.bit_length(),
            math.ldexp(float((deg + 1) * magnitude), -1074))


def _float_value(coefficients: tuple, x):
    """(s, bound) with |s - p(x)/x^deg| <= bound, in float64, for an mpf x
    with float(x) in [1, 2]; None for any other x, or when
    :func:`_float_plan` skips the polynomial.

    s = sum c_e y^n_e with y = 1/float(x) and n_e = deg - e.  Every y^n_e
    lies in (0, 1], so every term is at most |c_e| and nothing overflows at
    any degree.  The powers are products of the shared squarings
    y, y^2, y^4, ...  With u = 2^-53, to first order:

    - float(x) is within one ulp of x, 2u relative on [1, 2] whatever the
      rounding mode, and the division rounds once: y carries 3u.
    - Unfolded, y^n is a product tree of n leaves y and n - 1 rounded
      products, so it carries 3nu + (n - 1)u < 4nu, growing with n and not
      with the number of operations.
    - float(c_e) and the product c_e y^n round once each: 2u.
    - The t - 1 additions add at most (t - 1)u sum |term_e|.

    So |s - p(x)/x^deg| <= u sum |term_e| (4 n_e + t + 1).  A product that
    underflows to a subnormal adds at most 2^-1075, and the n_e - 1 of a
    power plus the one by c_e, each at most |c_e| once scaled, stay within
    the allowance (deg + 1) 2^-1074 sum |c_e|; additions of subnormals are
    exact.  ``bound`` is twice the sum of the two, as in
    :func:`_sign_slack`: the factor 2 covers the higher-order terms (4 deg u
    < 2^-19), the use of computed terms for exact ones and the rounding of
    the bound itself.
    """
    plan = _float_plan(coefficients)
    if plan is None:
        return None
    xf = to_float(x._mpf_)
    if not 1.0 <= xf <= 2.0:
        return None
    terms, bits, underflow = plan
    squares = [1.0 / xf]
    for _ in range(bits - 1):
        squares.append(squares[-1] * squares[-1])
    total = weighted = 0.0
    for c, which, weight in terms:
        term = c * math.prod([squares[i] for i in which])
        total += term
        weighted += abs(term) * weight
    return total, 2.0 * (weighted * 2.0 ** -53 + underflow)


@functools.lru_cache(maxsize=16)
def _sign_slack(coefficients: tuple, precision_bits: int):
    """(terms + 4) 2^(1-prec) sum |c_e|: times x^deg, a bound on the error
    of a ``precision_bits`` evaluation of p at x >= 1 (see
    :func:`certified_sign`)."""
    with workprec(precision_bits):
        return (mpf(len(coefficients) + 4) * 2 ** (1 - precision_bits)
                * sum(abs(c) for _, c in coefficients))


def certified_sign(coefficients: tuple, x) -> int:
    """Sign of p(x) for a sparse coefficient tuple (descending exponents)
    and an mpf x >= 1, always exact, in up to three tiers.

    1. float64 (:func:`_float_value`): p(x)/x^deg has the sign of p(x), so
       a value beyond its proved error bound decides, counted in
       ``ROOT_SEARCH_COUNTS.float_signs``.
    2. The ambient precision, like :func:`evaluate_polynomial`.  Each
       power, product by an integer coefficient and partial sum is rounded
       once, with relative error at most 2^-prec, and every partial sum is
       at most sum |c_e| x^e <= sum |c_e| x^deg.  So the floating sum is
       within (terms + 2) 2^-prec sum |c_e| x^deg of p(x).  The slack of
       :func:`_sign_slack` times x^deg is twice that, which also covers the
       rounding of the bound itself.  A sum beyond the bound has the sign
       of p(x).
    3. Any other sign is settled by :func:`_exact_sign` and counted in
       ``ROOT_SEARCH_COUNTS.exact_signs``.
    """
    ROOT_SEARCH_COUNTS.evaluations += 1
    value = _float_value(coefficients, x)
    if value is not None and abs(value[0]) > value[1]:
        ROOT_SEARCH_COUNTS.float_signs += 1
        return 1 if value[0] > 0 else -1
    (deg, lead), *rest = coefficients
    top = x ** deg
    total = lead * top
    for e, c in rest:
        total += c * x ** e
    if abs(total) > _sign_slack(coefficients, mp.prec) * top:
        return 1 if total > 0 else -1
    ROOT_SEARCH_COUNTS.exact_signs += 1
    return _exact_sign(coefficients, x)


def polynomial_string(spec: PolynomialSpec) -> str:
    """ASCII rendering like ``x^7-x^4-x^3-x^2+x+1``."""
    parts = []
    for e, c in spec.coefficients:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif e == 1:
            body = "x" if mag == 1 else f"{mag}x"
        else:
            body = f"x^{e}" if mag == 1 else f"{mag}x^{e}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out


def descartes_bound_above_one(spec: PolynomialSpec) -> int:
    """Bound on the number of roots of p in (1, inf), counted with
    multiplicity: the sign variations of p's coefficients, less one when
    p(1) = 0.

    By Descartes' rule of signs the variations bound the positive roots of
    p, and a root at 1 is one of them.  A bound of 1 leaves room for at most
    one root above 1, so a sign change of p above 1 is that root, and it is
    simple.  Every family member has the bound 1, for every m: the
    coefficient signs are + - - - + +, + - - +, + - - and + - - +, and
    p(1) = 0 except for OMEGA_3.  The count reads each term once, whatever
    the degree.
    """
    signs = [c > 0 for _, c in spec.coefficients]
    variations = sum(a != b for a, b in zip(signs, signs[1:]))
    return variations - (sum(c for _, c in spec.coefficients) == 0)


def _sign_right_of_one(spec: PolynomialSpec) -> int:
    """Sign of p on (1, 1 + eps) for all small enough eps > 0: the sign of
    the first nonzero derivative p^(n)(1) = sum c_e e!/(e-n)!, computed
    exactly on the integer coefficients.  The derivative of order deg p is
    nonzero, so the loop returns."""
    for n in range(spec.coefficients[0][0] + 1):
        d = sum(c * math.perm(e, n) for e, c in spec.coefficients)
        if d:
            return 1 if d > 0 else -1


@functools.lru_cache(maxsize=8)
def _scan_grid(precision_bits: int) -> tuple:
    """The points 1 + 1e-9, then 1e-3 apart, up to and including 2, summed
    one step at a time at ``precision_bits`` and clipped to 2 at the end."""
    with workprec(precision_bits):
        grid = [1 + _SCAN_OFFSET]
        while grid[-1] < 2:
            b = grid[-1] + _SCAN_STEP
            if b == grid[-1]:
                raise ValueError(f"{precision_bits} bits cannot resolve the scan step")
            grid.append(b if b <= 2 else mpf(2))
    return tuple(grid)


def smallest_root_above_one(spec: PolynomialSpec, abs_tol: float = DEFAULT_ROOT_TOL,
                            precision_bits: int = 160):
    """Smallest real root of the polynomial in (1, 2).

    Only a polynomial that :func:`descartes_bound_above_one` allows exactly
    one root above 1 is searched; every family member is one.  Such a
    polynomial changes sign at most once above 1, so bisection over the
    indices of the scan grid (1 + 1e-9, then steps of 1e-3 up to 2) finds
    the first cell at whose right end the polynomial is zero or has changed
    sign, and that cell, bisected down to width ``abs_tol``, holds the only
    root above 1.  Every sign is exact: a ``precision_bits`` evaluation
    decides it when its error bound allows, and integer arithmetic
    otherwise (:func:`certified_sign`).
    When the grid shows no sign change, but the exact sign of p just right
    of 1 (:func:`_sign_right_of_one`) differs from its sign at 1 + 1e-9,
    the root lies in (1, 1 + 1e-9] and that cell is bisected instead, until
    its lower end leaves 1.

    Returns the lower end of the final bracket, where the polynomial still
    has its sign just right of 1; every family is negative between 1 and its
    smallest root, so the returned value is a base at which the defining
    inequalities hold, never one just past the root.  Deterministic for
    fixed inputs.

    Raises NoRootFound when the bound is 0 or no sign change is seen, which
    signals either a coefficient bug or insufficient precision, or when
    ``precision_bits`` cannot narrow the bracket further; ValueError unless
    2^(1 - precision_bits) <= abs_tol < inf (no bracket on [1, 2) is
    narrower than that ulp), or when the bound is 2 or more.
    """
    if not 0 < abs_tol < math.inf or abs_tol < math.ldexp(1.0, 1 - precision_bits):
        raise ValueError(f"abs_tol must be finite and at least 2^{1 - precision_bits}")
    bound = descartes_bound_above_one(spec)
    if bound == 0:
        raise NoRootFound(
            f"no sign change of {spec.family.value} m={spec.m} in (1,2)")
    if bound > 1:
        raise ValueError(
            f"{spec.family.value} m={spec.m} may have {bound} roots above 1; "
            "the search needs at most one")
    grid = _scan_grid(precision_bits)
    with workprec(precision_bits):
        tol = mpf(abs_tol)
        coefficients = spec.coefficients
        s0 = certified_sign(coefficients, grid[0])
        if s0 == 0:
            return grid[0]
        neg = s0 < 0

        def changed(j):
            sj = certified_sign(coefficients, grid[j])
            return sj == 0 or (sj < 0) != neg

        j = 1 + bisect.bisect_left(range(1, len(grid)), True, key=changed)
        if j < len(grid):
            lo, hi = grid[j - 1], grid[j]
        elif (_sign_right_of_one(spec) < 0) != neg:
            # the only root above 1 lies below the first grid point
            lo, hi, neg = mpf(1), grid[0], not neg
        else:
            raise NoRootFound(
                f"no sign change of {spec.family.value} m={spec.m} in (1,2)")
        while hi - lo > tol or lo == 1:
            mid = (lo + hi) / 2
            if mid in (lo, hi):
                raise NoRootFound(f"{precision_bits} bits cannot narrow the root "
                                  f"of {spec.family.value} m={spec.m} further")
            sm = certified_sign(coefficients, mid)
            if sm == 0:
                # nudge to the negative side of the exact hit
                hi = mid
                continue
            if (sm < 0) == neg:
                lo = mid
            else:
                hi = mid
        return lo


_FAMILIES = {"omega": (PolynomialFamily.OMEGA_1, PolynomialFamily.OMEGA_2,
                       PolynomialFamily.OMEGA_3),
             "lambda": (PolynomialFamily.LAMBDA,)}


@functools.lru_cache(maxsize=4096)
def _checked_threshold(sequence: str, m: int, abs_tol: float):
    """The ``"omega"`` or ``"lambda"`` threshold for m: the smallest root
    above 1 of the sequence's family polynomials, range-checked once.  A
    failed check raises, so it is never cached and fails on every call."""
    r = min(smallest_root_above_one(polynomial_spec(f, m), abs_tol)
            for f in _FAMILIES[sequence])
    if sequence == "lambda":
        with workprec(160):
            if not (1 < r < golden_ratio(160) + mpf(abs_tol)):
                raise NoRootFound(f"lambda threshold for m={m} outside (1, golden ratio)")
        return r
    if not (1 < r < 2):
        raise NoRootFound(f"omega threshold for m={m} outside (1,2)")
    return r


@functools.lru_cache(maxsize=4096)
def _threshold_band(sequence: str, m: int) -> tuple:
    """(lower, top) as pairs: the cached threshold, the lower end of a root
    bracket of width at most ``DEFAULT_ROOT_TOL`` below the true threshold,
    and a value more than that width above it (twice the width, at 160
    bits, so that rounding the sum cannot bring it below the bracket's
    upper end)."""
    lower = _checked_threshold(sequence, m, DEFAULT_ROOT_TOL)
    with workprec(160):
        top = lower + 2 * mpf(DEFAULT_ROOT_TOL)
    return to_pair(lower, 160), to_pair(top, 160)


def at_most_threshold(beta, sequence: str, m: int) -> bool:
    """Whether the mpf beta > 1 is at most the ``"omega"`` or ``"lambda"``
    threshold for m, exactly.

    A beta above the band of :func:`_threshold_band` is outside, and one at
    or below the cached threshold inside; both comparisons are exact, on
    pairs.  In between the sign decides, counted in
    ``ROOT_SEARCH_COUNTS.threshold_signs``: every family member has one
    root above 1 (:func:`descartes_bound_above_one`) and is negative
    between 1 and it, so beta is at most the threshold exactly when each of
    the sequence's members is at most 0 at beta (:func:`certified_sign`)."""
    _require_index(m)
    lower, top = _threshold_band(sequence, m)
    _, man, exp, _ = beta._mpf_  # beta > 1: the pair (man, exp), exactly
    if compare_pairs((man, exp), top) > 0:
        return False
    if compare_pairs((man, exp), lower) <= 0:
        return True
    ROOT_SEARCH_COUNTS.threshold_signs += 1
    return all(certified_sign(polynomial_spec(f, m).coefficients, beta) <= 0
               for f in _FAMILIES[sequence])


def omega_threshold(m: int, abs_tol: float = DEFAULT_ROOT_TOL):
    """Base threshold below which the majority-block generator is valid:
    the minimum of the three OMEGA family roots for this m."""
    _require_index(m)  # before the cache, where True would hit the entry of 1
    return _checked_threshold("omega", m, abs_tol)


def lambda_threshold(m: int, abs_tol: float = DEFAULT_ROOT_TOL):
    """Base threshold below which the steered-pair generator is valid:
    the smallest LAMBDA family root above 1.  Lies below (1+sqrt(5))/2."""
    _require_index(m)
    return _checked_threshold("lambda", m, abs_tol)


@functools.lru_cache(maxsize=64)
def golden_ratio(precision_bits: int = DEFAULT_PRECISION_BITS):
    with workprec(precision_bits):
        return (1 + mp.sqrt(5)) / 2


def below_golden_ratio(beta) -> bool:
    """Whether the mpf beta >= 1 lies below (1+sqrt(5))/2, exactly: the
    sign of beta^2 - beta - 1, which is negative on [1, golden ratio)."""
    return certified_sign(((2, 1), (1, -1), (0, -1)), beta) < 0
