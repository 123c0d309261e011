"""High-precision scalar core: the base context, the two expanding maps,
sparse integer polynomials and root finding certified by Descartes' rule
of signs.

Everything orbit-related is computed in software floating point (mpmath) at
the context's working precision.  64-bit doubles misclassify interval
membership after a few dozen map applications when beta is close to 1, so
the default working width is 128 bits with a comparison tolerance of 2^-64
for boundary classification.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from enum import Enum

from mpmath import mp, mpf, workprec

from .errors import NoRootFound, OutOfDomain

DEFAULT_PRECISION_BITS = 128
DEFAULT_ROOT_TOL = 1e-9

# Root scan grid: start just above 1 to skip the known root at x=1 and step
# by 1e-3 up to 2 (both are 53-bit values).  The grid needs no assumption on
# root gaps: a polynomial that Descartes' rule allows one root above 1
# changes sign at most once on it, and any other polynomial is walked in order.
_SCAN_OFFSET = mpf(10) ** -9
_SCAN_STEP = mpf(10) ** -3


class BetaContext:
    """A validated base beta in (1,2) with working precision and cached
    constants.

    Cached values: ``one_over_beta_minus_one`` (right endpoint of the
    admissible interval), ``core_lo = 1/(beta^2-1)`` and
    ``core_hi = beta/(beta^2-1)`` (the two-cycle that no orbit can jump
    over).  Interval membership uses ``comparison_tolerance`` so that
    closed-interval statements are not rejected through rounding.
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
                if self.comparison_tolerance < 0:
                    raise ValueError("comparison_tolerance must be nonnegative")
            self.one_over_beta_minus_one = 1 / (b - 1)
            self.core_lo = 1 / (b * b - 1)
            self.core_hi = b / (b * b - 1)
        self._powers = [mpf(1), self.beta]  # beta^n cache, grown on demand
        # Tables other modules build once per context (contexts are otherwise
        # immutable).  ``generators`` keeps here the validated steering
        # intervals, their tolerance-widened ends and those of the core and
        # of the base interval, the pair-mode check for each m, the majority
        # block words with their offsets, and the offset-sorted steering
        # words for each length.
        self.cache: dict = {}

    def __repr__(self):
        return (f"BetaContext(beta={mp.nstr(self.beta, 20)}, "
                f"precision_bits={self.precision_bits})")

    def power(self, n: int):
        """beta^n for n >= 0, cached."""
        if n < 0:
            raise ValueError("power() takes n >= 0")
        pw = self._powers
        if n >= len(pw):
            with workprec(self.precision_bits):
                while len(pw) <= n:
                    pw.append(pw[-1] * self.beta)
        return pw[n]

    def in_interval(self, x, lo, hi) -> bool:
        """Closed-interval membership widened by the comparison tolerance.

        Computed at the context precision: endpoint arithmetic at a lower
        ambient precision could round the widened endpoints past the values
        they are meant to include.
        """
        with workprec(self.precision_bits):
            tol = self.comparison_tolerance
            return lo - tol <= x <= hi + tol

    def in_base_interval(self, x) -> bool:
        return self.in_interval(x, 0, self.one_over_beta_minus_one)


def apply_map(ctx: BetaContext, digit: int, x):
    """One map step: returns beta*x - digit for digit in {0,1}."""
    if digit not in (0, 1):
        raise ValueError("digit must be 0 or 1")
    with workprec(ctx.precision_bits):
        return ctx.beta * mpf(x) - digit


def apply_word(ctx: BetaContext, word: str, x):
    """Closed-form composition of map steps along a binary word.

    For word digits e_1..e_k this returns beta^k * x - sum e_n beta^(k-n),
    which equals the left-to-right iteration of :func:`apply_map` up to
    accumulated rounding.
    """
    k = len(word)
    with workprec(ctx.precision_bits):
        acc = ctx.power(k) * mpf(x)
        for n, ch in enumerate(word, start=1):
            if ch == "1":
                acc -= ctx.power(k - n)
            elif ch != "0":
                raise ValueError(f"word must be over '0'/'1', got {word!r}")
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


def polynomial_spec(family: PolynomialFamily, m: int) -> PolynomialSpec:
    if m < 1:
        raise ValueError("m must be a positive integer")
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

    Finds the first cell of the scan grid (1 + 1e-9, then steps of 1e-3 up
    to 2) at whose right end the polynomial is zero or has changed sign,
    and bisects that cell down to width ``abs_tol``.  When
    :func:`descartes_bound_above_one` is 1 the polynomial changes sign at
    most once above 1, so the cell is found by bisection over grid indices
    and holds the only root above 1.  Otherwise the grid is walked in order,
    which finds the first of several sign changes.  Both searches find the
    same cell whenever the signs computed at the grid points are exact.
    When the bound is 1 and the grid shows no sign change, but the exact
    sign of p just right of 1 (:func:`_sign_right_of_one`) differs from its
    sign at 1 + 1e-9, the root lies in (1, 1 + 1e-9] and that cell is
    bisected instead, until its lower end leaves 1.

    Returns the lower end of the final bracket, where the polynomial still
    has its sign just right of 1; every family is negative between 1 and its
    smallest root, so the returned value is a base at which the defining
    inequalities hold, never one just past the root.  Deterministic for
    fixed inputs.

    Raises NoRootFound when no sign change is seen, which signals either a
    coefficient bug or insufficient precision, or when ``precision_bits``
    cannot narrow the bracket further; ValueError unless 0 < abs_tol < inf.
    """
    if not 0 < abs_tol < math.inf:
        raise ValueError("abs_tol must be positive and finite")
    grid = _scan_grid(precision_bits)
    with workprec(precision_bits):
        tol = mpf(abs_tol)
        f0 = evaluate_polynomial(spec, grid[0])
        if f0 == 0:
            return grid[0]
        neg = f0 < 0

        def changed(j):
            fj = evaluate_polynomial(spec, grid[j])
            return fj == 0 or (fj < 0) != neg

        cells = range(1, len(grid))
        single = descartes_bound_above_one(spec) == 1
        if single:
            j = 1 + bisect.bisect_left(cells, True, key=changed)
        else:
            j = next((j for j in cells if changed(j)), len(grid))
        if j < len(grid):
            lo, hi = grid[j - 1], grid[j]
        elif single and (_sign_right_of_one(spec) < 0) != neg:
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
            fm = evaluate_polynomial(spec, mid)
            if fm == 0:
                # nudge to the negative side of the exact hit
                hi = mid
                continue
            if (fm < 0) == neg:
                lo = mid
            else:
                hi = mid
        return lo


@functools.lru_cache(maxsize=4096)
def _cached_root(family: PolynomialFamily, m: int, abs_tol: float):
    return smallest_root_above_one(polynomial_spec(family, m), abs_tol)


@functools.lru_cache(maxsize=4096)
def _checked_threshold(sequence: str, m: int, abs_tol: float):
    """The ``"omega"`` or ``"lambda"`` threshold for m, range-checked once.
    A failed check raises, so it is never cached and fails on every call."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if sequence == "lambda":
        r = _cached_root(PolynomialFamily.LAMBDA, m, abs_tol)
        with workprec(160):
            if not (1 < r < golden_ratio(160) + mpf(abs_tol)):
                raise NoRootFound(f"lambda threshold for m={m} outside (1, golden ratio)")
        return r
    roots = [_cached_root(f, m, abs_tol) for f in
             (PolynomialFamily.OMEGA_1, PolynomialFamily.OMEGA_2,
              PolynomialFamily.OMEGA_3)]
    r = min(roots)
    if not (1 < r < 2):
        raise NoRootFound(f"omega threshold for m={m} outside (1,2)")
    return r


def omega_threshold(m: int, abs_tol: float = DEFAULT_ROOT_TOL):
    """Base threshold below which the majority-block generator is valid:
    the minimum of the three OMEGA family roots for this m."""
    return _checked_threshold("omega", m, abs_tol)


def lambda_threshold(m: int, abs_tol: float = DEFAULT_ROOT_TOL):
    """Base threshold below which the steered-pair generator is valid:
    the smallest LAMBDA family root above 1.  Lies below (1+sqrt(5))/2."""
    return _checked_threshold("lambda", m, abs_tol)


@functools.lru_cache(maxsize=64)
def golden_ratio(precision_bits: int = DEFAULT_PRECISION_BITS):
    with workprec(precision_bits):
        return (1 + mp.sqrt(5)) / 2
