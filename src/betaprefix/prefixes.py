"""Prefix enumeration and growth-rate estimation.

A binary word e_1..e_k is a k-prefix of x exactly when the composed map
orbit beta^k x - sum e_n beta^(k-n) stays inside the admissible interval
I = [0, 1/(beta-1)]; equivalently, when the partial sum sum e_n beta^-n
lies in the window [x - 1/(beta^k (beta-1)), x].  Both characterisations
are implemented on deliberately separate code paths so that each serves as
the other's oracle:

* ``enumerate_prefixes_branching`` expands the orbit tree breadth first and
  prunes children that leave the admissible interval (escape from the
  interval is permanent, so pruning loses nothing);
* ``enumerate_prefixes_direct`` tests all 2^k digit words against the
  partial-sum window with no pruning logic at all;
* ``count_prefixes_window`` counts the same window by a half-split
  (meet-in-the-middle) sum over float64 arrays, which makes counts at
  depths far beyond any materialisable enumeration cheap.  Its kernel,
  ``_count_in_windows``, also counts the cylinders behind the measure
  brackets of ``betaprefix.bernoulli``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mpf, workprec

from .errors import CapExceeded, InvalidPoint, MemoryGuard
from .numeric import (BetaContext, apply_word_pair, from_pair, map_pair,
                      pair_sum, to_pair)

DEFAULT_SURVIVOR_CAP = 10_000_000
DIRECT_K_CAP = 24
WINDOW_K_CAP = 44  # half arrays hold 2^(k/2) float64 entries
_CHUNK_BITS = 16  # a window count streams at most 2^16 head sums at a time
_REFRESH_LEVELS = 16  # closed-form value refresh cadence in the orbit tree


@dataclass(frozen=True)
class PrefixSet:
    """All valid k-prefixes of a point, with their orbit values.

    ``words`` is lexicographically sorted; ``orbit_values`` maps each word
    to the composed-map value, which lies in the admissible interval up to
    the context tolerance.
    """

    k: int
    words: tuple
    orbit_values: dict

    @property
    def count(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class GrowthEstimate:
    """log2 prefix counts over a k-range with min/max tail slopes."""

    k_values: tuple
    log2_counts: tuple
    lower_slope: float
    upper_slope: float


def _require_in_base_interval(ctx: BetaContext, x) -> tuple:
    """x at the context precision as a pair; InvalidPoint unless it lies in
    the admissible interval widened by the tolerance."""
    try:
        xp = to_pair(x, ctx.precision_bits)
    except ValueError:
        raise InvalidPoint(f"x={x} is not a finite point") from None
    if not ctx.base.contains_pair(xp):
        with workprec(ctx.precision_bits):
            raise InvalidPoint(f"x={from_pair(xp)} outside [0, 1/(beta-1)] beyond tolerance")
    return xp


def enumerate_prefixes_branching(ctx: BetaContext, x, k: int,
                                 survivor_cap: int = DEFAULT_SURVIVOR_CAP) -> PrefixSet:
    """Breadth-first orbit-tree expansion to depth k.

    A word of length j+1 is kept iff its parent was kept and its orbit
    value lies in the tolerance-closed admissible interval.  Words are
    produced in lexicographic order.  Orbit values are refreshed from the
    closed form every 16 levels to stop error accumulation (iterating
    multiplies the rounding error by beta per level).  Orbit values are
    ``numeric`` pairs, the children rounded as the mpf ``beta * v`` and
    ``beta * v - 1`` are under ``workprec``.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    prec = ctx.precision_bits
    base, xp = ctx.base, _require_in_base_interval(ctx, x)
    frontier = [("", xp)]
    for level in range(1, k + 1):
        nxt = []
        append = nxt.append
        for w, v in frontier:
            child = map_pair(ctx, 0, v)
            if base.contains_pair(child):
                append((w + "0", child))
            child = pair_sum(child, (-1, 0), prec)
            if base.contains_pair(child):
                append((w + "1", child))
        if len(nxt) > survivor_cap:
            raise MemoryGuard(
                f"frontier {len(nxt)} exceeds survivor cap {survivor_cap} "
                f"at level {level}")
        if level % _REFRESH_LEVELS == 0 and level < k:
            nxt = [(w, apply_word_pair(ctx, w, xp)) for w, _ in nxt]
        frontier = nxt
    return PrefixSet(k=k, words=tuple(w for w, _ in frontier),
                     orbit_values={w: from_pair(v) for w, v in frontier})


def enumerate_prefixes_direct(ctx: BetaContext, x, k: int,
                              k_cap: int = DIRECT_K_CAP) -> PrefixSet:
    """Exhaustive test of all 2^k digit words against the partial-sum
    window.  Shares no pruning logic with the branching path.  Cost is
    2^k, hence the hard cap."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > k_cap:
        raise CapExceeded(f"direct enumeration k={k} above cap {k_cap}")
    with workprec(ctx.precision_bits):
        x = mpf(x)
        _require_in_base_interval(ctx, x)
        bk = ctx.power(k)
        # window for the partial sums, tolerance mapped down by beta^-k
        tol_s = ctx.comparison_tolerance / bk
        win_lo = x - ctx.one_over_beta_minus_one / bk - tol_s
        win_hi = x + tol_s
        # split the digit sum in two halves so memory stays 2^(k/2);
        # every one of the 2^k words is still tested individually
        k1 = (k + 1) // 2
        low = [mpf(0)]
        for j in range(1, k1 + 1):
            p = 1 / ctx.power(j)
            low += [s + p for s in low]
        high = [mpf(0)]
        for j in range(k1 + 1, k + 1):
            p = 1 / ctx.power(j)
            high += [s + p for s in high]
        mask = (1 << k1) - 1
        kept = []
        for i in range(1 << k):
            s = low[i & mask] + high[i >> k1]
            if win_lo <= s <= win_hi:
                word = "".join("1" if (i >> (j - 1)) & 1 else "0"
                               for j in range(1, k + 1))
                kept.append((word, bk * (x - s)))
        kept.sort()
        return PrefixSet(k=k, words=tuple(w for w, _ in kept),
                         orbit_values={w: v for w, v in kept})


def _digit_sums(beta: float, first: int, last: int, start: float = 0.0) -> np.ndarray:
    """``start`` plus the sums of beta^-j over all subsets of j in
    [first, last], bit j - first of the index selecting digit j; terms are
    added in increasing j."""
    sums = np.empty(1 << (last - first + 1))
    sums[0] = start
    for j in range(first, last + 1):
        m = 1 << (j - first)
        np.add(sums[:m], beta ** -j, out=sums[m:2 * m])
    return sums


def _count_in_windows(beta: float, depth: int, windows) -> list:
    """Number of depth-``depth`` partial sums sum e_n beta^-n in each closed
    window ``(lo, hi)``; an empty window (hi < lo) counts 0.

    Meet in the middle (Horowitz & Sahni 1974): the sums of the last
    floor(depth/2) digits are sorted once; the sums of the first
    ceil(depth/2) digits stream past them in chunks of at most 2^16, one
    chunk per setting of the leading digits, so memory stays at one sorted
    half plus a chunk.  Each chunk is sorted before it is searched, which
    keeps the searches local and changes no count.  Every sum adds its
    terms in increasing n, so its float64 value does not depend on the
    chunking."""
    if not windows:
        return []
    k1 = (depth + 1) // 2
    tail = _digit_sums(beta, k1 + 1, depth)
    tail.sort()
    fixed = max(0, k1 - _CHUNK_BITS)  # leading digits fixed within a chunk
    counts = [0] * len(windows)
    for start in _digit_sums(beta, 1, fixed):
        head = _digit_sums(beta, fixed + 1, k1, start)
        head.sort()
        for i, (lo, hi) in enumerate(windows):
            if hi >= lo:
                counts[i] += int((np.searchsorted(tail, hi - head, side="right")
                                  - np.searchsorted(tail, lo - head, side="left")).sum())
    return counts


def count_prefixes_window(ctx: BetaContext, x, k: int) -> int:
    """Half-split window count of k-prefixes.

    Counts the partial sums of depth k in the window
    [x - beta^-k/(beta-1), x], widened by the comparison tolerance mapped
    down by beta^-k, with ``_count_in_windows``.  Runs in float64: for the
    depths this package targets (k <= 44) the window width dominates the
    float rounding error by many orders of magnitude, and no orbit is ever
    iterated, so the double-precision caveat for long orbits does not
    apply.  Agrees exactly with both enumerations away from window
    boundaries (checked in the test suite).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > WINDOW_K_CAP:
        raise MemoryGuard(f"window count k={k} above cap {WINDOW_K_CAP}")
    beta = float(ctx.beta)
    xf = float(x)
    _require_in_base_interval(ctx, x)
    if k == 0:
        return 1
    width = beta ** -k / (beta - 1.0)
    tol_s = float(ctx.comparison_tolerance) * beta ** -k
    return _count_in_windows(beta, k, [(xf - width - tol_s, xf + tol_s)])[0]


def growth_estimate(ctx: BetaContext, x, k_min: int, k_max: int) -> GrowthEstimate:
    """log2 N_k / k over [k_min, k_max] with tail-window extremes.

    ``lower_slope`` / ``upper_slope`` are the min/max of log2(N_k)/k over
    the tail window k in [ceil(k_max/2), k_max]; they bracket the lower and
    upper exponential growth rates at the resolution k_max affords.  Counts
    come from the window counter, so depth is limited by the half-array
    budget rather than by the survivor count.
    """
    if k_min < 8:
        raise ValueError("k_min must be at least 8")
    if k_max < k_min:
        raise ValueError("k_max must be >= k_min")
    ks = tuple(range(k_min, k_max + 1))
    logs = []
    for k in ks:
        n = count_prefixes_window(ctx, x, k)
        if n < 1:
            raise InvalidPoint(
                f"no k-prefix found at k={k}; x is outside the representable set")
        logs.append(math.log2(n))
    tail_start = max(k_min, math.ceil(k_max / 2))
    tail = [logs[i] / k for i, k in enumerate(ks) if k >= tail_start]
    return GrowthEstimate(k_values=ks, log2_counts=tuple(logs),
                          lower_slope=min(tail), upper_slope=max(tail))
