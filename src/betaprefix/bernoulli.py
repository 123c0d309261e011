"""Estimation of the fair-coin convolution measure and its local dimension.

The measure is the distribution of sum a_n beta^-n with independent fair
bits a_n; it is supported on [0, 1/(beta-1)] and satisfies the
self-similarity mu(E) = (mu(beta E) + mu(beta E - 1)) / 2.  Two estimators
are provided that serve as one another's oracle:

* the self-similarity unrolled to depth d (method ``"recursion"``): the
  points whose first d digits sum to S carry mass 2^-d and lie in the
  cylinder [S, S + beta^-d/(beta-1)], so the shares of cylinders inside and
  meeting an interval bracket its measure (the measure can be singular, so
  a point estimate without a bracket is meaningless), and
* a seeded Monte Carlo estimate over depth-truncated digit sums (method
  ``"monte-carlo"``).

``local_dimension`` uses the exact cylinder count by default, at depth
k_max + 14 for radii down to beta^-k_max.  On the local-dimension requests
of the perfbench ``measure`` workload that is the least offset at which no
tail-window bracket exceeds a quarter of its value; it costs about a
twelfth of offset 22, whose slopes it matches to about 1e-6.  Monte Carlo
keeps its own default depth, k_max + 22, and stays the independent oracle
of the tests.

Both run in double precision: no orbit is iterated, the depth is capped at
48, and the cylinder and truncation widths dominate the float rounding
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DepthExceeded, InvalidPoint
from .numeric import BetaContext
from .prefixes import _count_in_windows

MAX_DEPTH = 48
_MC_CHUNK = 1 << 19

METHOD_RECURSION = "recursion"
METHOD_MONTE_CARLO = "monte-carlo"
# default local-dimension depth is k_max plus this offset, per method
_DEPTH_OFFSET = {METHOD_RECURSION: 14, METHOD_MONTE_CARLO: 22}


def _three_sigma(p: float, n: int) -> float:
    """Plug-in three-sigma binomial allowance, floored at one hit."""
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


@dataclass(frozen=True)
class MeasureEstimate:
    """Bracketed estimate of the convolution measure of an interval."""

    interval: tuple
    value: float
    half_width: float
    depth: int
    method: str
    seed: Optional[int] = None
    samples: Optional[int] = None


@dataclass(frozen=True)
class LocalDimEstimate:
    """Log-measure slopes over shrinking balls at a point.

    slope_lower / slope_upper are the extremes of log mu([x-r, x+r]) / log r
    over the tail window (top third of the k-range, where the limit behaviour
    dominates the constants).  ``unstable`` flags measure estimates whose
    brackets exceed a quarter of their values inside the window.
    ``method`` and ``depth`` name the estimator and the digit depth that
    produced the measures.
    """

    x: float
    radii: tuple
    log_measures: tuple
    slope_lower: float
    slope_upper: float
    unstable: bool
    method: str
    depth: int


def _support_share(lo: float, hi: float, ub: float) -> Optional[float]:
    """Exact measure of [lo, hi] when it is settled by the support
    [0, ub] alone: 0 off it (the measure has no atoms, so touching an
    endpoint still scores 0), 1 over it, else None."""
    if hi <= 0.0 or lo >= ub:
        return 0.0
    if lo <= 0.0 and hi >= ub:
        return 1.0
    return None


def _sampled_estimates(beta: float, intervals, depth: int, samples: int,
                       seed: int) -> list:
    """Monte Carlo brackets of mu([lo, hi]) for each interval (see
    ``measure_monte_carlo``), all from one seeded set of digit sums drawn
    in chunks of ``_MC_CHUNK``."""
    powers = beta ** -np.arange(1, depth + 1)
    rng = np.random.default_rng(seed)
    tail = beta ** -depth / (beta - 1.0)
    outer_hits = [0] * len(intervals)
    inner_hits = [0] * len(intervals)
    for start in range(0, samples, _MC_CHUNK):
        n = min(_MC_CHUNK, samples - start)
        vals = rng.integers(0, 2, size=(n, depth), dtype=np.uint8) @ powers
        for i, (lo, hi) in enumerate(intervals):
            outer_hits[i] += int(((vals >= lo - tail) & (vals <= hi + tail)).sum())
            inner_hits[i] += int(((vals >= lo + tail) & (vals <= hi - tail)).sum())
    estimates = []
    for (lo, hi), o_hits, i_hits in zip(intervals, outer_hits, inner_hits):
        outer, inner = o_hits / samples, i_hits / samples
        estimates.append(MeasureEstimate(
            interval=(lo, hi), value=(outer + inner) / 2.0,
            half_width=(outer - inner) / 2.0 + _three_sigma(outer, samples),
            depth=depth, method=METHOD_MONTE_CARLO, seed=seed, samples=samples))
    return estimates


def _count_estimates(ctx: BetaContext, intervals, depth: int) -> list:
    """Cylinder-count brackets of mu([lo, hi]) for each interval (see
    ``measure_interval``), from one half-split count over all of them."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_DEPTH:
        raise DepthExceeded(f"recursion depth {depth} above cap {MAX_DEPTH}")
    if any(hi < lo for lo, hi in intervals):
        raise ValueError("interval endpoints out of order")
    beta = float(ctx.beta)
    ub = float(ctx.one_over_beta_minus_one)
    w = beta ** -depth / (beta - 1.0)  # cylinder width
    settled, windows = [], []
    for lo, hi in intervals:
        settled.append(_support_share(lo, hi, ub))
        if settled[-1] is None:
            # count the cylinders inside it, then those meeting it
            windows += [(lo, hi - w), (lo - w, hi)]
    counts = iter(_count_in_windows(beta, depth, windows))
    estimates = []
    for (lo, hi), v in zip(intervals, settled):
        if v is None:
            low, high = next(counts) * 2.0 ** -depth, next(counts) * 2.0 ** -depth
        else:
            low = high = v
        estimates.append(MeasureEstimate(
            interval=(lo, hi), value=(low + high) / 2.0,
            half_width=(high - low) / 2.0, depth=depth, method=METHOD_RECURSION))
    return estimates


def measure_interval(ctx: BetaContext, lo, hi, depth: int) -> MeasureEstimate:
    """Bracket of mu([lo, hi]) from the depth-``depth`` cylinders, with
    midpoint value and half-width.

    The lower bound is the share of cylinders [S, S + beta^-depth/(beta-1)]
    inside [lo, hi], the upper bound the share meeting it; the window
    counter of ``betaprefix.prefixes`` counts both exactly.  An interval
    meeting the support in at most an endpoint scores exactly 0 and one
    covering it exactly 1.
    """
    return _count_estimates(ctx, [(float(lo), float(hi))], depth)[0]


def measure_monte_carlo(ctx: BetaContext, lo, hi, samples: int, depth: int,
                        seed: int) -> MeasureEstimate:
    """Monte Carlo bracket for mu([lo, hi]) from depth-truncated digit sums.

    A truncated sum differs from the full one by at most
    tail = beta^-depth / (beta - 1), so the fraction of samples in
    [lo - tail, hi + tail] over-counts the measure (outer estimate) and the
    fraction in [lo + tail, hi - tail] under-counts it (inner estimate).
    The reported half-width combines the bracket with a three-sigma
    worst-case binomial sampling allowance.  Intervals off or over the
    support score exactly 0 or 1, as in ``measure_interval``.  All
    randomness flows from the required seed, so runs are reproducible.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    beta = float(ctx.beta)
    ub = float(ctx.one_over_beta_minus_one)
    lo_f, hi_f = float(lo), float(hi)
    if hi_f < lo_f:
        raise ValueError("interval endpoints out of order")
    share = _support_share(lo_f, hi_f, ub)
    if share is not None:
        return MeasureEstimate(interval=(lo_f, hi_f), value=share, half_width=0.0,
                               depth=depth, method=METHOD_MONTE_CARLO,
                               seed=seed, samples=samples)
    return _sampled_estimates(beta, [(lo_f, hi_f)], depth, samples, seed)[0]


def local_dimension(ctx: BetaContext, x, k_min: int, k_max: int,
                    method: str = METHOD_RECURSION, depth: Optional[int] = None,
                    samples: int = 1 << 21, seed: int = 0) -> LocalDimEstimate:
    """Slope estimates of log mu([x-r, x+r]) / log r over radii r = beta^-k
    for k in [k_min, k_max]; one half-split count or one sample set serves
    every radius.

    ``method`` is ``"recursion"`` (default: the exact cylinder-count
    brackets of ``measure_interval``) or ``"monte-carlo"`` (the sampled
    brackets of ``measure_monte_carlo``; only this method reads ``samples``
    and ``seed``).  When ``depth`` is None it is min(48, k_max + 14) for the
    count and min(48, k_max + 22) for Monte Carlo.
    """
    if k_min < 1 or k_max < k_min:
        raise ValueError("need 1 <= k_min <= k_max")
    if method not in (METHOD_RECURSION, METHOD_MONTE_CARLO):
        raise ValueError(f"unknown method {method!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    beta = float(ctx.beta)
    ub = float(ctx.one_over_beta_minus_one)
    xf = float(x)
    if not (0.0 < xf < ub):
        raise InvalidPoint(f"x={x} must lie strictly inside (0, 1/(beta-1))")
    if depth is None:
        depth = min(MAX_DEPTH, k_max + _DEPTH_OFFSET[method])
    ks = tuple(range(k_min, k_max + 1))
    radii = tuple(beta ** -k for k in ks)
    balls = [(xf - r, xf + r) for r in radii]
    if method == METHOD_MONTE_CARLO:
        estimates = _sampled_estimates(beta, balls, depth, samples, seed)
    else:
        estimates = _count_estimates(ctx, balls, depth)
    log_measures = tuple(math.log(max(e.value, 1e-300)) for e in estimates)
    window_start = k_max - max(1, (k_max - k_min + 1) // 3) + 1
    window = [(k, e) for k, e in zip(ks, estimates) if k >= window_start]
    slopes = [math.log(max(e.value, 1e-300)) / math.log(beta ** -k)
              for k, e in window]
    unstable = any(e.half_width > 0.25 * e.value for _, e in window
                   if e.value > 0)
    return LocalDimEstimate(x=xf, radii=radii, log_measures=log_measures,
                            slope_lower=min(slopes), slope_upper=max(slopes),
                            unstable=unstable, method=method, depth=depth)
