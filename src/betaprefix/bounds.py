"""Closed-form growth-rate bounds and thresholds.

Lower bounds for the lower growth rate of the prefix count: the explicit
kappa formula (valid for beta below the golden ratio) and the two
generator-driven dimension bounds 2m/(2m+1) (beta at most the omega
threshold) and 1/(m+2) (beta at most the lambda threshold).  Upper bounds
for the upper growth rate: log2(2^m - 1)/m for beta above 2^(1/m), plus
the separation property of the m-digit sum set near beta = 2.  Upper
bounds for the local dimension of the fair-coin convolution mirror the
same thresholds.  ``bound_report`` reads every threshold-driven bound for
one base off a single walk of the thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from mpmath import mp, workprec

from .errors import CapExceeded, OutOfDomain
from .numeric import (BetaContext, _sparse, at_most_threshold, below_golden_ratio,
                      certified_sign, golden_ratio, lambda_threshold,
                      omega_threshold)
from .prefixes import _digit_sums

DEFAULT_M_MAX = 64
SEPARATION_M_CAP = 20


@dataclass(frozen=True)
class LocalDimBound:
    """One candidate upper bound for the upper local dimension."""

    source: str  # "majority-generator", "pair-generator" or "kappa"
    m: Optional[int]
    value: float
    threshold: float  # largest beta at which the bound applies


@dataclass(frozen=True)
class BoundReport:
    """Every bound the formulas supply for one base.

    Lower bounds apply to the lower growth rate (hence to the limit when it
    exists); upper bounds to the upper growth rate; the two are therefore
    mutually consistent whenever both apply.
    """

    beta: object
    kappa: Optional[float]
    omega_bound: Optional[tuple]  # (m, 2m/(2m+1))
    lambda_bound: Optional[tuple]  # (m, 1/(m+2))
    best_lower: Optional[float]
    upper_bounds: tuple  # ((m, value, threshold), ...)
    local_dim_upper: tuple  # (LocalDimBound, ...)
    local_dim_min: Optional[float]


def kappa_lower_bound(ctx: BetaContext) -> float:
    """Explicit lower bound for the lower growth rate, for beta strictly
    below the golden ratio.

    Equals (1/2) / (floor(log_beta((beta^2-1)/(1+beta-beta^2))) + 1) above
    sqrt(2) and (1/2) / (floor(log_beta(1/(beta-1))) + 1) otherwise.

    The floor is exact.  floor(log_beta A) is the largest n with
    beta^n <= A, and for the two arguments A that is the largest n with
    p_n(beta) <= 0, for the integer polynomials x^(n+1) - x^n - 1 (at or
    below sqrt(2)) and x^n + x^(n+1) - x^(n+2) - x^2 + 1 (above it, where
    1 + beta - beta^2 > 0).  A candidate n from the ``mp.log`` value is
    stepped until p_n(beta) <= 0 < p_(n+1)(beta), each sign certified by
    ``numeric.certified_sign`` (float64, then the context precision, then
    integers; the integer tier's cost grows with n), as are beta's
    comparisons with sqrt(2) and the golden ratio.  The candidate takes
    1+beta-beta^2 exactly, at twice the context precision.
    """
    with workprec(ctx.precision_bits):
        b = ctx.beta
        if not below_golden_ratio(b):
            raise OutOfDomain(
                "kappa is defined for beta below (1+sqrt(5))/2 "
                "(the argument 1+beta-beta^2 must stay positive)")
        if certified_sign(((2, 1), (0, -2)), b) > 0:
            with workprec(2 * ctx.precision_bits):
                arg = (b ** 2 - 1) / (1 + b - b ** 2)
            terms = lambda n: [(n, 1), (n + 1, 1), (n + 2, -1), (2, -1), (0, 1)]
        else:
            arg = 1 / (b - 1)
            terms = lambda n: [(n + 1, 1), (n, -1), (0, -1)]

        def above(n):  # beta^n > A
            return certified_sign(_sparse(terms(n)), b) > 0

        fl = int(mp.floor(mp.log(arg) / mp.log(b)))
        while above(fl):
            fl -= 1
        while not above(fl + 1):
            fl += 1
        return 0.5 / (fl + 1)


def _walk_thresholds(ctx: BetaContext, m_max: int) -> tuple:
    """One walk of the generator thresholds up to index m_max, as
    (omega_pick, lambda_pick, kappa); each pick is (m, threshold) or None,
    and kappa is None from the golden ratio up.

    The omega thresholds decrease with m, so the best bound 2m/(2m+1) comes
    from the largest m with beta <= omega_m.  The lambda thresholds increase
    while the bound 1/(m+2) decreases, so the best comes from the smallest m
    with beta <= lambda_m.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    beta = ctx.beta
    kappa = None
    if below_golden_ratio(beta):
        kappa = kappa_lower_bound(ctx)
    omega_pick = None
    for m in range(1, m_max + 1):
        if not at_most_threshold(beta, "omega", m):
            break  # thresholds decrease; no larger m can qualify
        omega_pick = (m, omega_threshold(m))
    lambda_pick = None
    for m in range(1, m_max + 1):
        if at_most_threshold(beta, "lambda", m):
            lambda_pick = (m, lambda_threshold(m))
            break  # thresholds increase; the first hit is the best bound
    return omega_pick, lambda_pick, kappa


def upper_rate_bound(m: int):
    """Upper bound log2(2^m - 1)/m for the upper growth rate, valid for
    beta in (2^(1/m), 2); returns (value, validity_threshold)."""
    if m < 2:
        raise OutOfDomain("the upper rate bound needs m >= 2")
    # log2(2^m - 1) = m + log2(1 - 2^-m), stable for large m
    value = (m + math.log1p(-(2.0 ** -m)) / math.log(2)) / m
    return value, 2.0 ** (1.0 / m)


def upper_rate_bounds(ctx: BetaContext, count: int = 8) -> tuple:
    """The first ``count`` applicable upper bounds for this base, smallest m
    (hence tightest bound) first."""
    beta = float(ctx.beta)
    m_min = max(2, math.floor(math.log(2) / math.log(beta)) + 1)
    out = []
    m = m_min
    while len(out) < count:
        value, threshold = upper_rate_bound(m)
        if beta > threshold:
            out.append((m, value, threshold))
        m += 1
        if m > m_min + 4 * count:
            break
    return tuple(out)


def separation_holds(ctx: BetaContext, m: int) -> bool:
    """Whether all 2^m m-digit partial sums are pairwise farther apart than
    1/(2 beta^m (beta-1)).

    When this holds, every window of width 1/(beta^m (beta-1)) contains at
    most two of the sums, so prefix counts can at most double every m
    digits.  Sorting reduces the pairwise check to consecutive gaps.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if m > SEPARATION_M_CAP:
        raise CapExceeded(f"separation check capped at m={SEPARATION_M_CAP}")
    beta = float(ctx.beta)
    sums = _digit_sums(beta, 1, m)
    sums.sort()
    threshold = 1.0 / (2.0 * beta ** m * (beta - 1.0))
    return bool(np.diff(sums).min() > threshold)


def delta_search(m: int, abs_tol: float = 1e-8,
                 precision_bits: int = 64) -> float:
    """Numerical witness for the separation margin near beta = 2: the
    largest delta found such that the separation property holds on sampled
    bases in (2 - delta, 2).

    Scans downward from 2 on a 1e-3 grid for the first failure, then bisects
    the boundary to abs_tol.  This witnesses the margin numerically; it is
    not a certified bound.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if m > SEPARATION_M_CAP:
        raise CapExceeded(f"separation check capped at m={SEPARATION_M_CAP}")

    def holds(beta: float) -> bool:
        return separation_holds(BetaContext(beta, precision_bits), m)

    step = 1e-3
    b = 2.0 - step
    while b > 1.0 and holds(b):
        b -= step
    if b <= 1.0:
        return 1.0  # held on the whole sampled range
    lo, hi = b, b + step  # fails at lo, holds at hi
    while hi - lo > abs_tol:
        mid = (lo + hi) / 2.0
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return 2.0 - hi


def bound_report(ctx: BetaContext, m_max: int = DEFAULT_M_MAX) -> BoundReport:
    """The full report for one base, read off one walk of the thresholds up
    to index m_max.

    Lower bounds: kappa below the golden ratio, 2m/(2m+1) for the largest m
    with beta at most the omega threshold, and 1/(m+2) for the smallest m
    with beta at most the lambda threshold.  Upper bounds: the first
    :func:`upper_rate_bounds`.  Local-dimension upper bounds for the
    fair-coin convolution, from the same picks: (1/(2m+1)) log_beta 2,
    ((m+1)/(m+2)) log_beta 2 and (1 - kappa) log_beta 2.
    """
    omega_pick, lambda_pick, kappa = _walk_thresholds(ctx, m_max)
    log_beta_2 = float(mp.log(2) / mp.log(ctx.beta))
    lowers = [] if kappa is None else [kappa]
    local_dims = []
    omega_bound = lambda_bound = None
    if omega_pick:
        m, threshold = omega_pick
        omega_bound = (m, (2 * m) / (2 * m + 1))
        lowers.append(omega_bound[1])
        local_dims.append(LocalDimBound(
            source="majority-generator", m=m, value=log_beta_2 / (2 * m + 1),
            threshold=float(threshold)))
    if lambda_pick:
        m, threshold = lambda_pick
        lambda_bound = (m, 1 / (m + 2))
        lowers.append(lambda_bound[1])
        local_dims.append(LocalDimBound(
            source="pair-generator", m=m, value=log_beta_2 * (m + 1) / (m + 2),
            threshold=float(threshold)))
    if kappa is not None:
        local_dims.append(LocalDimBound(
            source="kappa", m=None, value=(1.0 - kappa) * log_beta_2,
            threshold=float(golden_ratio(ctx.precision_bits))))
    return BoundReport(
        beta=ctx.beta, kappa=kappa, omega_bound=omega_bound,
        lambda_bound=lambda_bound, best_lower=max(lowers, default=None),
        upper_bounds=upper_rate_bounds(ctx), local_dim_upper=tuple(local_dims),
        local_dim_min=min((c.value for c in local_dims), default=None))


def local_dim_upper(ctx: BetaContext, m_max: int = DEFAULT_M_MAX) -> tuple:
    """All applicable upper bounds for the upper local dimension of the
    fair-coin convolution at this base, as (candidates, minimum): the
    local-dimension fields of :func:`bound_report`."""
    report = bound_report(ctx, m_max)
    return report.local_dim_upper, report.local_dim_min
