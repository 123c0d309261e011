"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 1 is split in two: the table-reproduction test covers the nine
published threshold values that agree with their own defining polynomials,
and a separate test asserts the published omega_10 entry as stated.  That
entry (1.00172) is not a root of its polynomial, whose only root above 1 is
1.0017555 (two independent verifications in the notes ledger), so the
second test documents the discrepancy as an expected failure of the source
table rather than of the implementation.
"""

import math
import random
import subprocess
import sys
import time

import pytest
from mpmath import mpf, workprec

import betaprefix.cli as cli
from betaprefix import (BetaContext, apply_word, best_lower_bounds,
                        block_steering_interval, bound_report,
                        count_prefixes_window, delta_search,
                        enumerate_prefixes_branching, enumerate_prefixes_direct,
                        growth_estimate, lambda_threshold, local_dim_upper,
                        local_dimension, measure_interval, measure_monte_carlo,
                        omega_threshold, pair_steering_interval,
                        run_generator_m, run_generator_s3, upper_rate_bounds)
from betaprefix.bernoulli import METHOD_MONTE_CARLO

PUBLISHED = {
    ("omega", 1): "1.07445",
    ("omega", 2): "1.02838",
    ("omega", 3): "1.01492",
    ("omega", 10): "1.00172",   # inconsistent with its polynomial; see ledger
    ("omega", 100): "1.00003",
    ("lambda", 1): "1.32472",
    ("lambda", 2): "1.46557",
    ("lambda", 3): "1.53416",
    ("lambda", 10): "1.61575",
    ("lambda", 100): "1.61804",
}
LAST_DIGIT_UNIT = 1.5e-5  # one unit in the fifth decimal, plus rounding slack


def _report(n, ok, detail=""):
    print(f"ACCEPTANCE {n:>2}: {'PASS' if ok else 'FAIL'} {detail}")


def _central_x(rng, ctx, lo_frac=0.25, hi_frac=0.75):
    """Interior sample away from the endpoints: finite-depth estimates near
    the boundary are dominated by the entry transient, which the fixed
    slacks of the growth criteria cannot absorb."""
    ub = float(ctx.one_over_beta_minus_one)
    return rng.uniform(lo_frac * ub, hi_frac * ub)


# --------------------------------------------------------------- criterion 1

def _computed_thresholds():
    values = {}
    for m in (1, 2, 3, 10, 100):
        values[("omega", m)] = float(omega_threshold(m))
        values[("lambda", m)] = float(lambda_threshold(m))
    return values


def test_criterion_01_table_reproduction(capsys):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "betaprefix", "roots", "--reproduce-tables"],
        capture_output=True, text=True, timeout=60)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0
    # byte-stable across runs
    again = subprocess.run(
        [sys.executable, "-m", "betaprefix", "roots", "--reproduce-tables"],
        capture_output=True, text=True, timeout=60)
    values = _computed_thresholds()
    consistent = {key: txt for key, txt in PUBLISHED.items()
                  if key != ("omega", 10)}
    mismatches = [
        (key, txt, values[key]) for key, txt in consistent.items()
        if abs(values[key] - float(txt)) > LAST_DIGIT_UNIT
    ]
    rendered_ok = all(f"{values[key]:.5f}" in proc.stdout for key in values)
    with capsys.disabled():
        _report(1, proc.stdout == again.stdout and not mismatches
                and rendered_ok and elapsed < 5.0,
                f"(9/10 published values match, output byte-stable, "
                f"{elapsed:.1f}s < 5s; omega_10 entry tested separately)")
    assert proc.stdout == again.stdout
    assert rendered_ok
    assert not mismatches
    assert elapsed < 5.0


def test_criterion_01_published_omega10_entry(capsys):
    # asserted exactly as published; fails because the published entry is
    # not a root of its own polynomial (ledger has the analysis)
    value = float(omega_threshold(10))
    published = float(PUBLISHED[("omega", 10)])
    ok = abs(value - published) <= LAST_DIGIT_UNIT
    with capsys.disabled():
        _report(1, ok, f"(published omega_10={published}, computed {value:.7f}; "
                       f"entry inconsistent with its defining polynomial)")
    assert ok, (
        f"published omega_10 = {published} but the defining polynomial's "
        f"smallest root above 1 is {value:.9f}; the published entry fails "
        f"its own definition (see notes ledger)")


# --------------------------------------------------------------- criterion 2

def test_criterion_02_oracle_equivalence(capsys):
    start = time.monotonic()
    rng = random.Random(20)
    mismatches = 0
    for _ in range(200):
        ctx = BetaContext(rng.uniform(1.02, 1.98))
        x = rng.uniform(0.0, float(ctx.one_over_beta_minus_one))
        k = rng.randint(8, 16)
        bran = enumerate_prefixes_branching(ctx, x, k)
        direct = enumerate_prefixes_direct(ctx, x, k)
        if bran.words != direct.words:
            mismatches += 1
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(2, mismatches == 0 and elapsed < 120,
                f"(200 random pairs, k<=16, {mismatches} mismatches, "
                f"{elapsed:.1f}s < 120s)")
    assert mismatches == 0
    assert elapsed < 120


# ----------------------------------------------------- criteria 3 and 4

BLOCKS_BY_M = {1: 3, 2: 3, 3: 2}  # at most 3 blocks; sized to the time budget
RUNS_PER_M = 20


@pytest.fixture(scope="module")
def generator_runs():
    """Criterion-3 run collection, shared with criterion 4."""
    t0 = time.monotonic()
    rng = random.Random(33)
    majority = []
    for m in (1, 2, 3):
        top = omega_threshold(m)  # mpf; float() could round past the root
        for i in range(RUNS_PER_M):
            beta = top if i == 0 else 1 + rng.uniform(0.05, 0.999) * (float(top) - 1)
            ctx = BetaContext(beta)
            x = _central_x(rng, ctx)
            majority.append((ctx, m, x,
                             run_generator_m(ctx, m, x, BLOCKS_BY_M[m])))
    pair = []
    for m in (1, 2, 3):
        top = lambda_threshold(m)
        for i in range(RUNS_PER_M):
            beta = top if i == 0 else 1 + rng.uniform(0.05, 0.999) * (float(top) - 1)
            ctx = BetaContext(beta)
            x = _central_x(rng, ctx)
            pair.append((ctx, m, x, run_generator_s3(ctx, m, x, 3)))
    return majority, pair, time.monotonic() - t0


def test_criterion_03_generator_count_law(capsys, generator_runs):
    majority, pair, build_time = generator_runs
    start = time.monotonic()
    violations = 0
    subset_checks = 0
    for ctx, m, x, run in majority:
        iv = block_steering_interval(ctx, m)
        with workprec(ctx.precision_bits):
            for s, stage in enumerate(run.stages):
                if len(stage) != 2 ** (2 * m * s):
                    violations += 1
                for w, v in stage:
                    if not ctx.in_interval(v, iv.lo, iv.hi):
                        violations += 1
            # independent closed-form re-evaluation on a word sample
            sample = run.stages[-1][::max(1, len(run.stages[-1]) // 64)]
            for w, v in sample:
                exact = apply_word(ctx, w, mpf(x))
                if not ctx.in_interval(exact, iv.lo, iv.hi):
                    violations += 1
                if abs(exact - v) > mpf(2) ** -60:
                    violations += 1
        # every word is a true prefix: literal subset check when feasible
        k = run.entry_steps + run.num_blocks * run.block_length
        if k <= 14 and subset_checks < 6:
            direct = enumerate_prefixes_direct(ctx, x, k)
            if not set(run.stage_words(run.num_blocks)) <= set(direct.words):
                violations += 1
            subset_checks += 1
    for ctx, m, x, run in pair:
        iv = pair_steering_interval(ctx)
        with workprec(ctx.precision_bits):
            for s, stage in enumerate(run.stages):
                if len(stage) != 2 ** s:
                    violations += 1
                for w, v in stage:
                    if not ctx.in_interval(v, iv.lo, iv.hi):
                        violations += 1
                    exact = apply_word(ctx, w, mpf(x))
                    if abs(exact - v) > mpf(2) ** -60:
                        violations += 1
        k = run.entry_steps + run.num_blocks * run.block_length
        if k <= 14 and subset_checks < 12:
            direct = enumerate_prefixes_direct(ctx, x, k)
            if not set(run.stage_words(run.num_blocks)) <= set(direct.words):
                violations += 1
            subset_checks += 1
    elapsed = time.monotonic() - start + build_time
    with capsys.disabled():
        _report(3, violations == 0 and elapsed < 120,
                f"({len(majority)} majority runs, {len(pair)} pair runs, "
                f"{subset_checks} literal subset checks, {violations} violations, "
                f"{elapsed:.1f}s < 120s)")
    assert violations == 0
    assert elapsed < 120


def test_criterion_04_bridge_and_count_envelopes(capsys, generator_runs):
    majority, pair, _ = generator_runs
    violations = 0
    for ctx, m, x, run in majority:
        j = run.entry_steps
        L = run.block_length
        for s_from in range(run.num_blocks):
            for s_to in range(s_from + 1, run.num_blocks + 1):
                expected = 2 ** (2 * m * (s_to - s_from))
                for w in run.stage_words(s_from):
                    if run.descendant_count(s_from, w, s_to) != expected:
                        violations += 1
        for s, stage in enumerate(run.stages):
            k = j + s * L
            if len(stage) < 2 ** (2 * m * ((k - j) / L - 1)):
                violations += 1
        for s_from in range(run.num_blocks + 1):
            for w in run.stage_words(s_from)[:8]:
                for s_to in range(s_from, run.num_blocks + 1):
                    k = j + s_to * L
                    cap = 2 ** (2 * m * ((k - len(w)) / L + 2))
                    if run.descendant_count(s_from, w, s_to) > cap:
                        violations += 1
    for ctx, m, x, run in pair:
        for s_from in range(run.num_blocks):
            for s_to in range(s_from + 1, run.num_blocks + 1):
                for w in run.stage_words(s_from):
                    if run.descendant_count(s_from, w, s_to) != 2 ** (s_to - s_from):
                        violations += 1
    with capsys.disabled():
        _report(4, violations == 0,
                f"(bridge counts exact, floor/ceiling envelopes hold, "
                f"{violations} violations)")
    assert violations == 0


# --------------------------------------------------------------- criterion 5

def test_criterion_05_prefix_cap_above_threshold(capsys):
    start = time.monotonic()
    rng = random.Random(55)
    violations = 0
    for m in (2, 3):
        threshold = 2 ** (1 / m)
        for i in range(5):
            beta = threshold + (2 - threshold) * (i + 0.5) / 5
            ctx = BetaContext(beta)
            ub = float(ctx.one_over_beta_minus_one)
            for _ in range(100):
                x = rng.uniform(1e-6 * ub, (1 - 1e-6) * ub)
                if enumerate_prefixes_direct(ctx, x, m).count > 2 ** m - 1:
                    violations += 1
                if enumerate_prefixes_direct(ctx, x, 2 * m).count > (2 ** m - 1) ** 2:
                    violations += 1
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(5, violations == 0 and elapsed < 60,
                f"(m in {{2,3}}, 5 bases each, 100 points, {violations} "
                f"violations, {elapsed:.1f}s < 60s)")
    assert violations == 0
    assert elapsed < 60


# --------------------------------------------------------------- criterion 6

def test_criterion_06_separation_region(capsys):
    start = time.monotonic()
    delta1 = delta_search(1, abs_tol=1e-8)
    m1_ok = abs(delta1 - 0.5) < 1e-6
    rng = random.Random(66)
    delta3 = delta_search(3, abs_tol=1e-8)
    violations = 0
    for i in range(5):
        beta = 2 - delta3 * (i + 0.5) / 5
        ctx = BetaContext(beta)
        ub = float(ctx.one_over_beta_minus_one)
        for _ in range(20):
            x = rng.uniform(1e-6 * ub, (1 - 1e-6) * ub)
            for k in (1, 2, 3, 4):
                if enumerate_prefixes_direct(ctx, x, 3 * k).count > 2 ** k:
                    violations += 1
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(6, m1_ok and violations == 0,
                f"(delta(1)={delta1:.8f} vs 0.5, delta(3)={delta3:.6f}, "
                f"doubling cap violations {violations}, {elapsed:.1f}s)")
    assert m1_ok
    assert violations == 0


# --------------------------------------------------------------- criterion 7

def test_criterion_07_growth_vs_bounds(capsys):
    start = time.monotonic()
    rng = random.Random(77)
    failures = []
    for i in range(20):
        beta = 1.01 + (1.61 - 1.01) * (i + 0.5) / 20
        ctx = BetaContext(beta)
        rep = best_lower_bounds(ctx, m_max=64)
        uppers = upper_rate_bounds(ctx)
        min_upper = min(v for _, v, _ in uppers)
        best_lower = rep.best_lower if rep.best_lower is not None else 0.0
        for _ in range(5):
            x = _central_x(rng, ctx)
            est = growth_estimate(ctx, x, 8, 28)
            if not est.lower_slope > best_lower - 0.15:
                failures.append((beta, x, "lower", est.lower_slope, best_lower))
            if not est.upper_slope < min_upper + 0.15:
                failures.append((beta, x, "upper", est.upper_slope, min_upper))
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(7, not failures and elapsed < 600,
                f"(20 bases x 5 points at k=28, {len(failures)} failures, "
                f"{elapsed:.1f}s < 600s)")
    assert not failures, failures[:4]
    assert elapsed < 600


# --------------------------------------------------------------- criterion 8

def test_criterion_08_typical_slope_spot_check(capsys):
    rng = random.Random(88)
    hits = 0
    samples = []
    for _ in range(10):
        beta = rng.uniform(1.05, 1.40)
        ctx = BetaContext(beta)
        x = _central_x(rng, ctx)
        n = count_prefixes_window(ctx, x, 28)
        slope = math.log2(n) / 28
        err = abs(slope - math.log2(2 / beta))
        samples.append(err)
        if err < 0.08:
            hits += 1
    ok = hits >= 8
    with capsys.disabled():
        _report(8, ok, f"({hits}/10 samples within 0.08 of log2(2/beta), "
                       f"max err {max(samples):.4f})")
    assert ok


# --------------------------------------------------------------- criterion 9

def test_criterion_09_bernoulli_consistency(capsys):
    start = time.monotonic()
    rng = random.Random(99)
    disagreements = 0
    for beta in ("1.3", "1.5"):
        ctx = BetaContext(beta)
        ub = float(ctx.one_over_beta_minus_one)
        for i in range(20):
            lo = rng.uniform(0.0, 0.75 * ub)
            hi = lo + rng.uniform(0.02, 0.2 * ub)
            rec = measure_interval(ctx, lo, hi, 26)
            mc = measure_monte_carlo(ctx, lo, hi, 1 << 18, 40, seed=900 + i)
            if abs(rec.value - mc.value) > 3 * (rec.half_width + mc.half_width):
                disagreements += 1
    bound_failures = 0
    for beta in ("1.3", "1.5"):
        ctx = BetaContext(beta)
        _, bound = local_dim_upper(ctx, m_max=16)
        for i in range(5):
            x = _central_x(rng, ctx)
            est = local_dimension(ctx, x, 8, 15, method=METHOD_MONTE_CARLO,
                                  samples=1 << 20, seed=990 + i)
            if not est.slope_upper <= bound + 0.1:
                bound_failures += 1
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(9, disagreements == 0 and bound_failures == 0 and elapsed < 600,
                f"(40 interval agreements, 10 local-dim bound checks, "
                f"{disagreements} + {bound_failures} failures, "
                f"{elapsed:.1f}s < 600s)")
    assert disagreements == 0
    assert bound_failures == 0
    assert elapsed < 600


# -------------------------------------------------------------- criterion 10

def test_criterion_10_identity_property_suites(capsys):
    rng = random.Random(100)
    failures = 0
    # upper-map iteration identity from scaled core points
    for _ in range(500):
        ctx = BetaContext(rng.uniform(1.02, 1.98))
        n = rng.randint(0, 5)
        k = rng.randint(1, 10)
        with workprec(ctx.precision_bits):
            b = ctx.beta
            x = ctx.power(n) / (b * b - 1)
            expected = (ctx.power(n + k) - ctx.power(k + 1) - ctx.power(k)
                        + b + 1) / (b * b - 1)
            if abs(apply_word(ctx, "1" * k, x) - expected) > mpf(2) ** -80:
                failures += 1
    # extremal-word domination for majority words
    for _ in range(500):
        ctx = BetaContext(rng.uniform(1.05, 1.95))
        k = rng.randint(1, 3)
        with workprec(ctx.precision_bits):
            x = mpf(rng.uniform(0, float(ctx.one_over_beta_minus_one)))
            lo_val = apply_word(ctx, "1" * k + "0" * (k + 1), x)
            hi_val = apply_word(ctx, "0" * k + "1" * (k + 1), x)
            slack = mpf(2) ** -80
            length = 2 * k + 1
            for _ in range(8):
                bits = [rng.randint(0, 1) for _ in range(length)]
                w = "".join(map(str, bits))
                v = apply_word(ctx, w, x)
                if w.count("0") >= k + 1 and v - lo_val < -slack:
                    failures += 1
                if w.count("1") >= k + 1 and v - hi_val > slack:
                    failures += 1
    # endpoint preimage identities
    for _ in range(500):
        ctx = BetaContext(rng.uniform(1.05, 1.95))
        m = rng.randint(1, 8)
        with workprec(ctx.precision_bits):
            bm = ctx.power(m)
            slack = mpf(2) ** -80
            pre_one = (bm - 1) / (bm * (ctx.beta - 1))
            pre_zero = 1 / (bm * (ctx.beta - 1))
            if abs(apply_word(ctx, "1" * m, pre_one)) > slack:
                failures += 1
            if abs(apply_word(ctx, "0" * m, pre_zero)
                   - ctx.one_over_beta_minus_one) > slack:
                failures += 1
    with capsys.disabled():
        _report(10, failures == 0,
                f"(3 x 500 random identity instances, {failures} failures)")
    assert failures == 0
