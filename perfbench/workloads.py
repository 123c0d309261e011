"""Seeded request lists, the client calls each request makes, and the
correctness oracle for each result.

Two workloads treat ``betaprefix`` as a query service:

* ``generate`` -- symbolic base through ``cli.parse_scalar``, one generator
  run, JSON-line records.  mpmath orbits, ``generators`` and ``records`` run
  hot.  Only 8 distinct bases, so per-base caching can show here.
* ``measure`` -- the float64/numpy paths (window counter, Monte Carlo) and
  the pure-Python measure recursion; mpmath and ``records`` do almost
  nothing, the reverse of ``generate``.  Every base is distinct.

Requests are plain JSON-serialisable dicts drawn from ``random.Random(seed)``
so the same seed gives a byte-identical list (see ``request_digest``).  The
list is made of rounds; each round holds the discrete request kinds in their
exact proportions and Latin-hypercube stratifies the continuous parameters
within each kind.  Runs end on a round boundary, so every run has the same
cost mix and its percentiles stay steady from one seed to the next.

``execute`` makes the client calls through ``call(layer, fn, *args)`` so a
tracer can put a span around each call into a layer; ``check`` is the
oracle and runs outside the timed interval; ``counts`` derives the
per-layer work counts from a request and its result.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

from mpmath import mpf

from betaprefix import bernoulli, bounds, cli, generators, numeric, prefixes, records

WORKLOADS = ("generate", "measure")
LAYERS = ("cli", "numeric", "prefixes", "generators", "bounds", "bernoulli", "records")

REQUEST_ROUNDS = 480  # more rounds than any run needs; the loop cycles past them

PRECISION_BITS = numeric.DEFAULT_PRECISION_BITS
GROWTH_K_MIN = 8
LOCAL_DIM_K = (8, 14)
LOCAL_DIM_SAMPLES = 1 << 18
_EPS = 1e-12


# ---------------------------------------------------------------- requests

def _nested(rng: random.Random, n: int, rounds: int) -> list:
    """Per round, n values in [0,1) as (slice, u) pairs.

    [0,1) is cut into n * rounds equal slices, grouped n ways; each round
    draws one slice from every group and all rounds together draw every
    slice once, so a round is a stratified sample on its own and the rounds
    of a super-round are one on a finer grid.  ``u`` is jittered uniformly
    inside its slice.
    """
    out = [[] for _ in range(rounds)]
    for group in range(n):
        order = list(range(rounds))
        rng.shuffle(order)
        for r, fine in enumerate(order):
            piece = group * rounds + fine
            out[r].append((piece, (piece + rng.random()) / (n * rounds)))
    for values in out:
        rng.shuffle(values)
    return out


def _points(rng: random.Random, n: int, rounds: int, dims: int) -> list:
    """Per round, n points in [0,1)^dims, each dimension stratified as in
    ``_nested`` and the dimensions paired at random (a Latin hypercube)."""
    cols = [_nested(rng, n, rounds) for _ in range(dims)]
    return [[[u for _, u in point] for point in zip(*(col[r] for col in cols))]
            for r in range(rounds)]


def _pick(u: float, choices):
    """The choice a uniform u in [0,1) falls on, all choices equally likely."""
    return choices[min(int(u * len(choices)), len(choices) - 1)]


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _x_frac(u: float, lo: float, hi: float) -> str:
    return f"{_uniform(u, lo, hi):.9f}"


# majority mode: m in {1, 1, 2}, blocks uniform in 3..5 (m = 1) or 2..3 (m = 2),
# so per 18 requests (1, b) comes 4 times and (2, b) 3 times
_MAJORITY = (((1, 3),) * 4 + ((1, 4),) * 4 + ((1, 5),) * 4 + ((2, 2),) * 3
             + ((2, 3),) * 3)
_PAIR = tuple((m, b) for m in range(2, 6) for b in range(6, 10))
_COMBOS = (tuple((generators.MODE_MAJORITY, mb) for mb in _MAJORITY)
           + tuple((generators.MODE_STEERED_PAIR, mb) for mb in _PAIR))


def _generate_rounds(rng: random.Random, rounds: int) -> list:
    # each combo's x is stratified over the rounds of the super-round
    xs = [_nested(rng, 1, rounds) for _ in _COMBOS]
    return [[{"mode": mode, "m": m, "blocks": blocks,
              "x_frac": _x_frac(xs[c][r][0][1], 0.05, 0.95)}
             for c, (mode, (m, blocks)) in enumerate(_COMBOS)]
            for r in range(rounds)]


_DEPTHS = tuple(range(18, 23))
_RADII = tuple(range(6, 11))
_X_STEP = 23  # coprime to every super-round's slice count (12 * SUPER_ROUND)


def _measure_rounds(rng: random.Random, rounds: int) -> list:
    out = [[] for _ in range(rounds)]
    slices = 12 * rounds
    for kind in ("growth", "local_dim", "interval"):
        betas = _nested(rng, 12, rounds)
        rest = _points(rng, 12, rounds, 2)
        for r in range(rounds):
            for (piece, ub), u in zip(betas[r], rest[r]):
                req = {"kind": kind, "beta": f"{_uniform(ub, 1.2, 1.9):.6f}"}
                if kind == "interval":
                    # The recursion's time and memo grow like (2/beta)^depth
                    # and peak for balls near the middle of the support, so
                    # a few requests near beta = 1.2 set the run's tail and
                    # peak memory.  Depth, radius and x slice therefore follow
                    # the beta slice on a fixed lattice: every super-round
                    # holds the same costly corners, jittered within their
                    # slices, and runs on different seeds stay comparable.
                    req["x_frac"] = _x_frac(((piece * _X_STEP) % slices + u[0]) / slices,
                                            0.1, 0.9)
                    req["depth"] = _DEPTHS[-1 - piece % len(_DEPTHS)]
                    req["j"] = _RADII[(piece + piece // len(_DEPTHS)) % len(_RADII)]
                else:
                    req["x_frac"] = _x_frac(u[0], 0.1, 0.9)
                if kind == "growth":
                    req["k_max"] = _pick(u[1], range(28, 35))
                out[r].append(req)
    return out


_ROUNDS = {"generate": _generate_rounds, "measure": _measure_rounds}
# requests per round: a run ends on a round boundary, so every run holds the
# request kinds and parameter strata in the same proportions
ROUND_SIZE = {"generate": len(_COMBOS), "measure": 36}
SUPER_ROUND = 5  # rounds stratified together on a finer grid


def make_requests(workload: str, seed: int, rounds: int = REQUEST_ROUNDS) -> list:
    """The request list of a workload; the same seed gives the same list.

    Each round is shuffled, so the order mixes kinds."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    while len(out) < rounds * ROUND_SIZE[workload]:
        for batch in _ROUNDS[workload](rng, SUPER_ROUND):
            rng.shuffle(batch)
            out.extend(batch)
    return [{"i": i, **req} for i, req in enumerate(out[:rounds * ROUND_SIZE[workload]])]


def request_digest(requests: list) -> str:
    """SHA-256 of the canonical JSON form of a request list."""
    blob = json.dumps(requests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ------------------------------------------------------------------ client

@dataclass
class Result:
    """What the client received for one request, plus the inputs the oracle
    needs to re-derive it."""

    ctx: object
    x: object
    value: object  # GeneratorRun, GrowthEstimate, LocalDimEstimate, ...
    extra: object = None  # BoundReport / local-dim bounds for ``measure``
    text: str = ""  # JSON-line records, where the request produces them


def _point(ctx, x_frac: str):
    return ctx.one_over_beta_minus_one * mpf(x_frac)


def _exec_generate(call, req):
    m = req["m"]
    if req["mode"] == generators.MODE_MAJORITY:
        symbol, run_fn = f"omega:{m}", generators.run_generator_m
    else:
        symbol, run_fn = f"lambda:{m}", generators.run_generator_s3
    beta = call("cli", cli.parse_scalar, symbol, PRECISION_BITS)
    ctx = call("numeric", numeric.BetaContext, beta, PRECISION_BITS)
    x = _point(ctx, req["x_frac"])
    run = call("generators", run_fn, ctx, m, x, req["blocks"])
    recs = call("records", records.generator_run_records, run, ctx.beta, PRECISION_BITS)
    text = call("records", records.to_jsonl, recs)
    return Result(ctx, x, run, text=text)


def _ball(ctx, x, j: int):
    xf = float(x)
    r = float(ctx.beta) ** -j
    return xf - r, xf + r


def _exec_measure(call, req):
    ctx = call("numeric", numeric.BetaContext, req["beta"], PRECISION_BITS)
    x = _point(ctx, req["x_frac"])
    kind = req["kind"]
    if kind == "growth":
        est = call("prefixes", prefixes.growth_estimate, ctx, x,
                   GROWTH_K_MIN, req["k_max"])
        return Result(ctx, x, est, extra=call("bounds", bounds.bound_report, ctx))
    if kind == "local_dim":
        est = call("bernoulli", bernoulli.local_dimension, ctx, x, *LOCAL_DIM_K,
                   samples=LOCAL_DIM_SAMPLES, seed=req["i"])
        return Result(ctx, x, est, extra=call("bounds", bounds.local_dim_upper, ctx))
    lo, hi = _ball(ctx, x, req["j"])
    est = call("bernoulli", bernoulli.measure_interval, ctx, lo, hi, req["depth"])
    return Result(ctx, x, est)


_EXECUTORS = {"generate": _exec_generate, "measure": _exec_measure}


def direct_call(layer, fn, *args, **kwargs):
    """The untraced ``call``: no span, just the library call."""
    return fn(*args, **kwargs)


def execute(workload: str, req: dict, call=direct_call) -> Result:
    """Run one request the way a client of the library would."""
    return _EXECUTORS[workload](call, req)


# ------------------------------------------------------------------ oracle

def _check_generate(req, res):
    ctx, run = res.ctx, res.value
    problems = []
    if run.num_blocks != req["blocks"]:
        problems.append(f"{run.num_blocks} blocks, asked for {req['blocks']}")
    for s, stage in enumerate(run.stages):
        want = (2 ** (2 * req["m"] * s) if req["mode"] == generators.MODE_MAJORITY
                else 2 ** s)
        if len(stage) != want:
            problems.append(f"stage {s} has {len(stage)} words, expected {want}")
        length = run.entry_steps + s * run.block_length
        if any(len(w) != length for w, _ in stage):
            problems.append(f"stage {s} has a word not of length {length}")
    final = run.stage_words(run.num_blocks)
    escaped = sum(1 for w in final
                  if not ctx.in_base_interval(numeric.apply_word(ctx, w, run.x)))
    if escaped:
        problems.append(f"{escaped} final-stage orbits leave the base interval")
    lines = 1 + sum(1 + len(stage) for stage in run.stages)
    if res.text.count("\n") != lines:
        problems.append(f"{res.text.count(chr(10))} record lines, expected {lines}")
    return problems


def _in_unit(value: float) -> bool:
    return -_EPS <= value <= 1.0 + _EPS


def _check_growth(req, res):
    est, report = res.value, res.extra
    problems = []
    counts = [round(2.0 ** lc) for lc in est.log2_counts]
    if est.k_values != tuple(range(GROWTH_K_MIN, req["k_max"] + 1)):
        problems.append("growth estimate covers the wrong k range")
    for k, n0, n1 in zip(est.k_values, counts, counts[1:]):
        if not n0 <= n1 <= 2 * n0:
            problems.append(f"N_{k}={n0}, N_{k + 1}={n1} breaks N_k <= N_k+1 <= 2 N_k")
    if counts and counts[0] < 1:
        problems.append("no prefixes counted")
    if not est.lower_slope <= est.upper_slope:
        problems.append("lower slope above upper slope")
    uppers = [v for _, v, _ in report.upper_bounds]
    if report.best_lower is not None and uppers and report.best_lower > min(uppers):
        problems.append("best lower bound above the smallest upper bound")
    return problems


def _check_local_dim(req, res):
    est, (cands, minimum) = res.value, res.extra
    problems = []
    measures = [math.exp(lm) for lm in est.log_measures]
    if not all(_in_unit(v) for v in measures):
        problems.append("a ball measure lies outside [0, 1]")
    # radii shrink with k, so the measures of the nested balls must not grow
    if any(b > a for a, b in zip(measures, measures[1:])):
        problems.append("measures of nested balls are not monotone")
    if not est.slope_lower <= est.slope_upper:
        problems.append("lower slope above upper slope")
    if cands and minimum != min(c.value for c in cands):
        problems.append("local-dimension bound minimum is not the smallest candidate")
    if any(c.value <= 0 for c in cands):
        problems.append("nonpositive local-dimension bound")
    return problems


_MEMO_SCALE = 2.0 ** 48  # the memo-key grid of bernoulli.measure_interval


def _reference_rec(beta, ub, memo, a, b, d):
    if b <= 0.0 or a >= ub:
        return 0.0, 0.0
    a = max(a, 0.0)
    b = min(b, ub)
    if a <= 0.0 and b >= ub:
        return 1.0, 1.0
    if d == 0:
        return 0.0, 1.0
    key = (round(a * _MEMO_SCALE), round(b * _MEMO_SCALE), d)
    got = memo.get(key)
    if got is None:
        l0, h0 = _reference_rec(beta, ub, memo, beta * a, beta * b, d - 1)
        l1, h1 = _reference_rec(beta, ub, memo, beta * a - 1.0, beta * b - 1.0, d - 1)
        got = memo[key] = ((l0 + l1) / 2.0, (h0 + h1) / 2.0)
    return got


def _reference_measure(ctx, lo: float, hi: float, depth: int) -> tuple:
    """(lower, upper) bracket of mu([lo, hi]) by the recursion of
    ``bernoulli.measure_interval``, written without a recursive closure so
    that it leaves no reference cycle: the oracle then adds no garbage to the
    collections that the latencies and ``peak_rss_mb`` see."""
    return _reference_rec(float(ctx.beta), float(ctx.one_over_beta_minus_one), {},
                          lo, hi, depth)


def _check_interval(req, res):
    est = res.value
    problems = []
    lo, hi = est.value - est.half_width, est.value + est.half_width
    if not (_in_unit(lo) and _in_unit(hi) and lo <= hi):
        problems.append(f"measure bracket [{lo}, {hi}] not inside [0, 1]")
    # a nested ball can carry no more measure than the ball around it
    a, b = _ball(res.ctx, res.x, req["j"] + 1)
    inner_lo, _ = _reference_measure(res.ctx, a, b, req["depth"])
    if inner_lo > hi + _EPS:
        problems.append("inner ball measure exceeds the outer ball's bracket")
    return problems


_MEASURE_CHECKS = {"growth": _check_growth, "local_dim": _check_local_dim,
                   "interval": _check_interval}


def check(workload: str, req: dict, res: Result) -> list:
    """Correctness problems of one result; an empty list means correct."""
    if workload == "generate":
        return _check_generate(req, res)
    return _MEASURE_CHECKS[req["kind"]](req, res)


# ------------------------------------------------------------------ counts

def window_cells(k_min: int, k_max: int) -> int:
    """Half-array cells the window counter allocates over a k range."""
    return sum(2 ** math.ceil(k / 2) + 2 ** (k // 2) for k in range(k_min, k_max + 1))


def counts(workload: str, req: dict, res: Result) -> dict:
    """Per-layer work counts of one request, named as in BENCHMARK.json."""
    out = {}
    if res.text:
        out["records.bytes_out"] = len(res.text.encode())
        out["records.lines_out"] = res.text.count("\n")
    if workload == "generate":
        sizes = [len(stage) for stage in res.value.stages]
        out["generators.stage_words"] = sum(sizes)
        out["generators.extensions"] = sum(sizes[:-1])
    elif req["kind"] == "growth":
        out["prefixes.window_cells"] = window_cells(GROWTH_K_MIN, req["k_max"])
    elif req["kind"] == "local_dim":
        out["bernoulli.mc_samples"] = LOCAL_DIM_SAMPLES
    return out
