"""One benchmark run in a fresh process: set up, run the closed loop, check
every result, print one JSON line.

Set-up is ``import betaprefix`` plus resolving ``omega_threshold(m)`` and
``lambda_threshold(m)`` for m = 1..64, the process-wide root cache that
``bound_report`` and the symbolic bases use.  The worker reports the
monotonic clock when set-up ends; ``run.py`` subtracts its spawn time.

Untraced (``--trace 0``): a single client sends the next request only when
the previous one has returned, until the requests have kept it busy for
``--seconds``, at least ``MIN_SAMPLES`` latencies are in, so that p95 has
ten samples beyond it, at least ``RSS_ROUNDS`` rounds have run, and the
last round of requests is complete.  The oracle runs between requests,
outside the timed interval, and so does a host-speed probe
(``hostspeed.probe_ns``) after every request.  Each latency is rescaled by
the mean of the probes on either side of it, to the speed of the fastest
probe of the run: ``latency * fastest / local``.  ``throughput_rps`` is the
requests completed per rescaled busy second over the whole loop; the
unrescaled figure is reported beside it.

Garbage collection is left to the interpreter's automatic collector, as in
any client of the library: the time it takes lands in whichever request
triggers it, and cyclic garbage that waits for a full collection (the memo
closure of ``bernoulli.measure_interval``) shows in ``peak_rss_mb``.  The
oracle leaves no cyclic garbage of its own.  The client's garbage grows
with the requests served, so ``peak_rss_mb`` is read once ``RSS_ROUNDS`` rounds
are done: a fixed amount of work, so a faster commit, which serves more
requests in ``--seconds``, does not read as a memory regression.

Traced (``--trace 1``): a fixed number of request rounds per workload, so every
work count repeats exactly for a seed.  Each request runs once untraced and
once traced, alternating which goes first; the ratio of the two total times
gives ``trace.overhead_frac``.  ``client.gc_collected`` counts the cyclic
garbage objects the collector frees over the run.  Spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

import mpmath
import numpy

import hostspeed
import spans
import workloads
from betaprefix import numeric

ROOT_M_MAX = 64
MIN_SAMPLES = 200  # nearest-rank p95 then has at least 10 samples beyond it
RSS_ROUNDS = 10  # peak_rss_mb is read after this many rounds, a fixed amount of work
LOOP_WALL_CAP_S = 110.0  # keeps a slow commit inside the 180 s run limit
TRACE_ROUNDS = {"generate": 5, "measure": 10}
OUT_DIR = Path(__file__).resolve().parent / "out"


def resolve_roots(call=workloads.direct_call) -> int:
    """Resolve every threshold the bound reports use; returns how many."""
    for m in range(1, ROOT_M_MAX + 1):
        call("numeric", numeric.omega_threshold, m)
        call("numeric", numeric.lambda_threshold, m)
    return 2 * ROOT_M_MAX


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; failed requests enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _attempt(workload: str, req: dict, call=workloads.direct_call):
    """Run and time one request; returns (latency_ns, result or None, error)."""
    t0 = time.perf_counter_ns()
    try:
        res = workloads.execute(workload, req, call)
    except Exception as exc:  # a failed request is counted, not fatal
        return time.perf_counter_ns() - t0, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter_ns() - t0, res, None


def _problems(workload: str, req: dict, res, error) -> list:
    if error is not None:
        return [error]
    try:
        return workloads.check(workload, req, res)
    except Exception as exc:  # an oracle that cannot run marks the result wrong
        return [f"oracle raised {type(exc).__name__}: {exc}"]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_loop(workload: str, requests: list, seconds: float,
               execute=_attempt) -> dict:
    latencies = []  # in probe units: latency over the host-speed probe around it
    failures = []
    round_size = workloads.ROUND_SIZE[workload]
    ok = 0
    busy_ns = 0
    busy_units = 0.0
    peak_rss_mb = None
    probes = [hostspeed.probe_ns()]
    started = time.monotonic()
    i = 0

    def unfinished():
        return (busy_ns < seconds * 1e9 or len(latencies) < MIN_SAMPLES or i % round_size
                or peak_rss_mb is None)

    while unfinished() and time.monotonic() - started < LOOP_WALL_CAP_S:
        req = requests[i % len(requests)]
        i += 1
        ns, res, error = execute(workload, req)
        probes.append(hostspeed.probe_ns())
        units = ns / ((probes[-2] + probes[-1]) / 2)
        busy_ns += ns
        busy_units += units
        problems = _problems(workload, req, res, error)
        if problems:
            failures.append((req["i"], problems))
            latencies.append(math.inf)
        else:
            latencies.append(units)
            ok += 1
        del res
        if i == RSS_ROUNDS * round_size:
            peak_rss_mb = _peak_rss_mb()
    if unfinished():
        print(f"timed run stopped at the wall cap after {len(latencies)} requests "
              f"and {busy_ns / 1e9:.1f} busy seconds, {i % round_size} requests into "
              f"a round; its percentiles and request mix are not comparable",
              file=sys.stderr)
    if peak_rss_mb is None:
        peak_rss_mb = _peak_rss_mb()
    ref_ns = min(probes)
    metrics = {
        "throughput_rps": ok / (busy_units * ref_ns / 1e9),
        "latency_p50_ms": percentile(latencies, 0.50) * ref_ns / 1e6,
        "latency_p95_ms": percentile(latencies, 0.95) * ref_ns / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    return {"attempted": len(latencies), "failures": failures, "metrics": metrics,
            "probe_min_ns": ref_ns, "raw_throughput_rps": ok / (busy_ns / 1e9)}


def traced_loop(workload: str, requests: list, tracer: spans.Tracer,
                roots_resolved: int) -> dict:
    totals = {}
    failures = []
    collected = [0]

    def count_collected(phase, info):
        if phase == "stop":
            collected[0] += info["collected"]

    gc.collect()
    gc.callbacks.append(count_collected)
    plain_ns = 0
    traced_ns = 0
    started = time.monotonic()
    n = 0
    count = TRACE_ROUNDS[workload] * workloads.ROUND_SIZE[workload]
    for n, req in enumerate(requests[:count], start=1):
        for traced in ((False, True) if n % 2 else (True, False)):
            if not traced:
                ns, _, _ = _attempt(workload, req)
                plain_ns += ns
                continue
            with tracer.span(req.get("kind", workload), "client", req["i"]):
                ns, res, error = _attempt(workload, req, tracer.call)
            traced_ns += ns
        problems = _problems(workload, req, res, error)
        if problems:
            failures.append((req["i"], problems))
        else:
            for name, value in workloads.counts(workload, req, res).items():
                totals[name] = totals.get(name, 0) + value
        del res
        if time.monotonic() - started > LOOP_WALL_CAP_S:
            print(f"traced run stopped after {n} requests at the wall cap; "
                  f"work counts will not repeat", file=sys.stderr)
            break
    # every object of cyclic garbage the requests left is found exactly once,
    # by an automatic collection or by this last one, so the total repeats
    gc.collect()
    gc.callbacks.remove(count_collected)
    totals["client.gc_collected"] = collected[0]
    metrics = layer_metrics(tracer, totals, roots_resolved)
    metrics["trace.overhead_frac"] = 1.0 - plain_ns / traced_ns
    return {"attempted": n, "failures": failures, "metrics": metrics}


def layer_metrics(tracer: spans.Tracer, totals: dict, roots_resolved: int) -> dict:
    layers = tracer.layer_totals()
    out = {}
    for layer in workloads.LAYERS:
        t = layers.get(layer, {"calls": 0, "self_ns": 0, "errors": 0})
        out[f"{layer}.calls"] = t["calls"]
        out[f"{layer}.self_s"] = t["self_ns"] / 1e9
        out[f"{layer}.errors"] = t["errors"]
    for name in ("client.gc_collected", "prefixes.window_cells",
                 "records.bytes_out", "records.lines_out", "generators.stage_words",
                 "generators.extensions", "bernoulli.mc_samples"):
        out[name] = totals.get(name, 0)
    out["numeric.roots_resolved"] = roots_resolved
    records_s = out["records.self_s"]
    out["records.bytes_per_s"] = out["records.bytes_out"] / records_s if records_s else 0.0
    gaps = tracer.request_gaps("client")
    glue_ns = sum(g for g, _ in gaps)
    total_ns = sum(d for _, d in gaps)
    out["trace.unattributed_frac"] = glue_ns / total_ns if total_ns else 0.0
    return out


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    if tracer is None:
        roots = resolve_roots()
    else:
        with tracer.span("setup", "setup", "setup"):
            roots = resolve_roots(tracer.call)
    ready_ns = time.monotonic_ns()
    ready_probe_ns = hostspeed.probe_ns()
    if args.setup_only:
        probe_min_ns = min(ready_probe_ns, *(hostspeed.probe_ns()
                                              for _ in range(hostspeed.REF_PROBES)))
        print(json.dumps({"ready_ns": ready_ns, "ready_probe_ns": ready_probe_ns,
                          "probe_min_ns": probe_min_ns}))
        return 0

    requests = workloads.make_requests(args.workload, args.seed)
    if tracer is None:
        out = timed_loop(args.workload, requests, args.seconds)
    else:
        out = traced_loop(args.workload, requests, tracer, roots)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    failures = out.pop("failures")
    for req_id, problems in failures[:5]:
        print(f"request {req_id} failed: {'; '.join(problems)}", file=sys.stderr)
    info = {"seed": args.seed, "requests_sha256": workloads.request_digest(requests),
            "requests": len(requests), **versions()}
    if tracer is not None:
        info["request_gaps"] = [g / d for g, d in tracer.request_gaps("client") if d]
    else:
        info["raw_throughput_rps"] = out["raw_throughput_rps"]
    print(json.dumps({"ready_ns": ready_ns, "ready_probe_ns": ready_probe_ns,
                      "probe_min_ns": min(ready_probe_ns, out.get("probe_min_ns", math.inf)),
                      "attempted": out["attempted"], "failed": len(failures),
                      "metrics": out["metrics"], "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
