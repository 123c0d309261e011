"""betaprefix benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, so the benchmark measures the source tree it ships with.  Each
run starts fresh worker processes (``worker.py``).  ``--trace 0`` prints
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
``setup_s`` is the median over ``SETUP_SAMPLES`` fresh processes of the time
from spawn to the end of set-up; the set-up-only processes run half before
and half after the measured one, so the samples span the whole run.  Every
time is rescaled to the speed of the fastest host-speed probe any process of
the run saw (see ``hostspeed.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 with a result printed; 2 when the package source is missing
or the arguments are invalid; 1 when a worker fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0
# One thread per numeric pool: the client is single-threaded, and idle
# OpenBLAS workers spin after each ``local_dimension`` product, which the
# host-speed probe run next would read as host load.
SINGLE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}


SPEC = ROOT / "BENCHMARK.json"


def declared_metrics(trace: bool) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _spawn(args: list, deadline: float) -> tuple:
    """Run a worker to completion; returns (set-up time in probe units, parsed
    last stdout line).  The set-up interval is rescaled by the mean of the
    host-speed probes run just before the spawn and just after set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
    spawn_probe_ns = hostspeed.probe_ns()
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker overran the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    probe = (spawn_probe_ns + report["ready_probe_ns"]) / 2
    return (report["ready_ns"] - spawn_ns) / probe, report


def _at_speed(metrics: dict, ratio: float) -> None:
    """Move the worker's figures from its own fastest probe to the run's:
    times scale by ``ratio``, rates by its inverse."""
    metrics["throughput_rps"] /= ratio
    for name in ("latency_p50_ms", "latency_p95_ms"):
        metrics[name] *= ratio


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    wargs = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))]
    extra = 0 if trace else SETUP_SAMPLES - 1
    spawns = [_spawn(wargs + ["--setup-only"], deadline) for _ in range(extra // 2)]
    spawns.append(_spawn(wargs, deadline))
    report = spawns[-1][1]
    spawns += [_spawn(wargs + ["--setup-only"], deadline) for _ in range(extra - extra // 2)]
    if not trace:
        # every time at the speed of the fastest probe any process of the run saw
        ref_ns = min(r["probe_min_ns"] for _, r in spawns)
        _at_speed(report["metrics"], ref_ns / report["probe_min_ns"])
        report["setups"] = [units * ref_ns / 1e9 for units, _ in spawns]
        report["metrics"]["setup_s"] = statistics.median(report["setups"])
        report["info"]["probe_ref_ns"] = ref_ns
    return report


def _finite(value: float) -> float:
    """JSON has no infinity; a percentile that landed on a failed request
    reads as the largest float instead."""
    return value if math.isfinite(value) else sys.float_info.max


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="betaprefix benchmark, one run")
    workloads = [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "betaprefix" / "__init__.py").is_file():
        print(f"betaprefix source not found under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    metrics = report["metrics"]
    if set(metrics) != set(units):
        print(f"worker metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 1

    info = report["info"]
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload}  seed {info['seed']}  requests sha256 "
          f"{info['requests_sha256']} ({info['requests']} generated)")
    print(f"python {info['python']}  numpy {info['numpy']}  mpmath {info['mpmath']} "
          f"(backend {info['mpmath_backend']})")
    print(f"samples {attempted}  failed {failed}  failed_frac {failed / attempted:.6g}")
    if not args.trace:
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in report["setups"]))
        print(f"host-speed probe: fastest {info['probe_ref_ns'] / 1e3:.1f} us; throughput "
              f"before rescaling {info['raw_throughput_rps']:.4f}/s")
    else:
        gaps = info["request_gaps"]
        overhead = metrics["trace.overhead_frac"]
        print(f"request time outside layer spans: median {statistics.median(gaps):.4g}, "
              f"max {max(gaps):.4g} of a request; {sum(g <= overhead for g in gaps)} of "
              f"{len(gaps)} requests within trace.overhead_frac {overhead:.4g}")
    for name in sorted(units):
        print(f"{name:<28} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _finite(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
