"""Run workloads repeatedly on successive seeds and report each end-to-end
metric's median, quartiles and spread (Q3 - Q1 as a share of the median).

    python3 perfbench/stability.py                       # every workload, 10 runs
    python3 perfbench/stability.py --workload measure --runs 5
    python3 perfbench/stability.py --runs 1              # one pass over all workloads

A metric whose spread exceeds the bound BENCHMARK.json fixes for it is
flagged ``OVER``; one above a third of its bound is flagged ``tune``.
Runs are sequential, so they do not compete for the machine's cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append",
                        help="repeat to select several (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for workload in args.workload or names:
        results = []
        for seed in range(1, args.runs + 1):
            started = time.monotonic()
            res = run_once(workload, seed, args.seconds)
            results.append(res)
            values = " ".join(f"{k}={v['value']:.6g}{v['unit']}"
                              for k, v in res["metrics"].items())
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {values} "
                  f"(run took {time.monotonic() - started:.1f}s)", flush=True)
        if args.runs < 2:
            continue
        print(f"{workload}: {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, sp = spread(values)
            bound = bounds[name]
            flag = ""
            if sp > bound:
                flag, flagged = "OVER", flagged + 1
            elif sp > bound / 3:
                flag = "tune"
            print(f"{workload}: {name:<24} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{sp:>8.4f} {bound:>6} {flag}",
                  flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
