"""The host's current speed, read from a fixed pure-Python loop.

On a shared host with a few virtual cores, identical work runs up to 1.7x
slower in phases that last from seconds to tens of seconds, as other
tenants load the hardware under it.  A run of under a minute lands in a
different mix of phases on every seed, so raw timings spread past any
useful bound.  The benchmark therefore runs this probe next to every timed
interval, outside it, and rescales the interval by
``reference / local probe``: the time the work would have taken had the
host run at the speed of its fastest probe in the run.  Over 45 s of
identical ``measure`` request rounds on a 2-vCPU cloud VM, this took the
round-to-round spread (IQR over median) from 0.18 to 0.05 in one period and
from 0.13 to 0.07 in another.

The probe is plain interpreter work and touches no package code, so a
change to the package moves the rescaled figures as it moves the raw ones.
What the rescaling cannot tell from host load is a thread of the worker's
own that keeps a core busy between requests; ``run.py`` pins the numeric
libraries to one thread for that reason.
"""

from __future__ import annotations

import time

PROBE_REPS = 4000  # about 0.25 ms of interpreter work on a 2020s x86 core
PROBE_TIMES = 3  # the fastest of a few back-to-back runs drops a stray interrupt
REF_PROBES = 300  # extra probes a set-up-only process runs, so the run's fastest
                  # probe is sought over its whole span, not only the timed loop


def probe_ns() -> int:
    """Nanoseconds the fixed loop takes now: the fastest of PROBE_TIMES runs."""
    best = None
    for _ in range(PROBE_TIMES):
        t0 = time.perf_counter_ns()
        s = 0
        for i in range(PROBE_REPS):
            s += i * i % 7
        ns = time.perf_counter_ns() - t0
        best = ns if best is None else min(best, ns)
    return best
