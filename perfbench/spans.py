"""In-memory spans around the benchmark's calls into each layer.

A span is (name, layer, start_ns, end_ns, parent, request).  Spans stay in a
list while the run lasts and are written out once at the end.  A layer's
self time is the sum over its spans of the span's duration minus the part
of it covered by child spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int  # index of the parent span, -1 for a root
    request: object
    error: bool = False


class Tracer:
    """Records spans; ``call`` is a drop-in for ``workloads.direct_call``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, layer: str, request) -> int:
        parent = self._stack[-1] if self._stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent].request
        self.spans.append(Span(name, layer, time.perf_counter_ns(), 0, parent, request))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error: bool):
        span = self.spans[idx]
        span.end_ns = time.perf_counter_ns()
        span.error = error
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str, request=None):
        """A span around the ``with`` body; a child inherits its request."""
        idx = self._open(name, layer, request)
        try:
            yield
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)

    def call(self, layer: str, fn, *args, **kwargs):
        with self.span(fn.__name__, layer):
            return fn(*args, **kwargs)

    def self_times_ns(self) -> list:
        """Per-span self time: duration minus time covered by children."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end_ns - span.start_ns
        return [s.end_ns - s.start_ns - c for s, c in zip(self.spans, child_ns)]

    def layer_totals(self) -> dict:
        """{layer: {"calls", "self_ns", "errors"}} over all spans."""
        totals = defaultdict(lambda: {"calls": 0, "self_ns": 0, "errors": 0})
        for span, self_ns in zip(self.spans, self.self_times_ns()):
            t = totals[span.layer]
            t["calls"] += 1
            t["self_ns"] += self_ns
            t["errors"] += span.error
        return dict(totals)

    def request_gaps(self, root_layer: str) -> list:
        """(self_ns, duration_ns) of each root span of ``root_layer``: the
        part of a request that no layer span below it accounts for."""
        self_ns = self.self_times_ns()
        return [(self_ns[i], s.end_ns - s.start_ns) for i, s in enumerate(self.spans)
                if s.layer == root_layer and s.parent < 0]

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "layer": s.layer,
                                     "start_ns": s.start_ns, "end_ns": s.end_ns,
                                     "parent": s.parent, "request": s.request,
                                     "error": s.error}) + "\n")

