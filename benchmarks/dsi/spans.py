"""In-memory span recorder for the traced benchmark run.

The benchmark's own files open a span around each call into a layer's
public functions; nothing under ``src/`` is instrumented.  A span's
name is the per-layer metric its *self time* feeds (``dwrf.encode``
feeds ``dwrf.encode_s``): self time is the span's duration minus the
part its child spans cover, so per unit of work the self times of all
spans sum to the duration of the root span.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class SpanRecorder:
    """Keeps ``[name, start, end, parent, job]`` rows until the run ends."""

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, job: str = ""):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        row = [name, time.perf_counter(), 0.0, parent, job]
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, summed over all spans."""
        child_time = defaultdict(float)
        for _name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _job) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def inclusive_time(self, name: str) -> float:
        """Seconds between start and end, summed over spans called *name*."""
        return sum(end - start for n, start, end, _p, _j in self.spans if n == name)

    def write_chrome_trace(self, path) -> None:
        """Dump every span as a Chrome-trace complete event (``ph: X``)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"workload": self.workload, "job": job, "parent": parent},
            }
            for name, start, end, parent, job in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class NullRecorder:
    """The untraced run's recorder: every span is a no-op."""

    enabled = False

    def span(self, name: str, job: str = ""):
        return contextlib.nullcontext()
