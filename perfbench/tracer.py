"""Spans recorded from outside the library, around the benchmark's calls.

A span is (name, start, end, parent, job, probe).  Spans live in memory
and are written out once, when the run ends.  A probe span times an extra
call that only the traced run makes (for example ``lp.validate()``, which
``solve_lp`` also runs internally), so its time is excluded from the
tracing overhead.
"""

from __future__ import annotations

import json
from time import perf_counter


class NullTracer:
    """Untraced rounds: calls go straight through."""

    enabled = False
    job = None

    def call(self, name, fn, *args, probe=False, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = None  # id of the job the next spans belong to

    def call(self, name, fn, *args, probe=False, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter(), None, parent, self.job, probe]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def mark(self) -> int:
        """Position to pass to ``self_times`` to cover later spans only."""
        return len(self.spans)

    def self_times(self, since: int = 0, until: int | None = None
                   ) -> dict[str, tuple[float, int]]:
        """{name: (self seconds, calls)} over the spans recorded between the
        marks ``since`` and ``until``.  Self time is a span's duration minus
        the durations of its direct children."""
        spans = self.spans[since:until]
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None and parent >= since:
                child[parent - since] += end - start
        out: dict[str, tuple[float, int]] = {}
        for i, (name, start, end, _, _, _) in enumerate(spans):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child[i], calls + 1)
        return out

    def probe_seconds(self, since: int = 0) -> float:
        """Wall time of the outermost probe spans recorded since ``since``."""
        total = 0.0
        for name, start, end, parent, _, probe in self.spans[since:]:
            if probe and (parent is None or not self.spans[parent][5]):
                total += end - start
        return total

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job, probe in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job, "probe": probe}) + "\n")
