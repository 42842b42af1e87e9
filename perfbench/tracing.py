"""In-memory spans around the benchmark's calls into siginvert's layers.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index of
the enclosing span (``None`` for a job span) and ``job`` numbers the job
the span belongs to.  Spans stay in memory and are written out once, when
the run ends.  Spans are recorded from the benchmark's own files only;
the program itself is not instrumented.
"""

from __future__ import annotations

import json
import statistics
import time


class NoTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def job(self, fn, *args):
        return fn(*args)


class Tracer:
    """Records one span per call made through :meth:`call`."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job = -1

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._job])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def job(self, fn, *args):
        """Run one job as a parent span named ``job``."""
        self._job += 1
        return self.call("job", fn, *args)

    def per_job(self) -> list[dict]:
        """For every job: its duration, the summed duration of each child
        span name, the child count and the job's self time (the part of
        the job no child span covers)."""
        jobs = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent is None:
                jobs[i] = {"job_s": end - start, "layers": {}, "spans": 0}
        for name, start, end, parent, _ in self.spans:
            if parent in jobs:
                layers = jobs[parent]["layers"]
                layers[name] = layers.get(name, 0.0) + (end - start)
                jobs[parent]["spans"] += 1
        for job in jobs.values():
            job["self_s"] = job["job_s"] - sum(job["layers"].values())
        return list(jobs.values())

    def write(self, path, provenance: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"provenance": provenance,
                       "fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)


def median_layer(jobs: list[dict], name: str) -> float:
    """Median over jobs of one span name's summed time (0 when unused)."""
    return statistics.median(job["layers"].get(name, 0.0) for job in jobs)
