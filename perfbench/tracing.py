"""In-memory spans and counters for the benchmark's own calls into akzeta.

A span records its name, start, end, parent span and job id.  Spans are kept
in a list while the job loop runs and are only turned into self times (span
duration minus the time its direct children cover) after the loop, so the
loop itself does no aggregation.  With tracing off, `span` returns one shared
no-op context manager.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.job: int | None = None

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters[name], value)

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]
