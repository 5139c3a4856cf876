"""In-memory spans recorded around the calls the benchmark makes into lexopt.

A span is ``[name, start, end, parent, op, calls]``: ``name`` is the layer
(``<module>.<function>``), ``start``/``end`` are ``perf_counter`` seconds,
``parent`` is the index of the enclosing span or ``None``, ``op`` is the id
of the op the span belongs to, and ``calls`` is how many calls of the layer
the span covers (a replay block times many calls at once).  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter


def plain_call(name, fn, *args, **kwargs):
    """The untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str, calls: int = 1):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.op, calls]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def block(self, name: str, calls: int, fn):
        """Time ``fn()``, which makes ``calls`` calls of the layer ``name``."""
        with self.span(name, calls):
            return fn()

    def per_call(self, name: str) -> list[float]:
        """Seconds per call for every span of ``name``, in recording order."""
        return [(s[2] - s[1]) / s[5] for s in self.spans if s[0] == name]

    def median(self, name: str, scale: float = 1.0) -> float:
        return statistics.median(self.per_call(name)) * scale

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, calls, total and self seconds.

        Self time is a span's duration minus the time its child spans cover.
        Children of one span run one after another, so their durations add.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _calls in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        summary: dict[str, dict[str, float]] = {}
        for (name, start, end, _parent, _op, calls), covered in zip(self.spans, child_time):
            row = summary.setdefault(name, {"spans": 0, "calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["spans"] += 1
            row["calls"] += calls
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return summary
