"""In-memory spans and counts recorded around calls into hjmm.

A span is (name, start, end, parent, path id).  Spans nest through a
stack, so a span opened inside another one records it as its parent.
Counts (jumps, iterations, outcomes) are recorded at the same call
sites, tagged with the path they belong to.  Nothing is written until
the run ends; :meth:`Tracer.to_json` gives the whole record.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.paths: list[int | None] = []
        self.counts: list[tuple[str, float, int | None]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, path: int | None = None):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.paths.append(path)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            yield idx
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, path: int | None, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name, path):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float, path: int | None = None) -> None:
        self.counts.append((name, float(value), path))

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        own = [self.duration(i) for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.duration(i)
        return own

    def self_times_of(self, name: str) -> list[float]:
        own = self.self_times()
        return [own[i] for i, n in enumerate(self.names) if n == name]

    def spans_of(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def counts_of(self, name: str) -> list[float]:
        return [v for n, v, _ in self.counts if n == name]

    def to_json(self) -> dict:
        return {
            "spans": [[n, s, e, p, k] for n, s, e, p, k in zip(
                self.names, self.starts, self.ends, self.parents, self.paths)],
            "counts": [list(c) for c in self.counts],
        }


def untraced(name: str, path: int | None, fn, *args, **kwargs):
    """Same signature as :meth:`Tracer.call`, without recording anything."""
    return fn(*args, **kwargs)
