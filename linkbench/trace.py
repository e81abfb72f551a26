"""Spans and counters for the traced run, kept in memory until the end.

A span records (name, start, end, parent). Spans open around calls made
from the benchmark's own code, or around engine functions the benchmark
wraps by replacing a module attribute for the length of the traced run;
the engine itself carries no tracing code.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def child_seconds(self, parent: str) -> float:
        """Summed duration of the direct children of spans named `parent`."""
        ids = {s["id"] for s in self.spans if s["name"] == parent}
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] in ids)

    def timed_attr(self, owner, attr: str, name: str):
        """Replace `owner.attr` with a wrapper that opens span `name` per call."""

        def make(orig):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return orig(*args, **kwargs)

            return wrapper

        return patched(owner, attr, make)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


@contextlib.contextmanager
def patched(owner, attr: str, make):
    """Set `owner.attr` to `make(original)` inside the block, then restore it."""
    orig = getattr(owner, attr)
    setattr(owner, attr, make(orig))
    try:
        yield
    finally:
        setattr(owner, attr, orig)


def remote_cpu_s(ds) -> float:
    """Summed task CPU seconds Ray Data recorded for the operators that
    produced the materialized dataset `ds` (earlier materializations are
    not counted)."""
    summary = ds._get_stats_summary()
    return float(sum((op.cpu_time or {}).get("sum", 0.0) for op in summary.operators_stats))
