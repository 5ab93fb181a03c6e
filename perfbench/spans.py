"""In-memory span recorder and boundary counters for the traced run.

A span records a name, start, end and parent id; with memory=True it
also records the traced-memory peak it reached above the memory held
when it opened.  Memory tracing slows every allocation, so a tracer that
times spans leaves it off and a separate pass measures the peaks.
Counters are attached to the innermost open span, so a count can be
attributed to the layer whose call caused it.  Nothing is written until
the caller asks for the spans at the end of the run.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def start(self):
        if self.memory:
            tracemalloc.start()

    def stop(self):
        if self.memory:
            tracemalloc.stop()

    def _traced_memory(self) -> tuple[int, int]:
        return tracemalloc.get_traced_memory() if self.memory else (0, 0)

    def _reset_peak(self):
        if self.memory:
            tracemalloc.reset_peak()

    def _raise_parent_peak(self, peak: int):
        if self._stack:
            parent = self._stack[-1]
            parent["peak"] = max(parent["peak"], peak)

    @contextmanager
    def span(self, name: str):
        cur, peak = self._traced_memory()
        self._raise_parent_peak(peak)  # keep the parent's peak across the reset
        self._reset_peak()
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "counts": Counter(),
            "peak": cur,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            peak = max(self._traced_memory()[1], rec.pop("peak"))
            rec["peak_bytes"] = peak - cur if self.memory else None
            self._stack.pop()
            self._reset_peak()
            self._raise_parent_peak(peak)

    def count(self, key: str, value: float = 1):
        """Add to a counter of the innermost open span."""
        if self._stack:
            self._stack[-1]["counts"][key] += value

    def finished(self) -> list[dict]:
        """Spans with durations and self times, as plain data.

        Self time is a span's duration minus the part of it that its
        child spans cover."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = []
        for s in self.spans:
            covered, edge = 0.0, s["start"]
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], edge), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            dur = s["end"] - s["start"]
            out.append(
                {
                    "id": s["id"],
                    "parent": s["parent"],
                    "name": s["name"],
                    "start": s["start"],
                    "end": s["end"],
                    "dur_s": dur,
                    "self_s": dur - covered,
                    "peak_bytes": s["peak_bytes"],
                    "counts": dict(s["counts"]),
                }
            )
        return out


def count_calls(tracer: Tracer, fn, calls_key: str, pts_key: str, time_key=None):
    """Wrap fn(X, ...) so each call adds 1 to calls_key and len(X) to
    pts_key, and optionally its own run time to time_key."""

    def wrapped(X, *args, **kwargs):
        tracer.count(calls_key)
        tracer.count(pts_key, np.shape(X)[0] if np.ndim(X) == 2 else 1)
        t0 = time.perf_counter()
        out = fn(X, *args, **kwargs)
        if time_key is not None:
            tracer.count(time_key, time.perf_counter() - t0)
        return out

    return wrapped
