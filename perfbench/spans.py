"""In-memory span recorder for the benchmark's traced run.

A span is one call into a layer's public function, timed from the
benchmark's own code: name, start, end, the span that caused it and
the job or request it belongs to.  Spans stay in memory and are
written out once, when the run ends.  The untraced run uses
:data:`OFF`, whose ``span`` does nothing, so end-to-end numbers are
measured without the recorder.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext


class Spans:
    """Thread-safe span log; each thread keeps its own parent stack."""

    enabled = True

    def __init__(self):
        self.records: "list[dict]" = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op: str = ""):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.records.append({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op})

    def add(self, name: str, start: float, end: float, op: str = "") -> None:
        """Record a span timed elsewhere (e.g. from a request's due time)."""
        with self._lock:
            self.records.append({"id": next(self._ids), "name": name,
                                 "start": start, "end": end, "parent": None,
                                 "op": op})

    def total(self, name: str) -> float:
        """Summed wall seconds of every span with this name."""
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name)

    def self_seconds(self) -> "dict[str, float]":
        """Per-name self time: each span minus its child spans.

        Children of one parent run on the parent's thread, one after
        another, so their durations never overlap and simply add up.
        """
        child_time: "dict[int, float]" = {}
        for r in self.records:
            if r["parent"] is not None:
                child_time[r["parent"]] = (child_time.get(r["parent"], 0.0)
                                           + r["end"] - r["start"])
        out: "dict[str, float]" = {}
        for r in self.records:
            own = r["end"] - r["start"] - child_time.get(r["id"], 0.0)
            out[r["name"]] = out.get(r["name"], 0.0) + own
        return out

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.records,
                       "self_seconds": self.self_seconds()}, handle)


class _Off:
    """The untraced recorder: every call is a no-op."""

    enabled = False

    def span(self, name: str, op: str = ""):
        return nullcontext()

    def add(self, name: str, start: float, end: float, op: str = "") -> None:
        pass


OFF = _Off()
