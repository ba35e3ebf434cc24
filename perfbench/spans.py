"""Spans around the benchmark's own calls into morphlab, kept in memory."""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span is the same do-nothing context."""

    enabled = False
    op = None

    def span(self, name):
        return _NULL


class Tracer:
    """Records [name, start, end, parent index, op id] for every span.

    `op` is set by the caller to the id of the operation in progress;
    spans opened while no span is open have no parent.
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def totals(self):
        """{span name: (summed time, summed self time, count)}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            total, own, count = out.get(name, (0.0, 0.0, 0))
            out[name] = (total + end - start, own + end - start - child_time[k], count + 1)
        return out

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
