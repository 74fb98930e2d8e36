"""Spans recorded around the benchmark's own calls into the library.

A span is ``[name, op_id, parent, start, end]``; ``parent`` is the index of
the enclosing span or -1.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import time

_NULL = contextlib.nullcontext()


class Tracer:
    """Records spans when enabled.

    Disabled, it only remembers the innermost layer entered, so an op that
    fails or hits its deadline can still say where it stopped.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.op_id = -1
        self.layer = None
        self._stack: list = []

    def span(self, name: str):
        self.layer = name
        return _Span(self, name) if self.enabled else _NULL


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else -1
        t.spans.append([self.name, t.op_id, parent, time.perf_counter(), None])
        t._stack.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][4] = time.perf_counter()
        t._stack.pop()
        return False


def self_times(spans, weights) -> dict:
    """Span name -> (self seconds, calls), each span weighted by weights[op_id].

    Self time is a span's duration minus the part its direct children cover.
    """
    covered = [0.0] * len(spans)
    for _name, _op, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict = {}
    for i, (name, op, _parent, start, end) in enumerate(spans):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start - covered[i]) * weights[op], calls + 1)
    return out
