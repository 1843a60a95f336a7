"""In-memory spans for the traced run, recorded only from benchmark code.

A span is [id, name, start, end, parent, op, units]. Spans open around calls
into the program's public functions: the benchmark's own calls, a wrapping
ExecutorBackend, and a MemoryStore subclass handed to run(store=...). Nothing
in the program is patched. `units` is the work a span did (guide steps for a
compile layer, rows for a table put), or None.

Each operation's spans are folded into per-layer totals as the operation
ends, because self time needs only that operation's spans. The spans of the
first operations are kept and written out at the end.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from tsgflow import ExecutorBackend, MemoryStore

KEEP_SPANS = 5000


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic; spans open on several threads
        self.op = 0
        self.root: list | None = None  # parent for spans opened on engine worker threads
        self.current: list[list] = []
        self.kept: list[list] = []
        # name -> [count, inclusive s, self s, units]
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.idle = 0.0  # seconds of run() spans with no execute span open

    def begin(self, name: str, units: int | None = None) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][0] if stack else (self.root[0] if self.root else 0)
        span = [next(self._ids), name, time.perf_counter(), 0.0, parent, self.op, units]
        stack.append(span)
        self.current.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._local.stack.pop()

    def call(self, name: str, fn, *args, units: int | None = None, **kwargs):
        span = self.begin(name, units)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def finish_op(self, group: str | None = None) -> None:
        """Fold the spans recorded since the last call into the totals, under
        each span's name and, when given, under "<name>.<group>" too."""
        spans, self.current = self.current, []
        self.op += 1
        children: dict[int, list[list]] = defaultdict(list)
        for s in spans:
            children[s[4]].append(s)
        for s in spans:
            inclusive = s[3] - s[2]
            kids = children.get(s[0], ())
            own = inclusive - _union([(k[2], k[3]) for k in kids], s[2], s[3])
            for name in (s[1], f"{s[1]}.{group}") if group else (s[1],):
                t = self.totals[name]
                t[0] += 1
                t[1] += inclusive
                t[2] += own
                t[3] += s[6] or 0
            if s[1] == "engine.run":
                execs = [(k[2], k[3]) for k in kids if k[1] == "engine.execute"]
                self.idle += inclusive - _union(execs, s[2], s[3])
        if len(self.kept) < KEEP_SPANS:
            self.kept.extend(spans[: KEEP_SPANS - len(self.kept)])

    def get(self, name: str, field: int) -> float:
        """Field of a span name's totals: 0 count, 1 inclusive s, 2 self s, 3 units."""
        t = self.totals.get(name)
        return t[field] if t else 0

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, op, units in self.kept:
                handle.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "units": units}) + "\n")


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class TracedBackend(ExecutorBackend):
    """Wraps a backend so every execute() call is one span."""

    def __init__(self, inner: ExecutorBackend, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def execute(self, ctx):
        return self.tracer.call("engine.execute", self.inner.execute, ctx)


class TracedStore(MemoryStore):
    """MemoryStore whose put, get and ref calls are spans. A put or ref of a
    table is named "<name>.table" and carries the table's row count."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    def _traced(self, name: str, fn, key, *args):
        span = self.tracer.begin(name)
        try:
            ref = fn(key, *args)
        finally:
            self.tracer.end(span)
        if ref.kind == "table":
            span[1] += ".table"
            span[6] = ref.summary.row_count
        return ref

    def put(self, key, value):
        return self._traced("memory.put", super().put, key, value)

    def ref(self, key):
        return self._traced("memory.ref", super().ref, key)

    def get(self, key):
        return self.tracer.call("memory.get", super().get, key)
