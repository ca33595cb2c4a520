"""Spans and counters recorded around the benchmark's calls into hatlab.

Spans live in memory and are written out once, when the run ends. A span
records its name, its parent span, the pass (request) it belongs to, wall
start and end, and process CPU time. Counts taken from returned objects are
attached to the span of the call that produced them.

`NULL` is the tracer used for untraced passes: its spans do nothing, so the
end-to-end numbers are measured with tracing off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end", "cpu", "counts", "_tracer", "_cpu0")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self.counts: dict[str, int] = {}

    def __enter__(self) -> "Span":
        tr = self._tracer
        self.id = len(tr.spans)
        self.parent = tr._stack[-1] if tr._stack else None
        self.request = tr.request
        tr.spans.append(self)
        tr._stack.append(self.id)
        self._cpu0 = time.process_time()
        self.start = time.perf_counter() - tr.origin
        return self

    def __exit__(self, *exc) -> None:
        tr = self._tracer
        self.end = time.perf_counter() - tr.origin
        self.cpu = time.process_time() - self._cpu0
        tr._stack.pop()

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request: str | None = None
        self.origin = time.perf_counter()

    def span(self, name: str) -> Span:
        return Span(self, name)

    @contextmanager
    def patch(self, module, attr: str, name: str):
        """Record a span around calls that `module` makes through `module.attr`."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, inner)

    def totals(self, request: str) -> dict[str, dict[str, float]]:
        """Per span name within one request: wall s, self s, CPU s, calls and summed counts."""
        child_s = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_s[sp.parent] += sp.end - sp.start
        out: dict[str, dict[str, float]] = {}
        for sp in self.spans:
            if sp.request != request:
                continue
            agg = out.setdefault(sp.name, {"s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "calls": 0})
            agg["s"] += sp.end - sp.start
            agg["self_s"] += sp.end - sp.start - child_s[sp.id]
            agg["cpu_s"] += sp.cpu
            agg["calls"] += 1
            for key, value in sp.counts.items():
                agg[key] = agg.get(key, 0) + value
        return out

    def dump(self) -> list[dict]:
        return [
            {
                "id": sp.id,
                "parent": sp.parent,
                "request": sp.request,
                "name": sp.name,
                "start": sp.start,
                "end": sp.end,
                "cpu": sp.cpu,
                "counts": sp.counts,
            }
            for sp in self.spans
        ]


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def count(self, key: str, value: int) -> None:
        pass


class _NullTracer:
    enabled = False
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    @contextmanager
    def patch(self, module, attr: str, name: str):
        yield


NULL = _NullTracer()
