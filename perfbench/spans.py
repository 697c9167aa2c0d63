"""Spans recorded around calls into treeasym's layers, and the arithmetic on them.

The benchmark traces the program from outside: :func:`installed` replaces
each traced function at the place its caller looks it up (for example
``treeasym.varieties.series_exp``, not ``treeasym.series.series_exp``) with
a wrapper that records a :class:`Span`, and puts the originals back on exit.
Spans stay in memory; :meth:`Tracer.records` gives them as plain lists for
writing out or for sending from a child process to its parent.

Self time is a span's duration minus the part of it that its child spans
cover.  Busy time of a name is the total duration of its outermost spans,
so a name nested inside itself is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Span:
    """One call: name, start, end, index of the parent span, op id, counters."""

    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, end=None, parent=None, op=None, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.info = info or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``op`` labels the spans of the op in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = None

    def wrap(self, name, fn, note=None):
        """Return ``fn`` wrapped in a span; ``note(args, kwargs, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent=parent, op=self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.info = note(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def op_span(self, op_id, label, info=None):
        """Root span of one op; every span recorded inside it carries ``op_id``."""
        self.op = op_id
        span = Span(f"op:{label}", time.perf_counter(), op=op_id, info=info)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.op = None

    def adopt(self, records) -> None:
        """Append spans recorded by a child process under the current span.

        ``time.perf_counter`` reads the system-wide monotonic clock on Linux,
        so a child's span times share the parent's time axis.
        """
        offset = len(self.spans)
        top = self._stack[-1] if self._stack else None
        for name, start, end, parent, info in records:
            parent = top if parent is None else parent + offset
            self.spans.append(Span(name, start, end, parent, self.op, info))

    def records(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.info] for s in self.spans]


def layer_of(name: str) -> str:
    """``series.exp`` -> ``series``; op root spans belong to ``bench``."""
    return "bench" if name.startswith("op:") else name.split(".", 1)[0]


def children_index(spans) -> list[list[int]]:
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    return children


def covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    children = children_index(spans)
    out = []
    for span, kids in zip(spans, children):
        inner = covered([(spans[k].start, spans[k].end) for k in kids], span.start, span.end)
        out.append(span.duration - inner)
    return out


def ancestors(spans, i):
    p = spans[i].parent
    while p is not None:
        yield p
        p = spans[p].parent


def busy_times(spans) -> dict[str, float]:
    """Total duration per name, counting only spans with no same-name ancestor."""
    busy = defaultdict(float)
    for i, span in enumerate(spans):
        if not any(spans[a].name == span.name for a in ancestors(spans, i)):
            busy[span.name] += span.duration
    return busy


def nearest_info(spans, i, key):
    """``key`` from the closest ancestor span that records it, else None."""
    for a in ancestors(spans, i):
        if key in spans[a].info:
            return spans[a].info[key]
    return None


@contextlib.contextmanager
def installed(tracer: Tracer, points):
    """Swap each patch point for a traced wrapper; restore the originals on exit.

    A point is ``(owner, key, span_name, note)``; ``owner`` is a module, a
    frozen dataclass instance or a dict.
    """
    saved = []
    try:
        for owner, key, name, note in points:
            original = _get(owner, key)
            saved.append((owner, key, original))
            _set(owner, key, tracer.wrap(name, original, note))
        yield tracer
    finally:
        for owner, key, original in reversed(saved):
            _set(owner, key, original)


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        object.__setattr__(owner, key, value)  # also sets fields of frozen dataclasses
