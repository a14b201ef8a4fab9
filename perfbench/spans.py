"""Spans recorded around calls into the getme layers.

A traced run rebinds the names one getme module imports from another (for
example ``getme.smoothing.transform_triangles``) to wrappers that record a
span per call, and restores the original names afterwards.  Spans live in
memory; nothing inside ``src/getme`` changes.
"""

import contextlib
import time


class Tracer:
    """In-memory span recorder for one process and one thread.

    Each span is ``[name, start, end, parent, info]``: ``parent`` is the
    index of the enclosing span or -1, and ``info`` is a dict of counts the
    wrapper measured (rows, bytes, iterations, ...).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, info=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.clock(), None, parent, info or {}]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record[4]
        finally:
            self._stack.pop()
            record[2] = self.clock()

    def wrap(self, name, fn, measure=None):
        """``fn`` wrapped so that each call records a span.  ``measure``,
        if given, maps ``(args, kwargs, result, info)`` to extra counts."""

        def traced(*args, **kwargs):
            with self.span(name) as info:
                result = fn(*args, **kwargs)
                if measure is not None:
                    measure(args, kwargs, result, info)
                return result

        traced.__wrapped__ = fn
        return traced

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


@contextlib.contextmanager
def rebound(tracer, bindings):
    """Rebind ``(module, attribute, span_name, measure)`` entries to traced
    wrappers for the duration of the block, then restore the originals."""
    saved = []
    try:
        for module, attr, name, measure in bindings:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, measure))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def covered(intervals, start, end):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Per span: its duration minus the part its children cover."""
    children = [[] for _ in spans]
    for name, start, end, parent, info in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children[i], start, end)
        for i, (name, start, end, parent, info) in enumerate(spans)
    ]


def nesting_errors(spans):
    """Descriptions of spans that end before they start or that stick out of
    their parent; an empty list means children and self time add up to
    every parent's span."""
    errors = []
    for name, start, end, parent, info in spans:
        if end < start:
            errors.append(f"{name} ends before it starts")
        if parent >= 0:
            pname, pstart, pend = spans[parent][:3]
            if start < pstart or end > pend:
                errors.append(f"{name} lies outside its parent {pname}")
    return errors


def aggregate(spans):
    """Per span name: calls, total seconds, self seconds and the summed
    counts of ``info``.  Also ``<parent>><child>`` call counts, so a layer
    called from two places can be told apart."""
    totals = {}
    for (name, start, end, parent, info), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
        for key, value in info.items():
            entry[key] = entry.get(key, 0) + value
        if parent >= 0:
            edge = f"{spans[parent][0]}>{name}"
            totals.setdefault(edge, {"calls": 0})["calls"] += 1
    return totals
