"""In-memory spans for the traced run, and per-layer self time.

A span is (name, start, end, parent, request id). Spans are opened in
the benchmark's own code around calls into the program's public
functions; *derived* spans are built from durations the program already
exports (``host.phase.*`` of a record) and placed inside their parent,
so their durations are exact and their placement approximate. The
spans are kept in memory and written out once, when the run ends.

Self time: every instant of a root span is shared equally by the spans
that are open at that instant and have no open child (the innermost
ones). With sequential children this is exactly "the span minus the
time its children cover"; with children that overlap (pool workers,
concurrent requests) it splits the wall time between them, so the self
times of all spans under a root always add up to the root's duration.
"""

import itertools
import json
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "req",
                 "derived", "factor")

    def __init__(self, sid, name, start, parent, req):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.req = req
        #: built from exported durations, not timed here
        self.derived = False
        #: calibration factor, set on roots (one calibrated interval)
        self.factor = 1.0

    def as_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "req": self.req,
                "derived": self.derived, "factor": self.factor}


class Tracer:
    """Collects spans from any thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def open(self, name, parent=None, req=None, start=None):
        with self._lock:
            span = Span(next(self._ids), name,
                        time.perf_counter() if start is None else start,
                        None if parent is None else parent.id, req)
            self.spans.append(span)
        return span

    @staticmethod
    def close(span, end=None):
        span.end = time.perf_counter() if end is None else end
        return span

    def call(self, name, parent, fn, req=None):
        """``fn()`` inside a span; returns ``(result, span)``."""
        span = self.open(name, parent, req)
        try:
            return fn(), span
        finally:
            self.close(span)

    def add(self, name, start, end, parent, req=None):
        """A span whose times were measured elsewhere (a pool worker
        on the same monotonic clock), clipped to its parent."""
        span = self.open(name, parent, req,
                         start=max(start, parent.start))
        return self.close(span, max(span.start, min(end, parent.end)))

    def derive(self, parent, phases, req=None):
        """Lay ``(name, seconds)`` pairs end to end, finishing at
        ``parent.end`` (the phases ran just before the parent closed)."""
        total = min(sum(sec for _, sec in phases),
                    parent.end - parent.start)
        cursor = parent.end - total
        for name, seconds in phases:
            seconds = min(seconds, parent.end - cursor)
            if seconds <= 0:
                continue
            span = self.open(name, parent, req, start=cursor)
            span.derived = True
            cursor += seconds
            self.close(span, cursor)

    def self_times(self):
        """``{name: calibrated self seconds}`` over every root, and the
        calibrated total of the roots."""
        children = defaultdict(list)
        roots = []
        for span in self.spans:
            if span.end is None:
                continue
            if span.parent is None:
                roots.append(span)
            else:
                children[span.parent].append(span)
        out = defaultdict(float)
        total = 0.0
        for root in roots:
            tree = [root]
            stack = [root]
            while stack:
                for child in children.get(stack.pop().id, ()):
                    tree.append(child)
                    stack.append(child)
            for name, seconds in _share(tree).items():
                out[name] += seconds * root.factor
            total += (root.end - root.start) * root.factor
        return dict(out), total

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([s.as_dict() for s in self.spans], fh)


def _share(tree):
    """Sweep one root's spans, splitting each instant between the
    innermost open spans."""
    by_id = {s.id: s for s in tree}
    events = []
    for span in tree:
        events.append((span.start, 1, span))
        events.append((span.end, 0, span))
    # closes before opens at equal times, so zero-length gaps vanish
    events.sort(key=lambda e: (e[0], e[1]))
    open_children = defaultdict(int)
    is_open = set()
    leaves = set()
    out = defaultdict(float)
    last = None
    for when, kind, span in events:
        if last is not None and leaves and when > last:
            share = (when - last) / len(leaves)
            for leaf in leaves:
                out[by_id[leaf].name] += share
        last = when
        parent = span.parent if span.parent in by_id else None
        if kind == 1:
            is_open.add(span.id)
            if open_children[span.id] == 0:
                leaves.add(span.id)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(span.id)
            leaves.discard(span.id)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and parent in is_open:
                    leaves.add(parent)
    return out
