"""Span recording and self-time arithmetic for the benchmark's traced runs.

A :class:`Tracer` keeps spans in memory — name, thread, start, end,
parent, and a small ``args`` dict — and writes them once, at the end, as
a Chrome trace-event file (open it in Perfetto or ``chrome://tracing``).
Spans nest per thread: a span's parent is the innermost span still open
on the same thread when it began.

:func:`load_spans` reads such a file back and :func:`self_times` derives
each span's self time: its duration minus the part of its interval that
its direct children cover.  The self times of a span's subtree therefore
add up to the root span's duration exactly, which is the reconciliation
the benchmark checks.

Stdlib only; nothing here imports the program under test.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["Span", "Tracer", "load_spans", "self_times", "subtree"]


@dataclass
class Span:
    """One finished span (times in nanoseconds of a monotonic clock)."""

    id: int
    name: str
    tid: int
    start: int
    end: int
    parent: Optional[int] = None
    args: Dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """In-memory span recorder, safe to use from several threads."""

    def __init__(self) -> None:
        self._spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, args: Optional[Dict] = None) -> int:
        """Open a span on this thread; returns its id for :meth:`end`.

        ``args`` is kept by reference until the span ends, so the caller
        may still edit it."""
        stack = self._stack()
        record = [name, threading.get_ident(), time.perf_counter_ns(), None,
                  stack[-1] if stack else None, {} if args is None else args]
        with self._lock:
            span_id = len(self._spans)
            self._spans.append(record)
        stack.append(span_id)
        return span_id

    def end(self, span_id: int, args: Optional[Dict] = None) -> None:
        """Close the innermost open span of this thread, which must be
        ``span_id``, merging ``args`` into its arguments."""
        now = time.perf_counter_ns()
        stack = self._stack()
        if not stack or stack[-1] != span_id:
            raise RuntimeError(f"span {span_id} closed out of order")
        stack.pop()
        record = self._spans[span_id]
        record[3] = now
        if args:
            record[5].update(args)

    def spans(self) -> List[Span]:
        """Every finished span, in the order they began."""
        with self._lock:
            records = list(self._spans)
        return [Span(index, name, tid, start, end, parent, args)
                for index, (name, tid, start, end, parent, args)
                in enumerate(records) if end is not None]

    def write(self, path: str) -> None:
        """Write the finished spans as Chrome trace events (``ph: X``)."""
        events = []
        for span in self.spans():
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": span.tid,
                "ts": span.start / 1000.0,
                "dur": span.duration / 1000.0,
                "args": dict(span.args, id=span.id, parent=span.parent),
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


def load_spans(path: str) -> List[Span]:
    """Read back a file written by :meth:`Tracer.write`."""
    with open(path, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    spans = []
    for event in events:
        args = dict(event["args"])
        span_id = args.pop("id")
        parent = args.pop("parent")
        start = round(event["ts"] * 1000)
        spans.append(Span(span_id, event["name"], event["tid"], start,
                          start + round(event["dur"] * 1000), parent, args))
    return spans


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """``{span id: self time in ns}``: duration minus child coverage.

    Coverage is the union of the direct children's intervals clipped to
    the parent, so overlapping or overhanging children are never
    subtracted twice.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, int] = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


def subtree(spans: Sequence[Span], roots: Iterable[int]) -> List[Span]:
    """The spans under (and including) the given root ids."""
    by_parent: Dict[int, List[Span]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.parent is not None:
            by_parent.setdefault(span.parent, []).append(span)
    picked: List[Span] = []
    pending = [by_id[root] for root in roots if root in by_id]
    while pending:
        span = pending.pop()
        picked.append(span)
        pending.extend(by_parent.get(span.id, ()))
    picked.sort(key=lambda s: s.id)
    return picked
