"""In-memory span recorder and the self-time arithmetic of the traced run.

Standard library only.  A span is one call into a layer: its name, start
and end (``time.perf_counter_ns``), the span that was open when it began
(its parent) and the op it belongs to.  Calls that happen tens of
thousands of times per op (the closed forms of the two-level model, one
per time point) are recorded as *leaf aggregates*: one record per
(parent, name) that counts the calls and sums the time spent in them, so
the record list stays small while the arithmetic below stays exact.

Every record carries ``busy``, the nanoseconds spent inside the call(s);
for an ordinary span that is ``end - start``.  The self time of a record
is its ``busy`` minus the ``busy`` of its direct children.  Summed over
all records of an op, self times give back the op's root span exactly.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

NO_PARENT = -1


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    op: int
    count: int = 1
    busy: int = 0


class Recorder:
    """Collects spans in memory; nothing is written until :meth:`dump`."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._leaves: dict[tuple[int, str], int] = {}
        self._op = NO_PARENT

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append(Span(name, self.clock(), 0, parent, self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = self.clock()
        span.busy = span.end - span.start

    @contextmanager
    def op(self, op_id: int, name: str = "op"):
        """Root span of one op; every span opened inside shares ``op_id``."""
        if self._stack:
            raise RuntimeError("an op cannot nest inside another span")
        self._op = op_id
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)
            self._op = NO_PARENT

    def wrap(self, fn, name: str):
        """``fn`` with each call recorded as its own span."""
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, fn, name: str):
        """``fn`` with its calls summed into one record per (parent, name).

        The wrapped function must not itself call traced functions: a
        leaf aggregate has no children.
        """
        clock = self.clock

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add_leaf(name, start, clock())
        traced.__wrapped__ = fn
        return traced

    def _add_leaf(self, name: str, start: int, end: int) -> None:
        parent = self._stack[-1] if self._stack else NO_PARENT
        key = (parent, name)
        index = self._leaves.get(key)
        if index is None:
            self._leaves[key] = len(self.spans)
            self.spans.append(Span(name, start, end, parent, self._op,
                                   count=1, busy=end - start))
            return
        span = self.spans[index]
        span.end = end
        span.count += 1
        span.busy += end - start

    def dump(self, path, header: dict) -> None:
        """Write the header and every span as gzip-compressed JSON lines."""
        with gzip.open(path, "wt") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps([span.name, span.start, span.end,
                                      span.parent, span.op, span.count,
                                      span.busy]) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Self time of every span: its busy time minus its children's."""
    own = [span.busy for span in spans]
    for span in spans:
        if span.parent != NO_PARENT:
            own[span.parent] -= span.busy
    return own


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, int]]:
    """Per span name: summed self time, summed busy time and call count."""
    totals: dict[str, dict[str, int]] = defaultdict(
        lambda: {"self": 0, "busy": 0, "count": 0})
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.name]
        entry["self"] += own
        entry["busy"] += span.busy
        entry["count"] += span.count
    return dict(totals)
