"""The staged driver's spans, and the folds that turn them into layer times.

The benchmark records a span around each public call it makes into the
program (``parse`` → ``optimize`` → ``execute_plan``; ``apply_updates`` /
``refresh_view`` / ``query``; ``submit`` → ``result``).  Spans live in
memory and are written out once, when the traced pass ends.  What happens
*inside* ``execute_plan`` is read from what the program already publishes
(``explain_analyze()`` rows, ``QueryResult.trace``); spans inside ``src/``
are a later change.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class BenchSpan:
    id: int
    name: str
    #: The operation this span belongs to (spans of one op share it).
    op: int
    parent: int | None
    start: float
    end: float | None = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class SpanRecorder:
    """Records nested spans on one thread (one recorder per client)."""

    def __init__(self, thread: int = 0):
        self.thread = thread
        self.spans: list[BenchSpan] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        span = BenchSpan(
            id=len(self.spans),
            name=name,
            op=op,
            parent=self._stack[-1] if self._stack else None,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def to_dicts(self) -> list[dict]:
        return [
            {
                "thread": self.thread,
                "id": span.id,
                "name": span.name,
                "op": span.op,
                "parent": span.parent,
                "start": span.start,
                "end": span.end,
            }
            for span in self.spans
        ]


def write_trace(path, workload: str, seed: int, recorders) -> None:
    """The traced pass's spans, written once when it ends."""
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "spans": [d for recorder in recorders for d in recorder.to_dicts()],
            },
            handle,
        )


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of *intervals*."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[BenchSpan]) -> dict[str, float]:
    """Seconds of self time per span name: each span's duration minus the
    part of its interval that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None and span.end is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: dict[str, float] = {}
    for span in spans:
        if span.end is None:
            continue
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
        ]
        own = span.duration - _covered([c for c in clipped if c[1] > c[0]])
        totals[span.name] = totals.get(span.name, 0.0) + max(0.0, own)
    return totals


#: EXPLAIN ANALYZE algorithm prefix → the middleware-operator bucket it is
#: charged to.  Transfers are not here: their time comes from the transfer
#: spans of ``QueryResult.trace``, which also cover hand-built plans that
#: ``explain_analyze`` would re-optimize.
ALGORITHM_BUCKETS = (
    ("TAGGR^M", "xxl.taggr_self_ms"),
    ("TJOIN^M", "xxl.tjoin_self_ms"),
    ("SORT^M", "xxl.sort_self_ms"),
    ("FILTER^M", "xxl.filter_project_self_ms"),
    ("PROJECT^M", "xxl.filter_project_self_ms"),
    ("JOIN^M", "xxl.merge_join_self_ms"),
)


def bucket_of(algorithm: str) -> str | None:
    for prefix, bucket in ALGORITHM_BUCKETS:
        if algorithm.startswith(prefix):
            return bucket
    return None


def fold_explain(rows) -> dict[str, float]:
    """Milliseconds of self time per bucket over EXPLAIN ANALYZE *rows*
    (anything with ``algorithm`` and ``actual_self_us``); algorithms outside
    the table land in ``other_ms``."""
    folded: dict[str, float] = {}
    for row in rows:
        self_us = getattr(row, "actual_self_us", None)
        if self_us is None:
            continue
        bucket = bucket_of(row.algorithm) or "other_ms"
        folded[bucket] = folded.get(bucket, 0.0) + self_us / 1e3
    return folded
