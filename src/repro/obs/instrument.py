"""The span tree of a finished execution, and what is read back from it.

A cursor describes itself (:mod:`repro.xxl.cursor`): its inputs, its
Figure 5 algorithm label, the plan node it implements and what it measured.
:func:`execution_trace` turns a finished plan into a
:class:`~repro.obs.tracing.Span` tree from exactly that — one child span per
plan step, one nested span per cursor, an exchange's partition cursors
being inputs like any other.  Transfer cursors always carry their tuple/byte/second
attributes (``TRANSFER^M`` and ``TRANSFER^D`` time themselves), so the
adaptive-feedback signal exists even when full tracing is off; per-cursor
wall time and ``next_batch()`` counts appear when the cursors were
:attr:`~repro.xxl.cursor.Cursor.timed`.

:func:`cardinality_observations` is the projection both the cardinality
feedback loop and EXPLAIN ANALYZE lay estimates against.
"""

from __future__ import annotations

from repro.obs.tracing import Span
from repro.xxl.cursor import Cursor


def execution_trace(plan, elapsed_seconds: float) -> Span:
    """Span tree for a finished execution: root → step spans → cursor spans."""
    root = Span("execute", kind="phase", seconds=elapsed_seconds)
    root.set(steps=len(plan.steps))
    seen: set[int] = set()
    for index, step in enumerate(plan.steps):
        span = cursor_span(step, seen)
        if span is not None:
            span.set(step=index)
            root.add_child(span)
    return root


def cursor_span(cursor: Cursor, seen: set[int] | None = None) -> Span | None:
    """Span for one cursor (sub)tree; None if already emitted via *seen*."""
    if seen is None:
        seen = set()
    if id(cursor) in seen:
        return None
    seen.add(id(cursor))
    attributes = cursor.measurements()
    # A timed cursor knows its wall time; untimed, only transfers do.
    seconds = cursor.wall_seconds if cursor.timed else attributes.get("seconds")
    span = Span(cursor.algorithm, cursor.kind, attributes, seconds=seconds, node=cursor.node)
    for index, child in enumerate(cursor.inputs):
        child_span = cursor_span(child, seen)
        if child_span is not None:
            if cursor.kind == "exchange":
                child_span.set(partition=index)
            span.add_child(child_span)
    return span


def actual_rows(span: Span) -> int:
    """Rows a cursor span saw: tuples moved for a transfer, else rows out."""
    return int(span.attributes.get("tuples", span.attributes.get("rows", 0)))


def cardinality_observations(trace: Span) -> list[tuple[object, int]]:
    """(plan node, actual rows) pairs from one finished execution trace.

    A fanned-out ``TRANSFER^M`` compiles one pooled range fetch per
    partition for its node; their counts sum to the node's total.
    """
    totals: dict[int, list] = {}
    for span in trace.iter():
        if span.node is not None and span.kind in ("cursor", "transfer"):
            totals.setdefault(id(span.node), [span.node, 0])[1] += actual_rows(span)
    return [(node, rows) for node, rows in totals.values()]
