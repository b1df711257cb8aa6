"""Cursor-level instrumentation of execution-ready plans.

:class:`InstrumentedCursor` wraps any XXL cursor and records ``next()``
calls, rows produced, and wall time spent inside the cursor (children
included), without the ~12 algorithm cursor classes needing any edits.
:func:`instrument_plan` rewrites an :class:`~repro.core.plans.ExecutionPlan`
in place so every cursor in every step tree is wrapped.

:func:`execution_trace` turns a finished plan — instrumented or not — into
a :class:`~repro.obs.tracing.Span` tree: one child span per plan step, one
nested span per cursor.  Transfer cursors always carry their tuple/byte/
second attributes (``TRANSFER^M`` and ``TRANSFER^D`` time themselves), so
the adaptive-feedback signal exists even when full tracing is off; the
per-cursor wall time and ``next()`` counts appear only when the plan was
instrumented.
"""

from __future__ import annotations

import time

from repro.obs.tracing import Span
from repro.xxl.cursor import Cursor
from repro.xxl.exchange import ExchangeCursor
from repro.xxl.sources import SQLCursor
from repro.xxl.transfer import TransferDCursor

#: Figure 5 display names per cursor class (shared with plan rendering).
ALGORITHM_NAMES = {
    "SQLCursor": "TRANSFER^M",
    "PooledSQLCursor": "TRANSFER^M",
    "TransferDCursor": "TRANSFER^D",
    "ExchangeCursor": "EXCHANGE",
    "FilterCursor": "FILTER^M",
    "ProjectCursor": "PROJECT^M",
    "SortCursor": "SORT^M",
    "MergeJoinCursor": "JOIN^M",
    "TemporalJoinCursor": "TJOIN^M",
    "TemporalAggregateCursor": "TAGGR^M",
    "DedupCursor": "DEDUP^M",
    "CoalesceCursor": "COAL^M",
    "DifferenceCursor": "DIFF^M",
    "RelationCursor": "RELATION^M",
}

#: The attribute names cursors use for their child cursors.
CHILD_ATTRIBUTES = ("_input", "_left", "_right")


def algorithm_name(cursor) -> str:
    """The Figure 5 algorithm label of a (possibly wrapped) cursor."""
    raw = unwrap(cursor)
    class_name = type(raw).__name__
    return ALGORITHM_NAMES.get(class_name, class_name)


def unwrap(cursor):
    """The underlying algorithm cursor behind any instrumentation."""
    while isinstance(cursor, InstrumentedCursor):
        cursor = cursor.wrapped
    return cursor


class InstrumentedCursor:
    """A transparent cursor proxy that measures the cursor it wraps.

    Implements the full cursor protocol — batched face included — by
    delegation; records the number of ``next()`` and ``next_batch()``
    calls and the wall-clock seconds spent inside ``init``, ``has_next``,
    ``next``, and ``next_batch`` (which includes time spent in wrapped
    children — span rendering subtracts child time to get self time).
    """

    __slots__ = ("wrapped", "next_calls", "batch_calls", "wall_seconds", "init_seconds")

    def __init__(self, wrapped: Cursor):
        self.wrapped = wrapped
        self.next_calls = 0
        self.batch_calls = 0
        self.wall_seconds = 0.0
        self.init_seconds = 0.0

    # -- cursor protocol, timed -------------------------------------------------------

    def init(self) -> "InstrumentedCursor":
        begin = time.perf_counter()
        self.wrapped.init()
        elapsed = time.perf_counter() - begin
        self.init_seconds += elapsed
        self.wall_seconds += elapsed
        return self

    def has_next(self) -> bool:
        begin = time.perf_counter()
        result = self.wrapped.has_next()
        self.wall_seconds += time.perf_counter() - begin
        return result

    def next(self) -> tuple:
        self.next_calls += 1
        begin = time.perf_counter()
        row = self.wrapped.next()
        self.wall_seconds += time.perf_counter() - begin
        return row

    def next_batch(self, n: int) -> list[tuple]:
        # One timing pair per batch: instrumentation overhead stays
        # per-batch, not per-row.
        self.batch_calls += 1
        begin = time.perf_counter()
        batch = self.wrapped.next_batch(n)
        self.wall_seconds += time.perf_counter() - begin
        return batch

    def iter_batched(self, size: int | None = None):
        # Defined explicitly (not via __getattr__) so the pulls are timed.
        if size is None:
            size = getattr(self.wrapped, "batch_size", None)
        while True:
            batch = self.next_batch(size or 1)
            if not batch:
                return
            yield from batch

    def close(self) -> None:
        self.wrapped.close()

    def __iter__(self):
        while self.has_next():
            yield self.next()

    def __enter__(self) -> "InstrumentedCursor":
        return self.init()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- delegation -------------------------------------------------------------------

    @property
    def schema(self):
        return self.wrapped.schema

    @property
    def rows_produced(self) -> int:
        return self.wrapped.rows_produced

    def __getattr__(self, name: str):
        return getattr(self.wrapped, name)


def instrument_plan(plan) -> list[InstrumentedCursor]:
    """Wrap every cursor of *plan* (an ExecutionPlan) in place.

    Child links (``_input``/``_left``/``_right``) are rewired to wrappers so
    interior cursors are measured too; ``plan.transfers_down`` keeps its raw
    references (cleanup calls ``drop()``, which needs no timing).  Returns
    the top-level wrappers, one per step.
    """
    wrappers: dict[int, InstrumentedCursor] = {}

    def wrap(cursor):
        if isinstance(cursor, InstrumentedCursor):
            return cursor
        existing = wrappers.get(id(cursor))
        if existing is not None:
            return existing
        for attribute in CHILD_ATTRIBUTES:
            child = getattr(cursor, attribute, None)
            if child is not None and hasattr(child, "has_next"):
                setattr(cursor, attribute, wrap(child))
        wrapper = InstrumentedCursor(cursor)
        wrappers[id(cursor)] = wrapper
        return wrapper

    plan.steps = [wrap(step) for step in plan.steps]
    return plan.steps


def execution_trace(plan, elapsed_seconds: float, steps_label: str = "execute") -> Span:
    """Span tree for a finished execution: root → step spans → cursor spans."""
    root = Span(steps_label, kind="phase", seconds=elapsed_seconds)
    root.set(steps=len(plan.steps))
    seen: set[int] = set()
    for index, step in enumerate(plan.steps):
        span = cursor_span(step, seen)
        if span is not None:
            span.set(step=index)
            root.add_child(span)
    return root


def cursor_span(cursor, seen: set[int] | None = None) -> Span | None:
    """Span for one cursor (sub)tree; None if already emitted via *seen*."""
    if seen is None:
        seen = set()
    wrapper = cursor if isinstance(cursor, InstrumentedCursor) else None
    raw = unwrap(cursor)
    if id(raw) in seen:
        return None
    seen.add(id(raw))

    span = Span(algorithm_name(raw), kind="cursor")
    span.set(
        cursor=type(raw).__name__,
        cursor_id=id(raw),
        rows=raw.rows_produced,
        batches=getattr(raw, "batches_produced", 0),
    )
    if wrapper is not None:
        span.seconds = wrapper.wall_seconds
        span.set(
            next_calls=wrapper.next_calls,
            batch_calls=wrapper.batch_calls,
            init_seconds=wrapper.init_seconds,
        )

    if isinstance(raw, SQLCursor):
        span.kind = "transfer"
        span.set(
            direction="up",
            tuples=raw.rows_produced,
            bytes=raw.rows_produced * raw.schema.row_width,
            seconds=raw.fetch_seconds,
            sql=raw.sql,
        )
        if raw.retries:
            span.set(retries=raw.retries)
        if span.seconds is None:
            span.seconds = raw.fetch_seconds
    elif isinstance(raw, TransferDCursor):
        span.kind = "transfer"
        span.set(
            direction="down",
            tuples=raw.rows_loaded,
            bytes=raw.rows_loaded * raw.schema.row_width,
            seconds=raw.load_seconds,
            table=raw.table_name,
        )
        if raw.retries:
            span.set(retries=raw.retries)
        if span.seconds is None:
            span.seconds = raw.load_seconds
    elif isinstance(raw, ExchangeCursor):
        span.kind = "exchange"
        span.set(
            partitions=raw.partitions,
            workers=raw.workers,
            queue_full_stalls=raw.queue_full_stalls,
            parallel_efficiency=raw.parallel_efficiency,
        )
        # One child span per partition pipeline, tagged with its index.
        for index, child in enumerate(raw.pipeline_roots):
            child_span = cursor_span(child, seen)
            if child_span is not None:
                child_span.set(partition=index)
                span.add_child(child_span)

    for attribute in CHILD_ATTRIBUTES:
        child = getattr(raw, attribute, None)
        if child is not None and hasattr(child, "has_next"):
            child_span = cursor_span(child, seen)
            if child_span is not None:
                span.add_child(child_span)
    return span
