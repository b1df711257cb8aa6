"""The Execution Engine (Figure 2).

``ExecuteQuery`` verbatim: create result sets for all algorithms in the
plan, call ``init()`` on each in sequence, then drain the last one —
pipelined execution where earlier ``TRANSFER^D`` steps have materialized
their temp tables by the time later ``TRANSFER^M`` SQL references them.
The drain is *batched*: the output cursor is pulled through
``next_batch(batch_size)`` — :data:`~repro.xxl.cursor.BATCH_SIZE` rows
unless a test shrank the output cursor's — so the engine pays one dispatch
per batch, not per row.

Cleanup is unconditional: whatever a step raises — during ``init``, the
drain, or ``close`` — every step is closed and every ``TRANSFER^D`` temp
table is dropped before the error propagates, so a mid-query failure never
leaves ``TANGO_TMP*`` tables behind in the DBMS.

Executions can carry a *deadline* and an *abort probe*: both are checked
at batch boundaries (before each step ``init`` and each drain pull).  A
deadline violation raises :class:`~repro.errors.QueryTimeoutError`; an
abort probe returning a reason raises
:class:`~repro.errors.QueryCancelledError` — this is how a cancelled
query handle of the query service stops a query that is already
running.  Either way the partial execution trace rides on the error,
after the same unconditional teardown.

Every execution is materialized as a span tree (:mod:`repro.obs`): one
child span per plan step, nested spans per cursor carrying cardinalities,
transfer spans carrying tuples/bytes/seconds.  :func:`observations_from_trace`
and :func:`~repro.obs.instrument.cardinality_observations` project that tree
into what the Section 7 feedback loops (:mod:`repro.core.learner`) consume.
That costs nothing per row — the cursors track those numbers anyway.  With
``instrument=True`` every cursor of the plan is additionally told to time
its own ``init()``/``next_batch()`` calls
(:attr:`~repro.xxl.cursor.Cursor.timed`), so the spans also record per-cursor
call counts and wall time; that is the EXPLAIN ANALYZE path, and (as in any
database) the per-call timing is not free.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from repro.algebra.schema import Schema
from repro.core.plans import ExecutionPlan
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.obs.instrument import execution_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Span, Tracer
from repro.xxl.cursor import walk


@dataclass(frozen=True)
class TransferObservation:
    """One observed transfer: direction, tuples moved, bytes moved, and
    the wall-clock seconds it took."""

    direction: str  # "up" (TRANSFER^M) or "down" (TRANSFER^D)
    tuples: int
    bytes: int
    seconds: float

    @property
    def per_tuple_us(self) -> float:
        if self.tuples <= 0:
            return 0.0
        return self.seconds * 1e6 / self.tuples


def observations_from_trace(trace: Span) -> list[TransferObservation]:
    """Project a span tree's transfer spans into observations.

    Every ``kind="transfer"`` span carries ``direction``, ``tuples``,
    ``bytes``, and ``seconds`` attributes (the transfer algorithms time
    themselves, so the signal exists even when full tracing is off).
    """
    return [
        TransferObservation(
            direction=span.attributes["direction"],
            tuples=int(span.attributes.get("tuples", 0)),
            bytes=int(span.attributes.get("bytes", 0)),
            seconds=float(span.attributes.get("seconds", 0.0)),
        )
        for span in trace.iter()
        if span.kind == "transfer"
    ]


@dataclass
class ExecutionOutcome:
    """Rows plus bookkeeping from one plan execution."""

    schema: Schema
    rows: list[tuple]
    elapsed_seconds: float
    steps: int
    #: Per-transfer timings (the Section 7 performance-feedback signal),
    #: derived from the trace's transfer spans.
    observations: list[TransferObservation] = field(default_factory=list)
    #: The execution's span tree (always present; per-cursor wall time and
    #: call counts appear when the engine ran with ``instrument=True``).
    trace: Span | None = None
    #: Output batches the engine drained (rows/batches ≈ mean batch fill).
    batches: int = 0

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def attempt_all(actions) -> None:
    """Run every cleanup action, letting no failure skip another; the first
    error surfaces only after everything was attempted, and never shadows
    an error already propagating."""
    first_error: BaseException | None = None
    for action in actions:
        try:
            action()
        except BaseException as error:  # noqa: BLE001 - must keep going
            if first_error is None:
                first_error = error
    if first_error is not None and sys.exc_info()[0] is None:
        raise first_error


class ExecutionEngine:
    """Runs execution-ready plans."""

    def execute(
        self,
        plan: ExecutionPlan,
        tracer: Tracer | None = None,
        instrument: bool = False,
        metrics: MetricsRegistry | None = None,
        deadline_seconds: float | None = None,
        abort=None,
    ) -> ExecutionOutcome:
        """Figure 2's ExecuteQuery: init every result set, drain the last.

        The drain pulls the output cursor's ``batch_size`` rows per
        ``next_batch``.  *metrics*, when given, receives the
        ``batches_produced`` counter, the ``rows_per_batch`` histogram and
        the exchange bookkeeping.  *deadline_seconds*
        bounds the execution's wall time, checked at batch boundaries (step
        inits and every drain pull); a violation raises
        :class:`~repro.errors.QueryTimeoutError` carrying the partial span
        tree — after the usual unconditional teardown, so a timed-out query
        leaks no temp tables either.  *abort*, when given, is a
        zero-argument callable probed at the same boundaries; returning a
        non-None reason string raises
        :class:`~repro.errors.QueryCancelledError` (same teardown, same
        partial trace) — this is how the query service's handle cancels a
        query that is already running.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        if instrument:
            for cursor in walk(plan.steps):
                cursor.timed = True
        begin = time.perf_counter()
        deadline = (
            begin + deadline_seconds if deadline_seconds is not None else None
        )

        def partial_trace(**attributes) -> Span:
            partial = execution_trace(plan, time.perf_counter() - begin)
            partial.set(rows=len(rows), batches=batches, **attributes)
            tracer.attach(partial)
            return partial

        def check_interrupts() -> None:
            if deadline is not None and time.perf_counter() >= deadline:
                if metrics is not None:
                    metrics.counter("deadline_exceeded").inc()
                raise QueryTimeoutError(
                    f"query exceeded its deadline of {deadline_seconds}s",
                    partial_trace=partial_trace(deadline_exceeded=True),
                )
            reason = abort() if abort is not None else None
            if reason is not None:
                if metrics is not None:
                    metrics.counter("queries_cancelled").inc()
                raise QueryCancelledError(
                    str(reason), partial_trace=partial_trace(cancelled=True)
                )

        rows: list[tuple] = []
        batches = 0
        try:
            for step in plan.steps:
                check_interrupts()
                step.init()
            output = plan.output
            size = output.batch_size
            fill = metrics.histogram("rows_per_batch") if metrics is not None else None
            while True:
                check_interrupts()
                batch = output.next_batch(size)
                if not batch:
                    break
                batches += 1
                if fill is not None:
                    fill.observe(len(batch))
                rows.extend(batch)
            schema = output.schema
        finally:
            # Close every step and drop every temp table, whatever raised.
            attempt_all(
                [step.close for step in plan.steps]
                + [t.drop for t in plan.transfers_down]
            )
        elapsed = time.perf_counter() - begin
        trace = execution_trace(plan, elapsed)
        trace.set(rows=len(rows), batches=batches)
        tracer.attach(trace)
        if metrics is not None:
            metrics.counter("batches_produced").inc(batches)
            # Exchange bookkeeping (parallel_efficiency is computed at
            # cursor close, i.e. during the teardown just above).
            for span in trace.find_all(kind="exchange"):
                exchange = span.attributes
                metrics.counter("exchange_partitions").inc(exchange["partitions"])
                if exchange["queue_full_stalls"]:
                    metrics.counter("queue_full_stalls").inc(exchange["queue_full_stalls"])
                metrics.histogram("parallel_efficiency").observe(
                    exchange["parallel_efficiency"]
                )
        return ExecutionOutcome(
            schema=schema,
            rows=rows,
            elapsed_seconds=elapsed,
            steps=len(plan.steps),
            observations=observations_from_trace(trace),
            trace=trace,
            batches=batches,
        )
