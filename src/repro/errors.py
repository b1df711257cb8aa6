"""Exception hierarchy for the TANGO reproduction.

Every error raised by the package derives from :class:`ReproError`, so
applications can catch a single base class.  Sub-hierarchies mirror the
architectural layers: the MiniDB substrate, the middleware execution engine,
and the optimizer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """Schema construction or attribute-resolution failure."""


class ExpressionError(ReproError):
    """Malformed or mistyped scalar expression / predicate."""


class PlanError(ReproError):
    """Ill-formed logical or physical query plan."""


class DatabaseError(ReproError):
    """Base class for MiniDB errors."""


class TransientError(DatabaseError):
    """A DBMS call failed in a way that may succeed on retry.

    The resilience layer (:mod:`repro.resilience`) raises these from its
    fault injector and retries them under a :class:`~repro.resilience.
    retry.RetryPolicy`; anything else escaping as a ``TransientError`` is
    treated the same way.
    """


class RetryExhaustedError(TransientError):
    """A transient failure persisted past the retry budget.

    Carries the number of retries spent (:attr:`retries`) and chains the
    last underlying :class:`TransientError`.  The engine treats this as
    the signal to fall back to the all-DBMS initial plan.
    """

    def __init__(self, message: str, retries: int = 0):
        super().__init__(message)
        self.retries = retries


class ConnectionDroppedError(DatabaseError):
    """The DBMS connection is gone; no retry on this connection can help."""


class AdmissionError(ReproError):
    """The query service refused a submission at the door.

    Base class for admission-control rejections; the submission never
    entered the queue, so nothing needs cancelling.
    """


class QueueFullError(AdmissionError):
    """The bounded admission queue (global or per-tenant) is full.

    Back-pressure, not failure: the caller should retry after draining
    some in-flight work.
    """


class BackendSickError(AdmissionError):
    """Admission control is shedding load because the backend looks sick.

    The resilience layer's retry/deadline classification (see
    :class:`repro.resilience.health.HealthMonitor`) observed enough
    retry exhaustions, connection drops, deadline violations, or
    fallbacks in its window to declare the DBMS unhealthy; new load is
    shed instead of queued behind a backend that cannot drain it.
    """


class QueryCancelledError(ReproError):
    """The query was cancelled before it produced a result.

    Queued queries are removed outright; running queries are aborted
    cooperatively at the next batch boundary (:attr:`partial_trace`
    carries the work completed before the abort, when the engine had
    anything to report).
    """

    def __init__(self, message: str, partial_trace=None):
        super().__init__(message)
        self.partial_trace = partial_trace


class ResultTimeoutError(ReproError):
    """``QueryHandle.result(timeout)`` expired before the query finished.

    The query itself is unaffected — still queued or running — and a
    later ``result()`` call can pick it up.
    """


class QueryTimeoutError(ReproError):
    """A query ran past its :attr:`TangoConfig.deadline_seconds`.

    :attr:`partial_trace` holds the span tree of the work completed before
    the deadline fired (None when the engine had nothing to report).
    """

    def __init__(self, message: str, partial_trace=None):
        super().__init__(message)
        self.partial_trace = partial_trace


class SQLSyntaxError(DatabaseError):
    """The SQL text could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class CatalogError(DatabaseError):
    """Unknown table/column, duplicate table, or other catalog problem."""


class ExecutionError(ReproError):
    """Runtime failure while evaluating a query."""


class OptimizerError(ReproError):
    """Optimizer failed to produce a plan."""


class CalibrationError(ReproError):
    """Cost-factor calibration failed (e.g. degenerate sample set)."""


class StatisticsError(ReproError):
    """Requested statistics are unavailable or inconsistent."""


class ViewError(ReproError):
    """Materialized-view registration or refresh failure."""
