"""The client's view of one submitted query.

A :class:`QueryHandle` is what :meth:`Tango.submit` and
:meth:`QueryService.submit` return: a thread-safe, observable future over
one query's lifecycle —

    queued ──► running ──► done | failed
       │          │
       └──────────┴──────► cancelled

``result(timeout)`` blocks for the outcome and re-raises the query's own
error; ``cancel()`` removes a queued query outright and aborts a running
one cooperatively at its next batch boundary (the execution engine checks
the handle between batches, the same cadence as deadlines).  All
timestamps are monotonic-clock, so ``queue_seconds`` and
``total_seconds`` are meaningful under NTP steps.
"""

from __future__ import annotations

import enum
import threading
import time

from repro.core.executor import QueryResult
from repro.errors import QueryCancelledError, ResultTimeoutError


class HandleState(str, enum.Enum):
    """Lifecycle states of a submitted query."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a handle never leaves.
_TERMINAL = frozenset({HandleState.DONE, HandleState.FAILED, HandleState.CANCELLED})


class QueryHandle:
    """One submitted query: status, result, cancellation.

    Producers (the service's workers, or the inline path in
    ``Tango.submit``) drive the lifecycle through :meth:`mark_running`,
    :meth:`complete`, :meth:`fail`, and :meth:`mark_cancelled`; clients
    only read.
    """

    _sequence = 0
    _sequence_lock = threading.Lock()

    def __init__(self, query, *, tenant: str = "default", priority: int = 0):
        with QueryHandle._sequence_lock:
            QueryHandle._sequence += 1
            self.id = QueryHandle._sequence
        self.query = query
        self.tenant = tenant
        self.priority = priority
        self.submitted_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._state = HandleState.QUEUED
        self._result: QueryResult | None = None
        self._error: BaseException | None = None
        self._cancel_requested = False
        self._lock = threading.Lock()
        self._finished = threading.Event()

    # -- client surface -------------------------------------------------------------

    def status(self) -> HandleState:
        return self._state

    @property
    def done(self) -> bool:
        """True once the handle reached a terminal state."""
        return self._finished.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until terminal; True if it finished within *timeout*."""
        return self._finished.wait(timeout)

    def result(self, timeout: float | None = None) -> QueryResult:
        """The query's :class:`QueryResult`, blocking up to *timeout*.

        Re-raises the query's own error when it failed or was cancelled;
        raises :class:`~repro.errors.ResultTimeoutError` when *timeout*
        expires first (the query itself keeps going).
        """
        if not self._finished.wait(timeout):
            raise ResultTimeoutError(
                f"query #{self.id} still {self._state.value} after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def cancel(self) -> bool:
        """Ask for the query not to produce a result.

        Queued queries transition to ``cancelled`` immediately (the
        scheduler skips them); running queries are aborted at their next
        batch boundary.  Returns False only when the query already
        finished (``done``/``failed``), True otherwise — including when
        it was already cancelled.
        """
        with self._lock:
            if self._state in (HandleState.DONE, HandleState.FAILED):
                return False
            self._cancel_requested = True
            if self._state is HandleState.QUEUED:
                self._finish_locked(
                    HandleState.CANCELLED,
                    error=QueryCancelledError(
                        f"query #{self.id} cancelled while queued"
                    ),
                )
        return True

    def abort_reason(self) -> str | None:
        """The engine's cooperative-abort probe (checked between batches)."""
        if self._cancel_requested:
            return f"query #{self.id} cancelled by client"
        return None

    @property
    def queue_seconds(self) -> float | None:
        """Admission-queue wait (None until the query starts)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def total_seconds(self) -> float | None:
        """Submit-to-terminal latency (None until finished)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    # -- producer surface -----------------------------------------------------------

    def mark_running(self) -> bool:
        """Queued → running; False when the handle was cancelled first."""
        with self._lock:
            if self._state is not HandleState.QUEUED:
                return False
            self._state = HandleState.RUNNING
            self.started_at = time.monotonic()
            return True

    def complete(self, result: QueryResult) -> None:
        with self._lock:
            if self._state in _TERMINAL:
                return
            self._result = result
            self._finish_locked(HandleState.DONE)

    def fail(self, error: BaseException) -> None:
        """Terminal failure; cancellations land in ``cancelled`` instead."""
        with self._lock:
            if self._state in _TERMINAL:
                return
            state = (
                HandleState.CANCELLED
                if isinstance(error, QueryCancelledError)
                else HandleState.FAILED
            )
            self._finish_locked(state, error=error)

    def mark_cancelled(self, error: BaseException | None = None) -> None:
        with self._lock:
            if self._state in _TERMINAL:
                return
            self._finish_locked(
                HandleState.CANCELLED,
                error=error
                or QueryCancelledError(f"query #{self.id} cancelled"),
            )

    def _finish_locked(
        self, state: HandleState, error: BaseException | None = None
    ) -> None:
        self._state = state
        self._error = error
        self.finished_at = time.monotonic()
        self._finished.set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QueryHandle(#{self.id} tenant={self.tenant!r} "
            f"priority={self.priority} {self._state.value})"
        )
