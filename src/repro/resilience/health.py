"""Backend health classification from resilience signals.

The retry/deadline machinery already *classifies* every DBMS interaction:
a query either succeeds cleanly, succeeds only via the all-DBMS fallback
plan (its partitioned plan exhausted the retry budget), or fails with a
retry exhaustion, a dropped connection, or a deadline violation.  The
:class:`HealthMonitor` folds those per-query outcomes into a sliding
window and classifies the backend as ``HEALTHY``, ``DEGRADED``, or
``SICK`` — the signal the query service's admission control acts on
(shed on ``SICK``, halve concurrency on ``DEGRADED``).

Making admission decisions from the same signals the resilience layer
computes (rather than a separate probe) is the cross-layer decision-timing
idea: by the time a retry budget is exhausted, the system has already
paid for the evidence — admission control just has to read it.

The monitor is windowed, not latched: outcomes age out after
``window_seconds``, so a sick verdict decays back to healthy once the
storm passes and admission resumes without an operator reset.  The clock
is injectable for deterministic tests.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.errors import (
    ConnectionDroppedError,
    QueryTimeoutError,
    RetryExhaustedError,
)


class BackendState(enum.Enum):
    """What the recent outcome window says about the DBMS."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    SICK = "sick"


@dataclass(frozen=True)
class HealthPolicy:
    """How outcomes translate into a verdict.

    A verdict other than ``HEALTHY`` needs at least ``min_samples``
    outcomes in the window; below that the monitor refuses to condemn
    the backend on anecdote.  The verdict compares the window's *bad
    fraction* with :data:`SICK_RATIO` and :data:`DEGRADED_RATIO`, where
    hard failures (retry exhaustion, connection drop, deadline) count
    fully and fallback-rescued queries count :data:`FALLBACK_WEIGHT`.
    """

    window_seconds: float = 30.0
    min_samples: int = 5


#: The badness of a query rescued by the all-DBMS fallback plan: half a
#: hard failure.
FALLBACK_WEIGHT = 0.5

#: A bad fraction at or above this classifies the backend SICK ...
SICK_RATIO = 0.5
#: ... and at or above this (below :data:`SICK_RATIO`), DEGRADED.
DEGRADED_RATIO = 0.2


#: Error types the resilience layer treats as "the backend is struggling".
SICKNESS_ERRORS = (RetryExhaustedError, ConnectionDroppedError, QueryTimeoutError)


class HealthMonitor:
    """Sliding-window backend health, fed by per-query outcomes.

    Thread-safe: service workers record outcomes concurrently while the
    admission path classifies.
    """

    def __init__(self, policy: HealthPolicy | None = None, clock=time.monotonic):
        self.policy = policy or HealthPolicy()
        self._clock = clock
        #: (timestamp, badness) pairs; badness in [0, 1] per outcome.
        self._events: deque[tuple[float, float]] = deque()
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------------------

    def record_ok(self) -> None:
        """A query completed on its chosen plan without incident."""
        self._record(0.0)

    def record_degraded(self) -> None:
        """A query succeeded, but only through the fallback plan."""
        self._record(FALLBACK_WEIGHT)

    def record_failure(self) -> None:
        """A query failed with a backend-sickness error."""
        self._record(1.0)

    def record_outcome(self, error: BaseException | None, degraded: bool = False) -> None:
        """Classify one finished query from its error (or lack of one).

        Errors outside :data:`SICKNESS_ERRORS` (syntax errors, plan
        errors, cancellations) say nothing about the backend and are not
        recorded at all.
        """
        if error is None:
            self.record_degraded() if degraded else self.record_ok()
        elif isinstance(error, SICKNESS_ERRORS):
            self.record_failure()

    def _record(self, badness: float) -> None:
        now = self._clock()
        with self._lock:
            self._events.append((now, badness))
            self._expire(now)

    def _expire(self, now: float) -> None:
        horizon = now - self.policy.window_seconds
        while self._events and self._events[0][0] < horizon:
            self._events.popleft()

    # -- classification -------------------------------------------------------------

    def classify(self) -> BackendState:
        """The current verdict over the (expired) window."""
        with self._lock:
            self._expire(self._clock())
            samples = len(self._events)
            if samples < self.policy.min_samples:
                return BackendState.HEALTHY
            bad = sum(badness for _, badness in self._events)
        ratio = bad / samples
        if ratio >= SICK_RATIO:
            return BackendState.SICK
        if ratio >= DEGRADED_RATIO:
            return BackendState.DEGRADED
        return BackendState.HEALTHY

    def snapshot(self) -> dict:
        """JSON-ready view for dashboards / the service's snapshot()."""
        with self._lock:
            self._expire(self._clock())
            samples = len(self._events)
            bad = sum(badness for _, badness in self._events)
        return {
            "state": self.classify().value,
            "window_seconds": self.policy.window_seconds,
            "samples": samples,
            "bad_share": bad / samples if samples else 0.0,
        }
