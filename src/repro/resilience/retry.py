"""Retry with capped exponential backoff and deterministic jitter.

:class:`RetryPolicy` is frozen configuration (it lives inside the frozen
``TangoConfig``); :class:`RetryState` is the per-query-execution mutable
side — the retry *budget*, shared by every transfer cursor of one plan, so
a pathologically flaky connection bounds the total time spent retrying
rather than paying ``max_attempts`` at every one of an unbounded number of
call sites.

Jitter is deterministic: a CRC of ``(op, attempt)`` scales the backoff
delay, so two runs with the same fault schedule sleep the same amounts —
chaos tests stay reproducible while distinct operations still desynchronize
(the purpose jitter serves in a real fleet).
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass

from repro.errors import RetryExhaustedError, TransientError


@dataclass(frozen=True)
class RetryPolicy:
    """How transient DBMS failures are retried.

    ``max_attempts`` bounds tries per call site (1 = no retry);
    ``budget`` bounds total retries per query execution across all call
    sites.  Delays grow as ``base_delay_seconds * 2**(attempt-1)`` capped
    at ``max_delay_seconds``, scaled down by up to ``jitter`` (a fraction
    in [0, 1]) of deterministic jitter.
    """

    max_attempts: int = 4
    budget: int = 64
    base_delay_seconds: float = 0.002
    max_delay_seconds: float = 0.05
    jitter: float = 0.5

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Backoff delay before retry *attempt* (1-based) of call site *key*."""
        base = min(
            self.max_delay_seconds,
            self.base_delay_seconds * (2 ** max(0, attempt - 1)),
        )
        if self.jitter <= 0:
            return base
        fraction = (zlib.crc32(f"{key}:{attempt}".encode()) % 1000) / 1000.0
        return base * (1.0 - self.jitter * fraction)


class RetryState:
    """The mutable retry budget of one query execution.

    Created per execution (``Tango.execute_plan``) and stamped onto the
    plan's transfer cursors by ``compile_plan``; :meth:`run` wraps one
    DBMS call in the retry loop.
    """

    def __init__(self, policy: RetryPolicy, metrics=None, sleep=time.sleep):
        self.policy = policy
        self.metrics = metrics
        self._sleep = sleep
        #: Retries spent so far, all call sites combined.
        self.retries = 0
        # One state is shared by every transfer cursor of a plan — under
        # parallel execution those cursors live on different exchange
        # threads, so the check-then-spend on the budget must be atomic or
        # concurrent partitions could overdraw it.
        self._lock = threading.Lock()

    @property
    def budget_left(self) -> int:
        return max(0, self.policy.budget - self.retries)

    def run(self, fn, op: str = "", on_retry=None):
        """Call *fn* (no arguments), retrying transient failures.

        Non-transient errors propagate immediately.  When per-site
        attempts or the query budget run out, raises
        :class:`~repro.errors.RetryExhaustedError` chaining the last
        transient failure.  *on_retry* (if given) is called once per retry
        — transfer cursors use it to keep per-cursor retry counts for
        EXPLAIN ANALYZE.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except TransientError as error:
                attempt += 1
                with self._lock:
                    exhausted = (
                        attempt >= self.policy.max_attempts
                        or self.budget_left <= 0
                    )
                    if not exhausted:
                        self.retries += 1
                if exhausted:
                    raise RetryExhaustedError(
                        f"{op or 'DBMS call'} still failing after "
                        f"{attempt} attempt(s) ({self.retries} query retries spent): "
                        f"{error}",
                        retries=self.retries,
                    ) from error
                if self.metrics is not None:
                    self.metrics.counter("retries").inc()
                if on_retry is not None:
                    on_retry()
                delay = self.policy.delay_for(attempt, op)
                if delay > 0:
                    self._sleep(delay)
