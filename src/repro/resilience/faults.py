"""Deterministic fault injection at the middleware↔DBMS boundary.

A :class:`FaultInjector` sits inside the JDBC connection and gets a
``before(op)`` call at every simulated DBMS touchpoint:

===============  ==============================================================
operation        raised from
===============  ==============================================================
``execute``      :meth:`repro.dbms.jdbc.Cursor.execute` (statement dispatch)
                 and :meth:`Connection.create_temp` (DDL for ``TRANSFER^D``)
``round_trip``   :meth:`repro.dbms.jdbc.Cursor._refill` (one prefetch batch
                 of a ``TRANSFER^M`` fetch)
``load_chunk``   :meth:`Connection.executemany`
                 (one ``TRANSFER^D`` direct-path chunk)
===============  ==============================================================

``drop_temp`` is deliberately *not* an injection point: end-of-query
cleanup must stay reliable or chaos runs would leak the very temp tables
they are meant to prove get dropped.

Everything is seeded: the same :class:`FaultPolicy` and seed produce the
same fault schedule, so chaos tests are reproducible and retry regressions
bisectable.  Injection happens *before* the underlying work, so a faulted
call has no partial effect and is always safe to retry.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.errors import ConnectionDroppedError, TransientError


@dataclass(frozen=True)
class FaultPolicy:
    """What to inject, and how often.

    ``transient_p`` is the default per-call probability of a
    :class:`~repro.errors.TransientError`; the per-operation fields
    override it for one operation kind.  ``latency_p``/``latency_seconds``
    inject a latency spike (a sleep, not an error); ``latency_p=1.0`` is a
    remote DBMS's wire latency, paid once per DBMS call.  ``drop_after``
    hard-drops the connection after that many DBMS calls — every later
    call raises :class:`~repro.errors.ConnectionDroppedError`, which no
    retry can cure.
    """

    transient_p: float = 0.0
    execute_p: float | None = None
    round_trip_p: float | None = None
    load_chunk_p: float | None = None
    latency_p: float = 0.0
    latency_seconds: float = 0.0
    drop_after: int | None = None

    def probability_for(self, op: str) -> float:
        override = {
            "execute": self.execute_p,
            "round_trip": self.round_trip_p,
            "load_chunk": self.load_chunk_p,
        }.get(op)
        return self.transient_p if override is None else override


class FaultInjector:
    """Seeded chaos source for one connection.

    Counts what it does (:attr:`faults_injected`, :attr:`latency_spikes`,
    :attr:`calls`) and mirrors the counts into a
    :class:`~repro.obs.metrics.MetricsRegistry` when one is attached
    (:func:`root_injector` attaches a composition root's registry).
    """

    def __init__(self, policy: FaultPolicy, seed: int = 0, metrics=None, sleep=time.sleep):
        self.policy = policy
        self.seed = seed
        self.metrics = metrics
        self._sleep = sleep
        self._random = random.Random(seed)
        self.calls = 0
        self.faults_injected = 0
        self.latency_spikes = 0
        self._dropped = False
        # One injector is shared by every connection of a pool; the seeded
        # Random and the call counters must not interleave mid-draw.  The
        # schedule stays deterministic per *draw sequence* — under parallel
        # execution which thread gets which draw depends on timing, but the
        # fault *rate* and counters remain exact.
        self._lock = threading.Lock()

    @property
    def dropped(self) -> bool:
        return self._dropped

    def reset(self) -> None:
        """Back to the initial state, same seed — the same fault schedule."""
        self._random = random.Random(self.seed)
        self.calls = 0
        self.faults_injected = 0
        self.latency_spikes = 0
        self._dropped = False

    def before(self, op: str) -> None:
        """Possibly fault one DBMS call; called before the real work.

        Raises :class:`~repro.errors.ConnectionDroppedError` once the drop
        threshold is crossed, :class:`~repro.errors.TransientError` with
        the policy's per-operation probability, and sleeps for latency
        spikes.  Raising before the work means a faulted call did nothing,
        so retrying it cannot double-apply an effect.
        """
        policy = self.policy
        spike = False
        fault = False
        # Decide under the lock; sleep and raise outside it so a latency
        # spike on one pooled connection never stalls its siblings.
        with self._lock:
            self.calls += 1
            calls = self.calls
            if policy.drop_after is not None and calls > policy.drop_after:
                self._dropped = True
            dropped = self._dropped
            if not dropped:
                if policy.latency_p > 0 and self._random.random() < policy.latency_p:
                    self.latency_spikes += 1
                    spike = True
                p = policy.probability_for(op)
                if p > 0 and self._random.random() < p:
                    self.faults_injected += 1
                    fault = True
        if dropped:
            raise ConnectionDroppedError(
                f"injected connection drop (after {policy.drop_after} calls)"
            )
        if spike:
            if self.metrics is not None:
                self.metrics.counter("latency_spikes").inc()
            if policy.latency_seconds > 0:
                self._sleep(policy.latency_seconds)
        if fault:
            if self.metrics is not None:
                self.metrics.counter("faults_injected").inc()
            raise TransientError(f"injected transient fault on {op} (call {calls})")


def root_injector(injector: FaultInjector | None, pool, metrics) -> FaultInjector | None:
    """The injector a composition root (``Tango``, ``QueryService``) runs
    under, with *metrics* attached when it mirrors into no registry yet.

    A caller-supplied *pool* brings its own injector — the one every leased
    connection passes through — so it is the root's; a second one beside
    it would be silently ignored, and is refused instead.
    """
    if pool is not None:
        if injector is not None:
            raise ValueError(
                "pass fault_injector= or pool=, not both: the pool's own "
                "injector is the one its connections run under"
            )
        injector = pool.injector
    if injector is not None and injector.metrics is None:
        injector.metrics = metrics
    return injector
