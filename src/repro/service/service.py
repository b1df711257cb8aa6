"""The long-lived, concurrent, multi-tenant query service.

One :class:`QueryService` is TANGO running as a *server*: N worker
threads, each with an :class:`~repro.core.executor.Executor` of its own
(engine, tracer, a primary DBMS connection leased from a shared
:class:`~repro.dbms.jdbc.ConnectionPool`), all planning with one
:class:`~repro.core.planner.Planner` (tenant A's optimization is tenant
B's cache hit, and one statistics refresh reaches every worker), all
reporting to one :class:`~repro.core.learner.Learner`, and sharing one
:class:`~repro.obs.metrics.MetricsRegistry` and one
:class:`~repro.resilience.health.HealthMonitor`.  The planner and learner
are the owning :class:`~repro.core.tango.Tango`'s when there is one —
its ``apply_updates``, ``refresh_statistics``, ``calibrate`` and view DDL
reach the workers by construction — else the service's own.

The admission pipeline per submit::

    submit() ── health gate ──► fair-share queue ──► worker ──► QueryHandle
        │  SICK: BackendSickError     │ full: QueueFullError
        └──────── shed ◄──────────────┘   (service_shed_total)

Workers record every outcome into the health monitor — that is the
cross-layer loop: retry exhaustion and deadline classification computed
by the resilience layer during execution become the admission-control
signal for the *next* submission.  While DEGRADED, dispatch concurrency
shrinks (``degraded_concurrency_factor``); while SICK, new load is shed
and the backlog drains one query at a time.
"""

from __future__ import annotations

import threading

from repro.core import gcpolicy
from repro.core.config import TangoConfig
from repro.core.executor import Executor, QueryResult
from repro.core.learner import Learner
from repro.core.planner import Planner
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import ConnectionPool
from repro.errors import BackendSickError, DatabaseError, QueueFullError
from repro.obs.metrics import MetricsRegistry
from repro.resilience.faults import FaultInjector
from repro.resilience.health import BackendState, HealthMonitor
from repro.service.config import ServiceConfig
from repro.service.handle import HandleState, QueryHandle
from repro.service.scheduler import FairShareScheduler


class QueryService:
    """Admits, schedules, and executes queries for many tenants at once."""

    def __init__(
        self,
        db: MiniDB,
        config: ServiceConfig | None = None,
        *,
        tango_config: TangoConfig | None = None,
        fault_injector: FaultInjector | None = None,
        metrics: MetricsRegistry | None = None,
        pool: ConnectionPool | None = None,
        stages: tuple[Planner, Learner] | None = None,
    ):
        self.db = db
        self.config = config or ServiceConfig()
        base = self.tango_config = tango_config or TangoConfig()
        self.metrics = metrics or MetricsRegistry()
        self.fault_injector = fault_injector
        if fault_injector is not None and fault_injector.metrics is None:
            fault_injector.metrics = self.metrics
        self._owns_pool = pool is None
        self.pool = pool or ConnectionPool(
            db,
            size=self.config.max_concurrency,
            prefetch=base.prefetch,
            metrics=self.metrics,
            injector=fault_injector,
        )
        self.health = HealthMonitor(self.config.health)
        self.scheduler = FairShareScheduler(self.config)
        #: One planner and one learner for all workers — *stages* when an
        #: owning Tango lends its own, else built (and closed) here.
        self._owns_stages = stages is None
        if stages is None:
            planner = Planner(db, base, metrics=self.metrics)
            stages = planner, Learner(planner, base, metrics=self.metrics)
        self.planner, self.learner = stages
        self._closed = False
        self._lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"tango-service-{index}",
                daemon=True,
            )
            for index in range(max(1, self.config.max_concurrency))
        ]
        for worker in self._workers:
            worker.start()
        # Released by close(); see repro.core.gcpolicy.
        gcpolicy.hold()

    # -- the client surface ---------------------------------------------------------

    def submit(
        self, query, *, tenant: str = "default", priority: int = 0
    ) -> QueryHandle:
        """Admit one query (SQL text or an initial plan) for *tenant*.

        Returns a :class:`QueryHandle` immediately.  Raises
        :class:`~repro.errors.BackendSickError` when admission control is
        shedding (backend classified SICK) and
        :class:`~repro.errors.QueueFullError` when the bounded admission
        queue — global or per-tenant — is full.  Both are *sheds*: the
        query never entered the system, and ``service_shed_total``
        counts it.
        """
        if self._closed:
            raise DatabaseError("this QueryService is closed")
        self.metrics.counter("service_submitted_total").inc()
        if (
            self.config.shed_when_sick
            and self.health.classify() is BackendState.SICK
        ):
            self._count_shed(tenant, "service_shed_sick_total")
            raise BackendSickError(
                "admission control is shedding load: the backend's recent "
                "retry/deadline record classifies it as sick "
                f"({self.health.snapshot()})"
            )
        handle = QueryHandle(query, tenant=tenant, priority=priority)
        try:
            self.scheduler.enqueue(handle)
        except QueueFullError:
            self._count_shed(tenant, "service_shed_queue_full_total")
            raise
        self.metrics.counter("service_admitted_total").inc()
        self.metrics.counter(f"service_admitted_total.{tenant}").inc()
        self.metrics.histogram("service_queue_depth").observe(
            self.scheduler.queued_total
        )
        return handle

    def query(
        self,
        query,
        *,
        tenant: str = "default",
        priority: int = 0,
        timeout: float | None = None,
    ) -> QueryResult:
        """Sugar: ``submit(...).result(timeout)``."""
        return self.submit(query, tenant=tenant, priority=priority).result(timeout)

    def _count_shed(self, tenant: str, reason_counter: str) -> None:
        self.metrics.counter("service_shed_total").inc()
        self.metrics.counter(reason_counter).inc()
        self.metrics.counter(f"service_shed_total.{tenant}").inc()

    # -- workers --------------------------------------------------------------------

    def _capacity(self) -> int:
        """Current dispatch bound, shrunk while the backend struggles."""
        state = self.health.classify()
        if state is BackendState.SICK:
            return 1
        if state is BackendState.DEGRADED:
            return max(
                1,
                int(
                    self.config.max_concurrency
                    * self.config.degraded_concurrency_factor
                ),
            )
        return self.config.max_concurrency

    def _worker_loop(self) -> None:
        executor = None
        try:
            while True:
                item = self.scheduler.next_task(capacity=self._capacity)
                if item is None:
                    return
                handle, tenant = item
                try:
                    if not handle.mark_running():
                        continue  # cancelled between dispatch and start
                    if executor is None:
                        # Leased on the first task: idle workers hold no
                        # connection.
                        try:
                            executor = self._lease_executor()
                        except BaseException as error:  # noqa: BLE001 - a worker must survive
                            self._record_failure(handle, tenant, error)
                            continue
                    self._run_one(executor, handle, tenant)
                finally:
                    self.scheduler.task_done(tenant)
        finally:
            if executor is not None:
                self.pool.release(executor.connection)

    def _lease_executor(self) -> Executor:
        connection = self.pool.acquire()
        try:
            return Executor(
                self.planner,
                self.learner,
                connection,
                self.tango_config,
                pool=self.pool,
                metrics=self.metrics,
            )
        except BaseException:
            self.pool.release(connection)
            raise

    def _record_failure(
        self, handle: QueryHandle, tenant: str, error: BaseException
    ) -> None:
        handle.fail(error)
        self.health.record_outcome(error)
        if handle.status() is HandleState.CANCELLED:
            self.metrics.counter("service_cancelled_total").inc()
        else:
            self.metrics.counter("service_failed_total").inc()
            self.metrics.counter(f"service_failed_total.{tenant}").inc()

    def _run_one(self, executor: Executor, handle: QueryHandle, tenant: str) -> None:
        queue_wait = handle.queue_seconds or 0.0
        self.metrics.histogram("service_queue_seconds").observe(queue_wait)
        self.metrics.histogram(f"service_queue_seconds.{tenant}").observe(
            queue_wait
        )
        try:
            result = executor.run(handle.query, abort=handle.abort_reason)
        except BaseException as error:  # noqa: BLE001 - a worker must survive
            self._record_failure(handle, tenant, error)
            return
        handle.complete(result)
        self.health.record_outcome(None, degraded=result.degraded)
        self.metrics.counter("service_completed_total").inc()
        self.metrics.counter(f"service_completed_total.{tenant}").inc()
        latency = handle.total_seconds or 0.0
        self.metrics.histogram("service_latency_seconds").observe(latency)
        self.metrics.histogram(f"service_latency_seconds.{tenant}").observe(
            latency
        )

    # -- lifecycle / observability ----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop admitting and shut the workers down; idempotent.

        ``drain=True`` (default) lets queued queries finish; ``False``
        cancels everything still queued.  Running queries always finish
        (they hold pool connections mid-flight).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self.scheduler.close(cancel_queued=not drain)
            for worker in self._workers:
                worker.join(timeout)
            if self._owns_stages:
                self.learner.close()
            if self._owns_pool:
                self.pool.close()
        finally:
            gcpolicy.release()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def snapshot(self) -> dict:
        """One JSON-ready dashboard frame: tenants, health, key metrics."""
        counters = self.metrics.to_dict()["counters"]
        return {
            "closed": self._closed,
            "max_concurrency": self.config.max_concurrency,
            "effective_concurrency": self._capacity(),
            "queued": self.scheduler.queued_total,
            "running": self.scheduler.running_total,
            "tenants": self.scheduler.snapshot(),
            "health": self.health.snapshot(),
            "counters": {
                name: value
                for name, value in counters.items()
                if name.startswith("service_")
            },
        }
