"""The query service stack: handle, health monitor, fair-share scheduler,
and the full :class:`~repro.service.QueryService` loop.

The concurrency-sensitive assertions (fairness, shedding, cancellation)
drive real worker threads over the real engine; slow machines only make
them slower, not flaky, because every wait is condition-based with a
generous timeout.
"""

from __future__ import annotations

import time

import pytest

from repro.core.engine import TransferObservation
from repro.core.executor import Executor
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import ConnectionPool
from repro.errors import (
    BackendSickError,
    DatabaseError,
    QueryCancelledError,
    QueueFullError,
    ResultTimeoutError,
)
from repro.resilience import FaultInjector, FaultPolicy, RetryPolicy
from repro.resilience.health import BackendState, HealthMonitor, HealthPolicy
from repro.service.scheduler import FairShareScheduler
from repro.service.handle import HandleState, QueryHandle
from repro.service import QueryService, ServiceConfig, TenantSpec

TEMPORAL = (
    "VALIDTIME SELECT K, COUNT(K) FROM R GROUP BY K ORDER BY K"
)


@pytest.fixture
def db():
    instance = MiniDB()
    instance.execute("CREATE TABLE R (K INTEGER, T1 INTEGER, T2 INTEGER)")
    rows = ", ".join(
        f"({i % 7}, {i % 40}, {i % 40 + 12})" for i in range(300)
    )
    instance.execute(f"INSERT INTO R VALUES {rows}")
    instance.analyze("R")
    return instance


class TestQueryHandle:
    def test_lifecycle_done(self):
        handle = QueryHandle("q", tenant="t", priority=2)
        assert handle.status() is HandleState.QUEUED
        assert handle.mark_running()
        assert handle.status() is HandleState.RUNNING
        handle.complete("a result")
        assert handle.status() is HandleState.DONE
        assert handle.result() == "a result"
        assert handle.queue_seconds is not None
        assert handle.total_seconds is not None

    def test_result_timeout(self):
        handle = QueryHandle("q")
        with pytest.raises(ResultTimeoutError):
            handle.result(timeout=0.01)

    def test_result_reraises_failure(self):
        handle = QueryHandle("q")
        handle.mark_running()
        handle.fail(ValueError("boom"))
        assert handle.status() is HandleState.FAILED
        with pytest.raises(ValueError, match="boom"):
            handle.result()

    def test_cancel_while_queued_is_immediate(self):
        handle = QueryHandle("q")
        assert handle.cancel()
        assert handle.status() is HandleState.CANCELLED
        assert not handle.mark_running()  # the scheduler must skip it
        with pytest.raises(QueryCancelledError):
            handle.result()

    def test_cancel_while_running_sets_abort_probe(self):
        handle = QueryHandle("q")
        handle.mark_running()
        assert handle.abort_reason() is None
        assert handle.cancel()
        assert handle.abort_reason() is not None

    def test_cancel_after_done_returns_false(self):
        handle = QueryHandle("q")
        handle.mark_running()
        handle.complete(1)
        assert not handle.cancel()
        assert handle.status() is HandleState.DONE


class TestHealthMonitor:
    def test_healthy_until_min_samples(self):
        monitor = HealthMonitor(HealthPolicy(min_samples=5))
        for _ in range(4):
            monitor.record_failure()
        assert monitor.classify() is BackendState.HEALTHY  # too few samples
        monitor.record_failure()
        assert monitor.classify() is BackendState.SICK

    def test_degraded_band(self):
        monitor = HealthMonitor(HealthPolicy(min_samples=4))
        for _ in range(7):
            monitor.record_ok()
        for _ in range(3):
            monitor.record_degraded()  # weight 0.5 → badness 1.5/10
        assert monitor.classify() is BackendState.HEALTHY
        for _ in range(3):
            monitor.record_failure()  # badness 4.5/13 ≈ 0.35
        assert monitor.classify() is BackendState.DEGRADED
        for _ in range(3):
            monitor.record_failure()  # badness 7.5/16 ≈ 0.47
        assert monitor.classify() is BackendState.DEGRADED
        monitor.record_failure()  # badness 8.5/17 = SICK_RATIO
        assert monitor.classify() is BackendState.SICK

    def test_window_decay_recovers(self):
        clock = [0.0]
        monitor = HealthMonitor(
            HealthPolicy(window_seconds=10.0, min_samples=2),
            clock=lambda: clock[0],
        )
        monitor.record_failure()
        monitor.record_failure()
        assert monitor.classify() is BackendState.SICK
        clock[0] = 11.0  # the bad samples age out of the window
        assert monitor.classify() is BackendState.HEALTHY


class TestFairShareScheduler:
    def config(self, **kwargs):
        return ServiceConfig(**kwargs)

    def test_weighted_interleaving(self):
        """With both tenants saturated, dispatch order tracks the weights:
        a weight-3 tenant gets ~3 slots per weight-1 slot."""
        scheduler = FairShareScheduler(
            self.config(
                queue_limit=100,
                tenants=(TenantSpec("big", weight=3), TenantSpec("small", weight=1)),
            )
        )
        for index in range(12):
            scheduler.enqueue(QueryHandle(f"b{index}", tenant="big"))
            scheduler.enqueue(QueryHandle(f"s{index}", tenant="small"))
        order = []
        for _ in range(8):
            handle, tenant = scheduler.next_task()
            order.append(tenant)
            scheduler.task_done(tenant)
        assert order.count("big") == 6
        assert order.count("small") == 2

    def test_priority_orders_within_tenant(self):
        scheduler = FairShareScheduler(self.config())
        low = QueryHandle("low", priority=0)
        high = QueryHandle("high", priority=5)
        scheduler.enqueue(low)
        scheduler.enqueue(high)
        first, _ = scheduler.next_task()
        assert first is high

    def test_global_queue_limit_rejects(self):
        scheduler = FairShareScheduler(self.config(queue_limit=2))
        scheduler.enqueue(QueryHandle("a"))
        scheduler.enqueue(QueryHandle("b"))
        with pytest.raises(QueueFullError, match="admission queue is full"):
            scheduler.enqueue(QueryHandle("c"))

    def test_cancelled_entries_are_skipped_and_accounted(self):
        scheduler = FairShareScheduler(self.config())
        doomed = QueryHandle("doomed")
        live = QueryHandle("live")
        scheduler.enqueue(doomed)
        scheduler.enqueue(live)
        doomed.cancel()  # through the handle alone — no scheduler call
        handle, tenant = scheduler.next_task()
        assert handle is live
        scheduler.task_done(tenant)
        assert scheduler.queued_total == 0

    def test_idle_tenant_banks_no_credit(self):
        """A tenant that sat idle re-joins at current virtual time: it
        cannot burst ahead of a tenant that kept the system busy."""
        scheduler = FairShareScheduler(self.config(queue_limit=100))
        for index in range(6):
            scheduler.enqueue(QueryHandle(f"b{index}", tenant="busy"))
        for _ in range(4):
            _, tenant = scheduler.next_task()
            scheduler.task_done(tenant)
        scheduler.enqueue(QueryHandle("late", tenant="idle"))
        scheduler.enqueue(QueryHandle("b-more", tenant="busy"))
        winners = []
        for _ in range(3):
            _, tenant = scheduler.next_task()
            scheduler.task_done(tenant)
            winners.append(tenant)
        # Equal weights from equal pass values → alternation, not an
        # idle-tenant monopoly.
        assert winners.count("idle") <= 2
        assert "busy" in winners

    def test_capacity_callable_bounds_dispatch(self):
        scheduler = FairShareScheduler(self.config())
        scheduler.enqueue(QueryHandle("a"))
        scheduler.enqueue(QueryHandle("b"))
        assert scheduler.next_task(capacity=lambda: 1) is not None
        # capacity 1 is in use: the next call must time out, not dispatch.
        assert scheduler.next_task(capacity=lambda: 1, timeout=0.1) is None

    def test_close_cancels_queued(self):
        scheduler = FairShareScheduler(self.config())
        handle = QueryHandle("a")
        scheduler.enqueue(handle)
        scheduler.close(cancel_queued=True)
        assert handle.status() is HandleState.CANCELLED
        assert scheduler.next_task() is None


class TestQueryService:
    def test_concurrent_tenants_complete(self, db):
        config = ServiceConfig(max_concurrency=3, queue_limit=64)
        with QueryService(db, config) as service:
            handles = [
                service.submit(TEMPORAL, tenant=f"t{index % 4}")
                for index in range(12)
            ]
            results = [handle.result(timeout=60) for handle in handles]
        assert len({tuple(map(tuple, r.rows)) for r in results}) == 1
        assert all(r.rows for r in results)

    def test_plain_sql_passthrough_works_too(self, db):
        with QueryService(db, ServiceConfig(max_concurrency=2)) as service:
            result = service.query("SELECT K FROM R WHERE K = 1", timeout=60)
        assert result.rows

    def test_queue_full_sheds_with_metric(self, db):
        config = ServiceConfig(max_concurrency=1, queue_limit=1)
        service = QueryService(db, config)
        try:
            with pytest.raises(QueueFullError):
                # Far more submissions than one worker + one queue slot can
                # hold at once.
                for _ in range(50):
                    service.submit(TEMPORAL)
            counters = service.metrics.to_dict()["counters"]
            assert counters.get("service_shed_total", 0) >= 1
            assert counters.get("service_shed_queue_full_total", 0) >= 1
            # The bounded queue stayed bounded.
            assert service.scheduler.queued_total <= 1
        finally:
            service.close()

    def test_sick_backend_sheds_new_admissions(self, db):
        """Retry-exhausted failures classify the backend SICK; the next
        submission is refused with BackendSickError, not queued."""
        injector = FaultInjector(
            FaultPolicy(round_trip_p=1.0, load_chunk_p=1.0), seed=7
        )
        config = ServiceConfig(
            max_concurrency=1,
            health=HealthPolicy(min_samples=2, window_seconds=300.0),
        )
        tango_config = TangoConfig(
            retry=RetryPolicy(
                max_attempts=2, base_delay_seconds=0.0, max_delay_seconds=0.0
            ),
            fallback=False,
        )
        service = QueryService(
            db, config, tango_config=tango_config, fault_injector=injector
        )
        try:
            handles = [service.submit(TEMPORAL) for _ in range(3)]
            for handle in handles:
                with pytest.raises(Exception):
                    handle.result(timeout=60)
            assert service.health.classify() is BackendState.SICK
            with pytest.raises(BackendSickError):
                service.submit(TEMPORAL)
            counters = service.metrics.to_dict()["counters"]
            assert counters.get("service_shed_total", 0) >= 1
            assert counters.get("service_shed_sick_total", 0) >= 1
        finally:
            service.close()

    def test_cancel_queued_query(self, db):
        config = ServiceConfig(max_concurrency=1, queue_limit=32)
        with QueryService(db, config) as service:
            handles = [service.submit(TEMPORAL) for _ in range(6)]
            victim = handles[-1]
            assert victim.cancel()
            with pytest.raises(QueryCancelledError):
                victim.result(timeout=60)
            for handle in handles[:-1]:
                handle.result(timeout=60)
        counters = service.metrics.to_dict()["counters"]
        assert counters.get("service_completed_total", 0) == 5

    def test_priority_beats_fifo_under_one_worker(self, db):
        config = ServiceConfig(max_concurrency=1, queue_limit=64)
        with QueryService(db, config) as service:
            # Saturate the single worker, then race a high-priority query
            # against earlier-submitted low-priority ones.
            backlog = [service.submit(TEMPORAL, priority=0) for _ in range(8)]
            urgent = service.submit(TEMPORAL, priority=10)
            urgent.result(timeout=60)
            for handle in backlog:
                handle.result(timeout=60)
        # Deterministic post-hoc check on the monotonic start stamps: of
        # the backlog still queued when urgent arrived, none may start
        # before it — priority jumped the queue.
        contended = [
            handle
            for handle in backlog
            if handle.started_at > urgent.submitted_at
        ]
        assert contended, "backlog drained before the urgent submission"
        assert urgent.started_at < min(
            handle.started_at for handle in contended
        )

    def test_latency_metrics_per_tenant(self, db):
        with QueryService(db, ServiceConfig(max_concurrency=2)) as service:
            service.query(TEMPORAL, tenant="alice", timeout=60)
            service.query(TEMPORAL, tenant="bob", timeout=60)
            histograms = service.metrics.to_dict()["histograms"]
            assert histograms["service_latency_seconds.alice"]["count"] == 1
            assert histograms["service_latency_seconds.bob"]["count"] == 1
            assert histograms["service_latency_seconds"]["count"] == 2

    def test_snapshot_is_json_ready(self, db):
        import json

        with QueryService(db, ServiceConfig(max_concurrency=2)) as service:
            service.query(TEMPORAL, tenant="t", timeout=60)
            frame = service.snapshot()
        json.dumps(frame)
        assert frame["tenants"]["t"]["dispatched"] == 1
        assert frame["health"]["state"] == "healthy"

    def test_close_drains_queued_queries(self, db):
        service = QueryService(db, ServiceConfig(max_concurrency=1))
        handles = [service.submit(TEMPORAL) for _ in range(4)]
        service.close(drain=True)
        assert all(
            handle.status() is HandleState.DONE for handle in handles
        )

    def test_a_worker_that_cannot_lease_fails_the_query_and_lives(self, db):
        """A lease error belongs to the query that needed the lease: before
        ISSUE 20 it escaped ``_worker_loop``, the thread died and the handle
        stayed RUNNING for ever."""
        pool = ConnectionPool(db, size=2)
        service = QueryService(db, ServiceConfig(max_concurrency=2), pool=pool)
        try:
            pool.close()
            handle = service.submit(TEMPORAL)
            with pytest.raises(DatabaseError, match="connection pool is closed"):
                handle.result(timeout=10)
            assert handle.status() is HandleState.FAILED
            assert all(worker.is_alive() for worker in service._workers)
            # Over a pool that works, the same workers serve the next query.
            service.pool = working = ConnectionPool(db, size=2)
            assert service.submit(TEMPORAL).result(timeout=10).rows
        finally:
            service.close()
        assert service.scheduler.running_total == 0
        assert service.metrics.counter("service_failed_total").value == 1
        assert working.in_use == 0
        working.close()

    def test_a_failed_executor_build_returns_its_connection(self, db, monkeypatch):
        original = Executor.__init__
        failures = iter([RuntimeError("no executor today")])

        def failing_once(self, *args, **kwargs):
            for error in failures:
                raise error
            original(self, *args, **kwargs)

        monkeypatch.setattr(Executor, "__init__", failing_once)
        with QueryService(db, ServiceConfig(max_concurrency=1)) as service:
            with pytest.raises(RuntimeError, match="no executor today"):
                service.submit(TEMPORAL).result(timeout=10)
            assert service.pool.in_use == 0
            assert service.submit(TEMPORAL).result(timeout=10).rows

    def test_a_second_injector_beside_the_pool_is_refused(self, db):
        pool = ConnectionPool(db, size=2)
        with pytest.raises(ValueError, match="not both"):
            QueryService(
                db, fault_injector=FaultInjector(FaultPolicy(), seed=0), pool=pool
            )
        pool.close()

    def test_the_pools_injector_reports_to_the_services_metrics(self, db):
        policy = FaultPolicy(latency_p=1.0, latency_seconds=0.0)
        pool = ConnectionPool(db, size=2, injector=FaultInjector(policy, seed=0))
        with QueryService(db, ServiceConfig(max_concurrency=2), pool=pool) as service:
            assert service.submit(TEMPORAL).result(timeout=10).rows
            assert service.fault_injector is pool.injector
            assert service.metrics.value("latency_spikes") > 0
        pool.close()


def lease_executor(service: QueryService) -> Executor:
    """An executor built exactly as a worker thread builds its own."""
    return Executor(
        service.planner,
        service.learner,
        service.pool.acquire(),
        service.tango_config,
        pool=service.pool,
        metrics=service.metrics,
    )


class TestWorkersShareLearning:
    """Workers bring an executor each and share everything a plan is
    priced with: one planner (statistics, factors, plan cache, epoch) and
    one learner (both feedback loops) per service."""

    @pytest.fixture
    def workers(self, monkeypatch) -> list[Executor]:
        """Every Executor built while the test runs (the workers' own)."""
        built: list[Executor] = []
        original = Executor.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(Executor, "__init__", recording)
        return built

    def test_second_worker_hits_the_plan_the_first_one_cached(self, db):
        with QueryService(db, ServiceConfig(max_concurrency=2)) as service:
            first, second = lease_executor(service), lease_executor(service)

            def counted(name: str) -> int:
                return service.metrics.to_dict()["counters"].get(name, 0)

            try:
                first.run(TEMPORAL)
                assert (counted("plan_cache_misses"), counted("plan_cache_hits")) == (1, 0)
                second.run(TEMPORAL)
                assert (counted("plan_cache_misses"), counted("plan_cache_hits")) == (1, 1)
            finally:
                service.pool.release(first.connection)
                service.pool.release(second.connection)

    def test_workers_hold_the_services_own_store_objects(self, db, workers):
        with QueryService(db, ServiceConfig(max_concurrency=2)) as service:
            assert len(service.planner.cache) == 0 and len(service.learner.store) == 0
            handles = [service.submit(TEMPORAL) for _ in range(8)]
            for handle in handles:
                handle.result(timeout=60)
        assert workers
        for worker in workers:
            assert worker.planner is service.planner
            assert worker.learner is service.learner

    def test_adaptive_service_holds_one_set_of_factors(self, db, workers, monkeypatch):
        """Two adaptive workers fold their observations into one running
        average, and the epoch advances on material drift only — a
        converged workload keeps its cached plan.  (Parent: a CostFactors
        per worker, the shared cache cleared by every query.)"""
        import repro.core.engine as engine

        # Every execution reports the same transfer, one the per-byte term
        # fully explains (1,000 tuples x 48 B at p_tm = 0.03 us/B): the
        # running p_tmr decays 1.0 -> 0.7 -> 0.49 -> ... by the smoothing
        # weight per query whatever the machine's timing noise.
        steady = [TransferObservation("up", 1000, 48_000, 0.00144)]
        monkeypatch.setattr(engine, "observations_from_trace", lambda trace: steady)
        with QueryService(
            db,
            ServiceConfig(max_concurrency=2),
            tango_config=TangoConfig(adaptive=True),
        ) as service:

            def serve(count: int) -> dict:
                handles = [service.submit(TEMPORAL) for _ in range(count)]
                for handle in handles:
                    handle.result(timeout=60)
                return service.metrics.to_dict()["counters"]

            counters = serve(12)
            assert len(workers) == 2
            assert all(worker.planner is service.planner for worker in workers)
            assert all(worker.learner is service.learner for worker in workers)
            assert counters["feedback_updates"] == 12
            # The initial plan, plus one re-plan per material step of the
            # decay: against the 1.44 us/tuple the per-byte term charges,
            # observations 1, 2, 3, 4, 6 and 9 leave the transfer re-priced
            # by more than 5 % since the last advance; none after does.
            assert counters["optimizer_runs"] <= 7
            assert service.planner.factors.p_tmr < 0.2
            # Converged: the drift that remains re-prices nothing.
            epoch, runs = service.planner.epoch, counters["optimizer_runs"]
            counters = serve(12)
            assert counters["feedback_updates"] == 24
            assert service.planner.epoch == epoch
            assert counters["optimizer_runs"] == runs
            assert len(service.planner.cache) >= 1


class TestRunningCancellation:
    def test_abort_probe_stops_execution_at_batch_boundary(self, db):
        """The engine's cooperative abort: a probe that turns non-None
        mid-execution raises QueryCancelledError at the next boundary."""
        checks = {"count": 0}

        def probe():
            checks["count"] += 1
            if checks["count"] > 1:
                return "client cancelled"
            return None

        with Tango(db) as tango:
            with pytest.raises(QueryCancelledError, match="client cancelled"):
                tango.run(TEMPORAL, abort=probe)
            counters = tango.metrics.to_dict()["counters"]
            assert counters.get("queries_cancelled", 0) == 1
            # Cooperative abort must tear down cleanly: no temp tables.
            leaked = [
                name
                for name in db.list_tables()
                if name.upper().startswith("TANGO_TMP")
            ]
            assert not leaked
            # The instance survives and still answers.
            assert tango.query(TEMPORAL).rows

    def test_running_query_cancels_and_worker_survives(self, db):
        """A handle cancelled the instant it starts running aborts with
        QueryCancelledError, and the worker survives to serve more."""
        config = ServiceConfig(max_concurrency=1)
        service = QueryService(db, config)
        try:
            original_mark = QueryHandle.mark_running

            def cancelling_mark(handle):
                outcome = original_mark(handle)
                if outcome:
                    # Deterministically lands while RUNNING, before the
                    # engine's first interrupt check.
                    handle.cancel()
                return outcome

            QueryHandle.mark_running = cancelling_mark
            try:
                handle = service.submit(TEMPORAL)
                with pytest.raises(QueryCancelledError):
                    handle.result(timeout=60)
                assert handle.status() is HandleState.CANCELLED
            finally:
                QueryHandle.mark_running = original_mark
            # The worker thread survived and still serves queries.
            assert service.query(TEMPORAL, timeout=60).rows
            counters = service.metrics.to_dict()["counters"]
            assert counters.get("service_cancelled_total", 0) == 1
        finally:
            service.close()


def test_no_starvation_low_priority_tenant_cannot_block_high(db, monkeypatch):
    """ISSUE acceptance: a weight-1 flood must not starve a weight-8
    tenant — the interactive tenant's queries overtake most of the
    batch backlog."""
    # Floor every query at a few milliseconds: on a fast machine the raw
    # queries finish quicker than the submission loop, the flood drains
    # before the probes are even queued, and the assertion races the
    # hardware instead of testing the scheduler.  The floor keeps the
    # backlog alive so dispatch order is decided by weights alone.
    real_run = Executor.run
    def floored_run(self, query, **kwargs):
        time.sleep(0.005)
        return real_run(self, query, **kwargs)
    monkeypatch.setattr(Executor, "run", floored_run)
    config = ServiceConfig(
        max_concurrency=2,
        queue_limit=256,
        tenants=(
            TenantSpec("batch", weight=1),
            TenantSpec("interactive", weight=8),
        ),
    )
    with QueryService(db, config) as service:
        flood = [service.submit(TEMPORAL, tenant="batch") for _ in range(24)]
        probes = [
            service.submit(TEMPORAL, tenant="interactive") for _ in range(6)
        ]
        for probe in probes:
            probe.result(timeout=120)
        still_queued_flood = sum(1 for handle in flood if not handle.done)
        for handle in flood:
            handle.result(timeout=120)
    # When the last interactive probe finished, a healthy chunk of the
    # earlier-submitted flood was still waiting: weights, not FIFO, ruled.
    assert still_queued_flood >= 4
