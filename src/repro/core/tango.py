"""The :class:`Tango` facade — the temporal middleware a client talks to.

Wires the Figure 1 architecture together:

    parser → optimizer (rules + statistics + cost estimation)
           → Translator-To-SQL → Execution Engine → DBMS (JDBC)

Typical use::

    db = MiniDB()
    ... create and populate tables ...
    with Tango(db, config=TangoConfig(tracing=True)) as tango:
        tango.refresh_statistics()
        result = tango.query(
            "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION "
            "GROUP BY PosID ORDER BY PosID"
        )
        for row in result.rows: ...
        print(result.trace.render())      # the query's span tree

Regular (non-``VALIDTIME``) SQL is passed straight through to the DBMS —
TANGO "captures the functionality of previously proposed stratum
approaches" while adding shared query processing for temporal constructs.

The public query surface is *submit-first*: :meth:`Tango.submit` returns
a :class:`~repro.service.QueryHandle` with ``status()``, ``result(timeout)``
and ``cancel()``, and :meth:`Tango.query` is sugar for
``submit(sql).result()``.  A plain ``Tango`` executes submissions inline
on the caller's thread (the handle comes back already terminal); setting
:attr:`TangoConfig.service` routes them through an owned
:class:`~repro.service.QueryService` — N concurrent workers, weighted
per-tenant fair-share scheduling, and health-driven admission control.

Behavioral knobs live in the frozen :class:`TangoConfig`; the pre-frozen
keyword arguments (``use_histograms``, ``prefetch``, ``adaptive``,
``tracing``) were removed and now raise a :class:`TypeError` naming the
config field.  Every instance carries a :class:`~repro.obs.metrics.
MetricsRegistry` and a :class:`~repro.obs.tracing.Tracer`; with
``tracing=True`` each temporal query produces a span tree (parse →
optimize → translate → execute, down to per-cursor cardinalities and
transfer timings) attached to the returned :class:`QueryResult`.  Tracing
adds no per-row work; :meth:`Tango.explain_analyze` additionally wraps
every cursor to time individual ``next()`` calls.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from repro.algebra.operators import Operator
from repro.algebra.properties import guaranteed_order
from repro.algebra.schema import Schema
from repro.core.cardinality import (
    CardinalityFeedbackStore,
    cardinality_observations,
    plan_fingerprint,
    qerror,
    trusted_nodes,
)
from repro.core.engine import ExecutionEngine
from repro.core.feedback import FeedbackAdapter
from repro.core.reoptimize import (
    MAX_REOPTIMIZATIONS,
    ReoptimizationDecision,
    ReoptimizationSignal,
    splice_completed,
    temp_scan,
)
from repro.core.parser import is_temporal_query, parse_temporal_query
from repro.core.plan_cache import PlanCache, fingerprint
from repro.core.plans import compile_plan
from repro.core.translator import SQLTranslator
from repro.dbms.database import MiniDB
from repro.errors import DatabaseError, RetryExhaustedError
from repro.dbms.costmodel import CostMeter
from repro.dbms.jdbc import Connection, ConnectionPool
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy, RetryState
from repro.service import QueryHandle, ServiceConfig
from repro.obs.explain import ExplainAnalyzeReport, build_report
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer
from repro.optimizer.calibration import Calibrator
from repro.optimizer.costs import CostFactors, PlanCoster
from repro.optimizer.physical import validate_plan
from repro.optimizer.search import OptimizationResult, Optimizer
from repro.stats.cardinality import CardinalityEstimator
from repro.stats.collector import StatisticsCollector
from repro.stats.selectivity import PredicateEstimator


@dataclass(frozen=True)
class TangoConfig:
    """Construction-time configuration of a :class:`Tango` instance.

    Frozen: the middleware never mutates its configuration mid-flight.
    Derive variants with :func:`dataclasses.replace`.
    """

    #: Use equi-width histograms for predicate selectivity estimation.
    use_histograms: bool = True
    #: JDBC row-prefetch for TRANSFER^M fetches (Section 3.2).
    prefetch: int = 50
    #: Feed observed transfer timings back into the cost factors
    #: (the Section 7 adaptive loop).
    adaptive: bool = False
    #: Record a span tree for every temporal query (parse → optimize →
    #: translate → execute, with per-cursor cardinalities and transfer
    #: timings; per-``next()`` wall times are the EXPLAIN ANALYZE path).
    tracing: bool = False
    #: Rows per ``next_batch`` through the whole execution pipeline
    #: (TRANSFER^M fetchmany size, TRANSFER^D executemany chunk, engine
    #: drain).  1 degenerates to the paper's row-at-a-time protocol.
    batch_size: int = 256
    #: Plans kept in the statistics-epoch plan cache (LRU); 0 disables
    #: caching.
    plan_cache_size: int = 64
    #: How transient DBMS failures inside the transfer operators are
    #: retried (capped exponential backoff, per-query budget).
    retry: RetryPolicy = RetryPolicy()
    #: Wall-time bound per query execution, checked at batch boundaries;
    #: a violation raises :class:`~repro.errors.QueryTimeoutError` carrying
    #: the partial trace.  None = no deadline.
    deadline_seconds: float | None = None
    #: When a middleware-partitioned plan fails beyond its retry budget,
    #: re-execute the Section 3.1 initial plan (all processing in the
    #: DBMS) instead of surfacing the error.
    fallback: bool = True
    #: Maximum partitions (and producer threads) a plan may fan out to.
    #: 1 is the paper-faithful serial engine — plans, traces, and results
    #: are byte-for-byte what they were without the exchange layer.
    workers: int = 1
    #: How partitionable pipelines split: ``"range"`` fans the shipped
    #: ``TRANSFER^M`` SELECT out into per-range predicates pulled over
    #: pooled connections; ``"hash"`` keeps one serial transfer and deals
    #: rows to the partitions in the middleware.
    partition_strategy: str = "range"
    #: Simulated wire latency per DBMS round trip (seconds).  0.0 models a
    #: co-located DBMS; a positive value models the paper's remote-DBMS
    #: middleware setting, where concurrent partition fetches genuinely
    #: overlap (used by the parallel benchmark).
    network_latency_seconds: float = 0.0
    #: When set, :meth:`Tango.submit` routes through an owned
    #: :class:`~repro.service.QueryService` (concurrent workers, weighted
    #: fair-share scheduling, health-driven admission control) instead of
    #: executing inline on the caller's thread.
    service: ServiceConfig | None = None
    #: Learn per-subtree cardinalities from execution actuals into the
    #: :class:`~repro.core.cardinality.CardinalityFeedbackStore`, and let
    #: the estimator prefer a learned cardinality over its derivation —
    #: repeated workloads converge to near-true estimates (Section 7's
    #: feedback promise, applied to cardinalities).
    learn_cardinalities: bool = False
    #: JSON file the feedback store is loaded from at startup and saved to
    #: on close — learned cardinalities survive middleware restarts.  None
    #: keeps the store in-memory only.
    feedback_path: str | None = None
    #: Mid-query re-optimization trigger: when the q-error observed at a
    #: ``TRANSFER^D`` materialization point exceeds this factor, the
    #: remainder of the plan is re-optimized with the now-known
    #: cardinalities and spliced onto the completed work (see
    #: :mod:`repro.core.reoptimize`).  0.0 (default) disables; 2.0 is a
    #: reasonable production setting (re-plan when off by more than 2x).
    reoptimize_threshold: float = 0.0


#: Constructor kwargs that moved into TangoConfig when it froze (PR 1) and
#: whose deprecation shim has since been retired.
_RETIRED_KWARGS = ("use_histograms", "prefetch", "adaptive", "tracing")


def _reject_retired_kwargs(config, retired: dict) -> TangoConfig:
    """The retired-kwargs door: a clear TypeError instead of a silent shim.

    Each message names the TangoConfig field the caller should set, so the
    fix is mechanical: ``Tango(db, use_histograms=False)`` becomes
    ``Tango(db, config=TangoConfig(use_histograms=False))``.
    """
    if isinstance(config, bool):
        # Oldest calling convention: Tango(db, use_histograms_positionally).
        raise TypeError(
            "Tango() no longer accepts a positional use_histograms flag; "
            "use Tango(db, config=TangoConfig(use_histograms=...))"
        )
    for name in sorted(retired):
        if name in _RETIRED_KWARGS:
            raise TypeError(
                f"Tango() no longer accepts {name!r}; use "
                f"Tango(db, config=TangoConfig({name}=...))"
            )
    if retired:
        name = sorted(retired)[0]
        raise TypeError(
            f"Tango() got an unexpected keyword argument {name!r}"
        )
    return config if config is not None else TangoConfig()


@dataclass
class QueryResult:
    """What a TANGO query returns to the client."""

    schema: Schema
    rows: list[tuple]
    #: Total wall time including middleware optimization (Section 5.1).
    elapsed_seconds: float
    #: The executed plan (None for straight DBMS passthrough).
    plan: Operator | None = None
    #: Estimated cost of the chosen plan, microseconds.
    estimated_cost: float | None = None
    #: Memo complexity of the optimizer run.
    class_count: int | None = None
    element_count: int | None = None
    #: Engine-only execution wall time (excludes parse/optimize/translate).
    execution_seconds: float | None = None
    #: True when this answer came off the fallback path (the optimizer's
    #: plan failed beyond its retry budget and the initial all-DBMS plan
    #: re-ran).  Correct rows, degraded service — the health monitor
    #: counts these against the backend.
    degraded: bool = False
    #: The query's span tree when tracing was on (the full lifecycle for
    #: Tango.query; the execution subtree for Tango.execute_plan).
    trace: Span | None = field(default=None, repr=False)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def to_dict(self) -> dict:
        """Structured form for programmatic consumers (JSON-ready)."""
        return {
            "columns": list(self.schema.names),
            "rows": [list(row) for row in self.rows],
            "elapsed_seconds": self.elapsed_seconds,
            "execution_seconds": self.execution_seconds,
            "estimated_cost": self.estimated_cost,
            "class_count": self.class_count,
            "element_count": self.element_count,
            "degraded": self.degraded,
            "trace": self.trace.to_dict() if self.trace is not None else None,
        }


class Tango:
    """Temporal Adaptive Next-Generation query Optimizer and processor."""

    def __init__(
        self,
        db: MiniDB,
        config: TangoConfig | None = None,
        *,
        factors: CostFactors | None = None,
        middleware_meter: CostMeter | None = None,
        fault_injector: FaultInjector | None = None,
        metrics: MetricsRegistry | None = None,
        pool: ConnectionPool | None = None,
        plan_cache: PlanCache | None = None,
        feedback_store: CardinalityFeedbackStore | None = None,
        **retired,
    ):
        self.config = _reject_retired_kwargs(config, retired)
        self.db = db
        #: Shared when supplied (service workers aggregate into one
        #: registry); otherwise private to this instance.
        self.metrics = metrics or MetricsRegistry()
        self.tracer = Tracer(enabled=self.config.tracing)
        #: Chaos harness, when supplied: every DBMS touchpoint of this
        #: instance's connection first passes through the injector.
        self.fault_injector = fault_injector
        if fault_injector is not None and fault_injector.metrics is None:
            fault_injector.metrics = self.metrics
        #: The primary connection is leased from *pool* when one is given
        #: (returned on close, not closed) — the service's workers all
        #: draw on one shared pool — and privately owned otherwise.
        self._owns_pool = pool is None
        self._pool: ConnectionPool | None = pool
        if pool is not None:
            self.connection = pool.acquire()
        else:
            self.connection = Connection(
                db,
                prefetch=self.config.prefetch,
                metrics=self.metrics,
                injector=fault_injector,
                latency_seconds=self.config.network_latency_seconds,
            )
        #: Meter charged by middleware algorithms (separate from the DBMS's).
        self.middleware_meter = middleware_meter or CostMeter()
        self.collector = StatisticsCollector(self.connection)
        self.predicate_estimator = PredicateEstimator(
            use_histograms=self.config.use_histograms
        )
        #: Learned cardinalities by predicate fingerprint (the Section 7
        #: loop applied to cardinalities).  Shared when supplied — the
        #: service's workers learn into one store; loaded from
        #: ``config.feedback_path`` when set (and saved back on close).
        self._owns_feedback_store = feedback_store is None
        # ``is None``: an empty shared store is falsy (``__len__`` is 0).
        self.feedback_store = (
            CardinalityFeedbackStore() if feedback_store is None else feedback_store
        )
        if feedback_store is None and self.config.feedback_path:
            try:
                self.feedback_store.load(self.config.feedback_path)
            except FileNotFoundError:
                pass  # first session: nothing learned yet
        self.estimator = CardinalityEstimator(
            self.collector,
            self.predicate_estimator,
            metrics=self.metrics,
            feedback=self.feedback_store,
        )
        self.factors = factors or CostFactors()
        self.translator = SQLTranslator()
        self.engine = ExecutionEngine()
        self.feedback = FeedbackAdapter()
        #: Optimized plans keyed by (query fingerprint, statistics epoch,
        #: config); cleared whenever the cost factors move.  Shared when
        #: supplied: the service's workers pool their optimizations.
        self.plan_cache = (
            PlanCache(self.config.plan_cache_size) if plan_cache is None else plan_cache
        )
        self._optimizer: Optimizer | None = None
        self._service = None  # lazily-built QueryService (config.service)
        self._views = None  # lazily-built ViewManager (repro.views)
        self._closed = False

    # -- configuration ----------------------------------------------------------------

    @property
    def adaptive(self) -> bool:
        """Section 7 feedback loop on/off (see :class:`TangoConfig`)."""
        return self.config.adaptive

    @property
    def optimizer(self) -> Optimizer:
        if self._optimizer is None:
            self._optimizer = Optimizer(
                self.estimator,
                self.factors,
                tracer=self.tracer,
                parallel_degree=self.config.workers,
            )
        return self._optimizer

    @property
    def pool(self) -> ConnectionPool:
        """The connection pool partition fan-out draws from (lazy)."""
        if self._pool is None:
            self._pool = ConnectionPool(
                self.db,
                size=max(1, self.config.workers),
                prefetch=self.config.prefetch,
                metrics=self.metrics,
                injector=self.fault_injector,
                latency_seconds=self.config.network_latency_seconds,
            )
        return self._pool

    def _parallel_context(self):
        """A :class:`~repro.core.partition.ParallelContext` when this
        instance runs parallel plans; None (strictly serial compile paths)
        at ``workers=1``."""
        if self.config.workers <= 1:
            return None
        from repro.core.partition import ParallelContext

        return ParallelContext(
            workers=self.config.workers,
            strategy=self.config.partition_strategy,
            estimator=self.estimator,
            pool=self.pool,
        )

    def refresh_statistics(
        self, tables: list[str] | None = None, analyze: bool = True
    ) -> None:
        """Re-ANALYZE base relations and drop cached statistics.

        The Statistics Collector re-reads the catalog lazily afterwards.
        With ``analyze=False`` only the caches and the statistics epoch
        move — for callers that changed data by a tracked delta
        (``pending_delta``) and defer the histogram rebuild.
        """
        if analyze:
            for table in tables if tables is not None else self.db.list_tables():
                self.db.analyze(table)
        self.collector.refresh()
        # Cardinality caches key on plan identity; new stats need a fresh one.
        self.estimator = CardinalityEstimator(
            self.collector,
            self.predicate_estimator,
            metrics=self.metrics,
            feedback=self.feedback_store,
        )
        self._optimizer = None

    def calibrate(
        self, sizes: tuple[int, ...] = (500, 2000), repeats: int = 3
    ) -> CostFactors:
        """Fit cost factors on this machine (the Cost Estimator component).

        Probes run on a pristine connection without the fault injector:
        calibration is an offline measurement phase, and injected faults
        (or their retries) would otherwise be fitted into the cost factors
        as if they were real DBMS costs.
        """
        calibration_connection = Connection(self.db, prefetch=self.config.prefetch)
        self.factors = Calibrator(calibration_connection, sizes, repeats).calibrate(
            self.factors
        )
        self._optimizer = None
        # New factors re-price every plan: cached choices may be stale.
        self.plan_cache.clear()
        return self.factors

    # -- materialized views and the update path ---------------------------------------

    @property
    def views(self):
        """The materialized-view registry (lazy; see :mod:`repro.views`)."""
        if self._views is None:
            from repro.views import ViewManager

            self._views = ViewManager(self)
        return self._views

    def create_view(self, name: str, query):
        """Materialize *query* (temporal SQL text or an initial plan) as
        the TANGO-managed table *name*; returns the registered view."""
        self._check_open()
        return self.views.create(name, query)

    def refresh_view(self, name: str, strategy: str | None = None, explain: bool = False):
        """Bring view *name* up to date; the refresh strategy is chosen by
        cost unless *strategy* forces ``"incremental"``/``"full"``."""
        self._check_open()
        return self.views.refresh(name, strategy=strategy, explain=explain)

    def drop_view(self, name: str) -> None:
        self._check_open()
        self.views.drop(name)

    def list_views(self) -> list[str]:
        return self.views.names() if self._views is not None else []

    def apply_updates(self, table: str, inserts=(), deletes=()) -> dict:
        """Apply one update batch (the UIS churn path) to a base table.

        Deletes are removed first (multiset-exact; a missing row aborts the
        whole batch), then inserts are appended.  The batch flows into every
        dependent view's pending delta log, the table is re-ANALYZEd (moving
        the statistics epoch, so the plan cache drops dependent plans), and
        learned cardinalities that read the table are invalidated (moving
        the feedback epoch).  Returns the applied counts.
        """
        self._check_open()
        target = self.db.table(table)  # unknown table → CatalogError
        insert_rows = [tuple(row) for row in inserts]
        delete_rows = [tuple(row) for row in deletes]
        with self.tracer.span(
            "apply_updates",
            kind="update",
            table=target.name,
            inserts=len(insert_rows),
            deletes=len(delete_rows),
        ) as span:
            removed = self.db.delete_rows(target.name, delete_rows)
            if insert_rows:
                self.db.insert_rows(target.name, insert_rows)
            if self._views is not None:
                self.views.record_update(target.name, insert_rows, removed)
            self.refresh_statistics([target.name])
            invalidated = self.feedback_store.invalidate_table(target.name)
            span.set(feedback_invalidated=invalidated)
        self.metrics.counter("update_batches").inc()
        self.metrics.counter("update_rows").inc(len(insert_rows) + len(removed))
        return {
            "table": target.name,
            "inserted": len(insert_rows),
            "deleted": len(removed),
            "feedback_invalidated": invalidated,
        }

    # -- lifecycle --------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise DatabaseError("this Tango instance is closed")

    def close(self) -> None:
        """Release the DBMS connection and flush metrics; idempotent.

        The owned :class:`~repro.service.QueryService` (if any) drains
        first, so queued queries finish before the connections go away.
        A pool-leased primary connection is returned to its pool, not
        closed; a borrowed pool is left open for its owner.  The final
        metrics snapshot remains available as :attr:`final_metrics` (and
        ``self.metrics`` stays readable).
        """
        if self._closed:
            return
        self._closed = True
        if self._service is not None:
            self._service.close()
        if (
            self.config.feedback_path
            and self._owns_feedback_store
            and len(self.feedback_store)
        ):
            try:
                self.feedback_store.save(self.config.feedback_path)
            except OSError:
                self.metrics.counter("feedback_store_save_errors").inc()
        self.final_metrics = self.metrics.flush()
        if self._owns_pool:
            if self._pool is not None:
                self._pool.close()
            self.connection.close()
        else:
            assert self._pool is not None
            self._pool.release(self.connection)

    def __enter__(self) -> "Tango":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the query path ------------------------------------------------------------------

    def parse(self, sql: str) -> Operator:
        """Temporal SQL → initial plan (all processing in the DBMS)."""
        return parse_temporal_query(sql, self.db)

    def optimize(self, query: str | Operator) -> OptimizationResult:
        """Run the two-phase optimizer on a query or an initial plan.

        Repeated queries are answered from the plan cache: the key couples
        the normalized query fingerprint to the current statistics epoch,
        the feedback store's epoch, and this instance's configuration, so
        a cache hit skips parsing and the optimizer entirely while a
        statistics refresh, a material cardinality-feedback update, or a
        config difference forces a fresh optimization — cached plans never
        outlive the estimates they were costed with.
        """
        key = (
            fingerprint(query),
            self.collector.epoch,
            self.feedback_store.epoch,
            self.config,
        )
        cached = self.plan_cache.get(key)
        if cached is not None:
            self.metrics.counter("plan_cache_hits").inc()
            return cached
        self.metrics.counter("plan_cache_misses").inc()
        if isinstance(query, str):
            with self.tracer.span("parse", kind="phase"):
                plan = self.parse(query)
        else:
            plan = query
        self.metrics.counter("optimizer_runs").inc()
        result = self.optimizer.optimize(plan)
        validate_plan(result.plan)
        self.metrics.histogram("memo_classes").observe(result.class_count)
        self.metrics.histogram("memo_elements").observe(result.element_count)
        self.plan_cache.put(key, result)
        return result

    def _retry_state(self) -> RetryState:
        """A fresh per-execution retry budget under the configured policy."""
        return RetryState(self.config.retry, metrics=self.metrics)

    def execute_plan(
        self,
        plan: Operator,
        retry: RetryState | None = None,
        parallel: bool = True,
        abort=None,
    ) -> QueryResult:
        """Execute a complete (validated) plan tree.

        *retry* is the per-query retry budget; callers executing one plan
        directly can omit it (a fresh budget is created).  *parallel* may
        be set to False to force serial compilation even when
        ``config.workers > 1`` (the fallback path does, for maximum
        failure resistance).  *abort* is the engine's cooperative
        cancellation probe (see :meth:`ExecutionEngine.execute`).
        Transient DBMS failures inside the transfer operators are retried
        under ``config.retry``; ``config.deadline_seconds`` bounds the
        execution's wall time.  With ``config.reoptimize_threshold`` set,
        the executed plan may be re-optimized mid-query at ``TRANSFER^D``
        materialization points (see :mod:`repro.core.reoptimize`).
        """
        self._check_open()
        outcome, executed = self._execute_optimized(
            plan, retry=retry, parallel=parallel, abort=abort
        )
        return QueryResult(
            schema=outcome.schema,
            rows=outcome.rows,
            elapsed_seconds=outcome.elapsed_seconds,
            execution_seconds=outcome.elapsed_seconds,
            plan=executed,
            trace=outcome.trace if self.tracer.enabled else None,
        )

    def _execute_optimized(
        self,
        plan: Operator,
        *,
        retry: RetryState | None = None,
        parallel: bool = True,
        abort=None,
        instrument: bool = False,
        registry: dict[int, Operator] | None = None,
    ):
        """Compile and run *plan*, re-planning at materialization points.

        The loop body is one engine execution; a
        :class:`~repro.core.reoptimize.ReoptimizationSignal` re-enters the
        optimizer for the remainder (completed ``TRANSFER^D`` subtrees
        spliced to temp-table scans) and goes around, at most
        ``MAX_REOPTIMIZATIONS`` times.  Temp tables kept alive across a
        splice are dropped here, unconditionally, whatever else happens —
        the engine's no-leak guarantee extends across re-optimizations.
        Returns ``(outcome, executed_plan)``; *registry*, when given,
        accumulates every round's cursor→node mapping (EXPLAIN ANALYZE).
        """
        validate_plan(plan)
        retry = retry if retry is not None else self._retry_state()
        current = plan
        rounds = 0
        kept: list = []  # completed TransferDCursors surviving splices
        try:
            while True:
                round_registry: dict[int, Operator] = {}
                with self.tracer.span("translate", kind="phase") as span:
                    execution_plan = compile_plan(
                        current,
                        self.connection,
                        self.middleware_meter,
                        self.translator,
                        registry=round_registry,
                        batch_size=self.config.batch_size,
                        retry=retry,
                        parallel=self._parallel_context() if parallel else None,
                    )
                    span.set(steps=len(execution_plan.steps))
                if registry is not None:
                    registry.update(round_registry)
                probe = None
                if (
                    self.config.reoptimize_threshold > 0
                    and rounds < MAX_REOPTIMIZATIONS
                ):
                    probe = self._materialization_probe(round_registry)
                try:
                    outcome = self.engine.execute(
                        execution_plan,
                        tracer=Tracer() if instrument else self.tracer,
                        instrument=instrument,
                        metrics=self.metrics,
                        deadline_seconds=self.config.deadline_seconds,
                        abort=abort,
                        on_materialize=probe,
                    )
                except ReoptimizationSignal as signal:
                    rounds += 1
                    kept.extend(signal.completed)
                    current = self._reoptimize_remainder(
                        current, signal, round_registry
                    )
                    continue
                self._record_execution(
                    outcome, plan=current, registry=round_registry
                )
                if rounds and outcome.trace is not None:
                    outcome.trace.set(reoptimizations=rounds)
                return outcome, current
        finally:
            self._drop_kept(kept)

    def _drop_kept(self, kept: list) -> None:
        """Drop temp tables kept alive across splices; every drop is
        attempted, and the first failure surfaces only when no other
        error is already propagating (mirrors the engine's teardown)."""
        first_error: BaseException | None = None
        for cursor in kept:
            try:
                cursor.drop()
            except BaseException as error:  # noqa: BLE001 - must keep going
                if first_error is None:
                    first_error = error
        if first_error is not None and sys.exc_info()[0] is None:
            raise first_error

    def _materialization_probe(self, registry: dict[int, Operator]):
        """The engine's ``on_materialize`` callback for one round.

        Lays the loaded row count against the estimate for the transfer's
        subtree; always feeds the q-error histogram (and the feedback
        store, when learning), and answers with a decision — triggering
        re-optimization — when the q-error exceeds the threshold.
        """

        def probe(cursor):
            node = registry.get(id(cursor))
            if node is None:
                return None
            estimated = float(self.estimator.estimate(node).cardinality)
            actual = float(cursor.rows_loaded)
            error = qerror(estimated, actual)
            self.metrics.histogram("qerror").observe(error)
            if self.config.learn_cardinalities:
                fp = plan_fingerprint(node)
                if fp is not None and self.feedback_store.observe(fp, actual):
                    self.metrics.counter("cardinality_feedback_updates").inc()
            if error <= self.config.reoptimize_threshold:
                return None
            return ReoptimizationDecision(
                node=node, estimated=estimated, actual=actual, qerror=error
            )

        return probe

    def _reoptimize_remainder(
        self,
        plan: Operator,
        signal: ReoptimizationSignal,
        registry: dict[int, Operator],
    ) -> Operator:
        """Splice completed materializations out of *plan* and re-enter
        the optimizer for the remainder, under the original order
        contract.  The collector auto-ANALYZEs the temp tables, so the
        re-entered search runs on exact cardinalities for everything
        already computed."""
        self.metrics.counter("reoptimizations").inc()
        decision = signal.decision
        replacements: dict[int, Operator] = {}
        for cursor in signal.completed:
            node = registry.get(id(cursor))
            if node is not None:
                replacements[id(node)] = temp_scan(node, cursor.table_name)
        with self.tracer.span(
            "reoptimize",
            kind="reoptimize",
            qerror=decision.qerror,
            estimated=decision.estimated,
            actual=decision.actual,
            at=decision.node.describe(),
        ) as span:
            remainder = splice_completed(plan, replacements)
            result = self.optimizer.optimize(
                remainder, required_order=tuple(guaranteed_order(plan))
            )
            validate_plan(result.plan)
            span.set(cost=result.cost)
        return result.plan

    def submit(
        self,
        query: str | Operator,
        *,
        tenant: str = "default",
        priority: int = 0,
    ) -> QueryHandle:
        """Submit a query; returns its :class:`~repro.service.QueryHandle`.

        With :attr:`TangoConfig.service` set, the query is admitted into
        this instance's owned :class:`~repro.service.QueryService` —
        subject to the tenant's fair share and to admission control — and
        the handle comes back live (``queued``/``running``).  Without it,
        the query executes inline on the calling thread and the handle
        comes back already terminal; ``tenant`` and ``priority`` are then
        only labels.  Either way, ``handle.result(timeout)`` is the
        outcome and ``handle.cancel()`` the escape hatch.
        """
        self._check_open()
        if self.config.service is not None:
            return self._query_service().submit(
                query, tenant=tenant, priority=priority
            )
        handle = QueryHandle(query, tenant=tenant, priority=priority)
        handle.mark_running()
        try:
            handle.complete(self.run(query, abort=handle.abort_reason))
        except BaseException as error:  # noqa: BLE001 - the handle carries it
            handle.fail(error)
        return handle

    def query(self, sql: str) -> QueryResult:
        """Sugar for ``submit(sql).result()`` — parse, optimize, execute.

        Blocks for the outcome and re-raises the query's own error, which
        makes it exactly the pre-service synchronous API.
        """
        return self.submit(sql).result()

    def _query_service(self):
        """The owned QueryService, built on first submit (config.service)."""
        if self._service is None:
            from repro.service import QueryService

            self._service = QueryService(
                self.db,
                self.config.service,
                tango_config=self.config,
                fault_injector=self.fault_injector,
                metrics=self.metrics,
            )
        return self._service

    @property
    def service(self):
        """The owned :class:`~repro.service.QueryService`, or None."""
        return self._service

    def run(self, query: str | Operator, abort=None) -> QueryResult:
        """The full TANGO path, synchronously: parse, optimize, execute.

        Accepts temporal SQL or an already-parsed initial plan (the
        service's workers hand either through).  Non-temporal statements
        go straight to the DBMS (stratum passthrough).  When the
        optimizer's partitioned plan fails beyond its retry budget
        (``config.fallback``), the engine has already torn it down (temp
        tables dropped) and the query is re-executed on the Section 3.1
        initial plan — all processing in the DBMS, one ``TRANSFER^M`` on
        top — so a flaky connection costs latency, never a wrong answer
        or an application-visible error; the result is flagged
        ``degraded`` so the health monitor hears about it.  *abort* is
        the cooperative-cancellation probe, checked at batch boundaries.
        """
        self._check_open()
        self.metrics.counter("queries_total").inc()
        if isinstance(query, str) and not is_temporal_query(query):
            self.metrics.counter("queries_passthrough").inc()
            return self._passthrough(query)
        self.metrics.counter("queries_temporal").inc()
        begin = time.perf_counter()
        sql = query if isinstance(query, str) else None
        with self.tracer.span("query", kind="query", sql=sql) as query_span:
            optimization = self.optimize(query)
            try:
                result = self.execute_plan(optimization.plan, abort=abort)
            except RetryExhaustedError as error:
                if not self.config.fallback:
                    raise
                result = self._fallback(query, error, abort=abort)
        # Middleware optimization time is part of the query time (Section
        # 5.1); execution_seconds keeps the engine-only share.
        result.elapsed_seconds = time.perf_counter() - begin
        result.estimated_cost = optimization.cost
        result.class_count = optimization.class_count
        result.element_count = optimization.element_count
        if self.tracer.enabled:
            query_span.set(rows=len(result.rows))
            result.trace = query_span
        self.metrics.histogram("query_seconds").observe(result.elapsed_seconds)
        return result

    def _fallback(
        self, query: str | Operator, error: RetryExhaustedError, abort=None
    ) -> QueryResult:
        """Re-execute *query* on its initial plan (Figure 4(a): everything
        in the DBMS), after the partitioned plan failed beyond its budget.

        The all-DBMS shape is the most failure-resistant plan available:
        it needs no ``TRANSFER^D`` round trips and ships the result in a
        single ``TRANSFER^M``, with a fresh retry budget of its own.  The
        fallback always compiles serially — a parallel fan-out would
        multiply the very connections that just proved flaky.  For a plan
        submitted directly (no SQL to re-parse), the submitted initial
        plan itself is the fallback shape.
        """
        self.metrics.counter("fallbacks").inc()
        with self.tracer.span(
            "fallback", kind="fallback", error=str(error), retries=error.retries
        ):
            initial = self.parse(query) if isinstance(query, str) else query
            result = self.execute_plan(initial, parallel=False, abort=abort)
        result.degraded = True
        return result

    def explain(self, sql: str) -> str:
        """The chosen plan and its cost breakdown, without executing."""
        optimization = self.optimize(sql)
        coster = PlanCoster(
            self.estimator, self.factors, parallel_degree=self.config.workers
        )
        lines = [optimization.explain(), "", "cost breakdown (us):"]
        for label, cost in coster.breakdown(optimization.plan):
            lines.append(f"  {cost:12.1f}  {label}")
        return "\n".join(lines)

    def explain_analyze(self, query: str | Operator) -> ExplainAnalyzeReport:
        """Optimize, execute instrumented, and lay actuals against estimates.

        Returns an :class:`~repro.obs.explain.ExplainAnalyzeReport` — one
        row per executed algorithm with estimated and actual cardinality
        and cost; ``str()`` renders the table.  Instrumentation is always
        on here, regardless of :attr:`TangoConfig.tracing`.
        """
        self.metrics.counter("queries_total").inc()
        self.metrics.counter("queries_analyzed").inc()
        optimization = self.optimize(query)
        registry: dict[int, Operator] = {}
        outcome, executed = self._execute_optimized(
            optimization.plan, instrument=True, registry=registry
        )
        coster = PlanCoster(
            self.estimator, self.factors, parallel_degree=self.config.workers
        )
        return build_report(
            outcome.trace,
            registry,
            self.estimator,
            coster,
            estimated_total_us=optimization.cost,
            result_rows=len(outcome.rows),
            reoptimize_threshold=self.config.reoptimize_threshold,
            reoptimized=executed is not optimization.plan,
        )

    def _record_execution(self, outcome, plan=None, registry=None) -> None:
        """Metrics + adaptive feedback for one engine execution."""
        self.metrics.histogram("execution_seconds").observe(outcome.elapsed_seconds)
        for observation in outcome.observations:
            prefix = "transfer_up" if observation.direction == "up" else "transfer_down"
            self.metrics.counter(f"{prefix}_tuples").inc(observation.tuples)
            self.metrics.counter(f"{prefix}_bytes").inc(observation.bytes)
        if self.config.adaptive and outcome.observations:
            updated = self.feedback.apply(self.factors, outcome.observations)
            if updated is not self.factors:
                self.factors = updated
                self._optimizer = None  # next query sees the new factors
                # Cached plans were chosen under the old factors.
                self.plan_cache.clear()
                self.metrics.counter("feedback_updates").inc()
        if (
            self.config.learn_cardinalities
            and plan is not None
            and registry
            and outcome.trace is not None
        ):
            self._learn_cardinalities(outcome.trace, plan, registry)

    def _learn_cardinalities(self, trace, plan, registry) -> None:
        """Feed the feedback store from one *completed* execution.

        Only cursors that provably ran to exhaustion are believed (join
        inputs may be abandoned early — their counts are lower bounds);
        zero-row observations under a blocking restore are additionally
        re-checked, since "never pulled" and "drained empty" both read 0.
        """
        trusted = trusted_nodes(plan)
        strict = trusted_nodes(plan, restore_blocking=False)
        updates = 0
        for node, actual in cardinality_observations(trace, registry):
            if id(node) not in trusted:
                continue
            if actual == 0 and id(node) not in strict:
                continue
            fp = plan_fingerprint(node)
            if fp is None:
                continue
            estimated = float(self.estimator.estimate(node).cardinality)
            self.metrics.histogram("qerror").observe(qerror(estimated, actual))
            if self.feedback_store.observe(fp, actual):
                updates += 1
        if updates:
            self.metrics.counter("cardinality_feedback_updates").inc(updates)

    def _passthrough(self, sql: str) -> QueryResult:
        begin = time.perf_counter()
        outcome = self.db.execute(sql)
        elapsed = time.perf_counter() - begin
        self.metrics.histogram("query_seconds").observe(elapsed)
        if isinstance(outcome, int):
            return QueryResult(Schema([]), [], elapsed, execution_seconds=elapsed)
        rows = outcome.fetchall()
        return QueryResult(outcome.schema, rows, elapsed, execution_seconds=elapsed)

    # -- convenience ----------------------------------------------------------------------

    def plan_cost(self, plan: Operator) -> float:
        """Estimated cost of an arbitrary plan under current statistics."""
        return PlanCoster(
            self.estimator, self.factors, parallel_degree=self.config.workers
        ).cost(plan)
