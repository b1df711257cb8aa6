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

A ``Tango`` is the paper's single-client middleware: :meth:`Tango.query`
(and :meth:`Tango.run`, which also takes an initial plan) executes on the
caller's thread and returns the :class:`QueryResult`.  Serving many
clients at once is the query service's job: its ``QueryService`` composes
the same pipeline stages as this facade, without it.

The facade is a composition root over the query pipeline (DESIGN.md §13):
one :class:`~repro.core.planner.Planner` (statistics, estimators, cost
factors, optimizer, plan cache — and the one planning epoch), one
:class:`~repro.core.learner.Learner` (both Section 7 feedback loops), and
one :class:`~repro.core.executor.Executor` for the calling thread (the
connection, engine, tracer and the run / fallback policy).  The
public verbs below delegate to them.

Behavioral knobs live in the frozen :class:`TangoConfig`.  Every instance
carries a :class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.tracing.Tracer`; with ``tracing=True`` each temporal
query produces a span tree (parse → optimize → translate → execute, down
to per-cursor cardinalities and transfer timings) attached to the returned
:class:`QueryResult`.  Tracing adds no per-row work;
:meth:`Tango.explain_analyze` additionally has every cursor time its own
``init()``/``next_batch()`` calls.
"""

from __future__ import annotations

from repro.algebra.operators import Operator
from repro.core import gcpolicy
from repro.core.config import TangoConfig
from repro.core.executor import Executor, QueryResult
from repro.core.learner import Learner
from repro.core.planner import Planner
from repro.dbms.costmodel import CostMeter
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection, ConnectionPool
from repro.errors import DatabaseError
from repro.obs.explain import ExplainAnalyzeReport
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.calibration import Calibrator
from repro.optimizer.costs import CostFactors
from repro.optimizer.search import OptimizationResult
from repro.resilience.faults import FaultInjector, root_injector
from repro.views import ViewManager

__all__ = ["QueryResult", "Tango", "TangoConfig"]


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
    ):
        self._config = config if config is not None else TangoConfig()
        config = self._config
        self.db = db
        #: Shared when supplied; otherwise private to this instance.
        self.metrics = metrics or MetricsRegistry()
        #: Chaos harness, when supplied (or *pool*'s): every DBMS touchpoint
        #: of this instance's connections first passes through the injector.
        self.fault_injector = fault_injector = root_injector(
            fault_injector, pool, self.metrics
        )
        #: A caller-supplied pool is a deployment setting (its size and its
        #: injector, wire latency included, are the caller's): the primary
        #: connection is leased from it and returned on close, and the pool
        #: stays open.
        #: Otherwise the connection is private, and a pool for partition
        #: fan-out exists only when ``workers > 1``.
        self._owns_pool = pool is None
        self.pool: ConnectionPool | None = pool
        if pool is not None:
            self.connection = pool.acquire()
        else:
            settings = dict(metrics=self.metrics, injector=fault_injector)
            self.connection = Connection(db, **settings)
        # A construction that fails from here on gives back what it took.
        try:
            if self._owns_pool and config.workers > 1:
                self.pool = ConnectionPool(db, size=config.workers, **settings)
            # The pipeline (DESIGN.md §13): what is shared by every thread ...
            self.planner = Planner(db, config, factors=factors, metrics=self.metrics)
            self.learner = Learner(self.planner, config, metrics=self.metrics)
            # ... and what this thread executes with.
            self.executor = Executor(
                self.planner,
                self.learner,
                self.connection,
                config,
                pool=self.pool,
                metrics=self.metrics,
                middleware_meter=middleware_meter,
            )
        except BaseException:
            self._disconnect()
            raise
        #: The calling thread's tracer and middleware cost meter.
        self.tracer = self.executor.tracer
        self.middleware_meter = self.executor.middleware_meter
        self._views = None  # built on first use (see views)
        self._closed = False
        # Released by close(); a failed construction never takes it.
        gcpolicy.hold()

    # -- configuration and lifecycle --------------------------------------------------

    @property
    def config(self) -> TangoConfig:
        """The construction-time configuration (read-only)."""
        return self._config

    @property
    def views(self) -> ViewManager:
        """The materialized-view registry (see :mod:`repro.views`)."""
        if self._views is None:
            self._views = ViewManager(self.planner, self.learner, self.executor)
        return self._views

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise DatabaseError("this Tango instance is closed")

    def close(self) -> None:
        """Release the DBMS connection and flush metrics; idempotent.

        The learner persists its store first.  A pool-leased primary
        connection is returned to its pool, not closed; a borrowed pool
        is left open for its owner.  The final metrics snapshot remains
        available as :attr:`final_metrics` (and ``self.metrics`` stays
        readable).  The collector's hold (:mod:`repro.core.gcpolicy`) is
        given back even when one of these steps raises.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.learner.close()
            self.final_metrics = self.metrics.flush()
            self._disconnect()
        finally:
            gcpolicy.release()

    def _disconnect(self) -> None:
        """Close what this instance owns, and return a leased connection."""
        if self._owns_pool:
            if self.pool is not None:
                self.pool.close()
            self.connection.close()
        else:
            self.pool.release(self.connection)

    def __enter__(self) -> "Tango":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- statistics, calibration, updates, views --------------------------------------

    def refresh_statistics(self, tables: list[str] | None = None) -> None:
        """Re-ANALYZE *tables* (default: all): every planner on the
        database re-plans over what was replaced."""
        for table in tables if tables is not None else self.db.list_tables():
            self.db.analyze(table)

    def calibrate(
        self, sizes: tuple[int, ...] = (500, 2000), repeats: int = 3
    ) -> CostFactors:
        """Fit cost factors on this machine (the Cost Estimator component).

        Probes run on a pristine connection without the fault injector:
        calibration is an offline measurement phase, and injected faults
        (or their retries) would otherwise be fitted into the cost factors
        as if they were real DBMS costs.
        """
        probe = Connection(self.db)
        factors = Calibrator(probe, sizes, repeats).calibrate(self.planner.factors)
        self.planner.set_factors(factors)
        return factors

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

    def apply_updates(self, table: str, inserts=(), deletes=()) -> dict:
        """Apply one update batch (the UIS churn path) to a base table.

        Deletes are removed first (multiset-exact), then inserts are
        appended; a missing delete row or an insert row of the wrong arity
        aborts the whole batch before anything is applied.  The batch flows
        into every dependent view's pending delta log; the table is
        re-ANALYZEd (from the delta when every change since the last
        ANALYZE came through ``insert_rows`` / ``delete_rows``, DESIGN.md
        §20), which moves the planning epoch of every planner on the
        database: plans cached over the old contents stop matching, and no
        re-plan trusts a cardinality learned over them (DESIGN.md §13).
        Returns the applied counts.
        """
        self._check_open()
        target = self.db.table(table)  # unknown table → CatalogError
        insert_rows = [tuple(row) for row in inserts]
        delete_rows = [tuple(row) for row in deletes]
        for row in insert_rows:
            if len(row) != len(target.schema):
                raise DatabaseError(
                    f"insert row {row!r} does not match {target.name}'s "
                    f"{len(target.schema)} columns; nothing was applied"
                )
        with self.tracer.span(
            "apply_updates",
            kind="update",
            table=target.name,
            inserts=len(insert_rows),
            deletes=len(delete_rows),
        ):
            removed = self.db.delete_rows(target.name, delete_rows)
            if insert_rows:
                self.db.insert_rows(target.name, insert_rows)
            if self._views is not None:
                self.views.record_update(target.name, insert_rows, removed)
            self.db.analyze(target.name)
        self.metrics.counter("update_batches").inc()
        self.metrics.counter("update_rows").inc(len(insert_rows) + len(removed))
        return {
            "table": target.name,
            "inserted": len(insert_rows),
            "deleted": len(removed),
        }

    # -- the query path -----------------------------------------------------------------

    def parse(self, sql: str) -> Operator:
        """Temporal SQL → initial plan (all processing in the DBMS)."""
        return self.planner.parse(sql)

    def optimize(self, query: str | Operator) -> OptimizationResult:
        """The two-phase optimizer's plan for a query or an initial plan,
        from the plan cache when the current planning epoch has one (see
        :meth:`Planner.plan`)."""
        return self.planner.plan(query, self.tracer)

    def execute_plan(self, plan: Operator) -> QueryResult:
        """Execute a complete (validated) plan tree.

        Transient DBMS failures inside the transfer operators are retried
        under ``config.retry``; ``config.deadline_seconds`` bounds the
        execution's wall time (see :mod:`repro.core.executor`).
        """
        self._check_open()
        return self.executor.execute(plan)

    def run(self, query: str | Operator, abort=None) -> QueryResult:
        """The full TANGO path, synchronously on the calling thread: plan,
        execute, fall back to the all-DBMS plan if the retry budget runs
        out (see :meth:`Executor.run`).  *abort* is the engine's cooperative
        cancellation probe."""
        self._check_open()
        return self.executor.run(query, abort=abort)

    def query(self, sql: str) -> QueryResult:
        """Parse, optimize and execute *sql* (see :meth:`run`)."""
        return self.run(sql)

    def explain(self, sql: str) -> str:
        """The chosen plan and its cost breakdown, without executing."""
        optimization = self.optimize(sql)
        lines = [optimization.explain(), "", "cost breakdown (us):"]
        for label, cost in self.planner.coster().breakdown(optimization.plan):
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
        return self.executor.explain_analyze(query)[0]

    def plan_cost(self, plan: Operator) -> float:
        """Estimated cost of an arbitrary plan under current statistics."""
        return self.planner.coster().cost(plan)
