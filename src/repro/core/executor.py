"""The Executor: what one thread needs to run queries, and the policy it
runs them under.

Per thread: a DBMS connection, the Translator-To-SQL, the Execution Engine
(Figure 2), the middleware cost meter, a tracer, and a retry budget per
query.  Shared with every other thread of the middleware: the
:class:`~repro.core.planner.Planner` plans come from and the
:class:`~repro.core.learner.Learner` executions report to.

The execution policy is one loop, :meth:`Executor._drive` (state diagram
in DESIGN.md §13): RUN compiles and executes the plan; an exhausted retry
budget sends it, once, to FALLBACK (the initial all-DBMS plan, serial, fresh
budget); DONE feeds the learner, whose store corrects the *next* plan of
the same shape; anything else is FAIL.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.algebra.operators import Operator
from repro.algebra.schema import Schema
from repro.core.engine import ExecutionEngine, ExecutionOutcome
from repro.core.parser import is_temporal_query
from repro.core.plans import ExecutionPlan, ParallelContext, compile_plan
from repro.core.translator import SQLTranslator
from repro.dbms.costmodel import CostMeter
from repro.dbms.jdbc import Connection, ConnectionPool
from repro.errors import RetryExhaustedError
from repro.obs.explain import ExplainAnalyzeReport, build_report
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer
from repro.optimizer.algorithms import ALGORITHMS, algorithm_for
from repro.optimizer.physical import validate_plan
from repro.resilience.retry import RetryState


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


class Executor:
    """Runs queries on one thread, over one connection.

    *config* supplies ``tracing``, ``retry``,
    ``deadline_seconds``, ``fallback`` and ``workers``.  *pool* is where a
    fanned-out ``TRANSFER^M`` draws its partitions' connections (``workers >
    1``); the caller owns *connection* and *pool* and releases them.
    """

    def __init__(
        self,
        planner,
        learner,
        connection: Connection,
        config,
        *,
        pool: ConnectionPool | None = None,
        metrics: MetricsRegistry | None = None,
        middleware_meter: CostMeter | None = None,
    ):
        self.planner = planner
        self.learner = learner
        self.connection = connection
        self.config = config
        self.pool = pool
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Meter charged by middleware algorithms (separate from the DBMS's).
        self.middleware_meter = middleware_meter or CostMeter()
        self.tracer = Tracer(enabled=config.tracing)
        self.translator = SQLTranslator()
        self.engine = ExecutionEngine()

    # -- the three ways in --------------------------------------------------------------

    def run(self, query: str | Operator, abort=None) -> QueryResult:
        """The full TANGO path: plan, execute, fall back if need be.

        Accepts temporal SQL or an already-parsed initial plan.
        Non-temporal statements go straight to the DBMS (stratum
        passthrough).  When the chosen plan fails beyond its retry budget
        (``config.fallback``), the query is re-executed on the Section 3.1
        initial plan — all processing in the DBMS, one ``TRANSFER^M`` on
        top — so a flaky connection costs latency, never a wrong answer
        or an application-visible error; the result is flagged
        ``degraded`` so the health monitor hears about it.  *abort* is
        the cooperative-cancellation probe, checked at batch boundaries.
        """
        self.metrics.counter("queries_total").inc()
        if isinstance(query, str) and not is_temporal_query(query):
            self.metrics.counter("queries_passthrough").inc()
            return self._passthrough(query)
        self.metrics.counter("queries_temporal").inc()
        begin = time.perf_counter()
        sql = query if isinstance(query, str) else None
        with self.tracer.span("query", kind="query", sql=sql) as query_span:
            optimization = self.planner.plan(query, self.tracer)
            result = self.execute(optimization.plan, fallback=query, abort=abort)
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

    def execute(
        self,
        plan: Operator,
        *,
        fallback: str | Operator | None = None,
        abort=None,
    ) -> QueryResult:
        """Execute a complete (validated) plan tree under a fresh retry
        budget.

        *fallback* is the query (SQL or initial plan) to fall back to when
        the retry budget runs out; None surfaces the error.  *abort* is the
        engine's cooperative cancellation probe.
        """
        outcome, executed, degraded = self._drive(
            plan, fallback=fallback, abort=abort
        )
        return QueryResult(
            schema=outcome.schema,
            rows=outcome.rows,
            elapsed_seconds=outcome.elapsed_seconds,
            execution_seconds=outcome.elapsed_seconds,
            plan=executed,
            degraded=degraded,
            trace=outcome.trace if self.tracer.enabled else None,
        )

    def explain_analyze(
        self, query: str | Operator
    ) -> tuple[ExplainAnalyzeReport, list[tuple]]:
        """Plan, execute instrumented (every cursor timing its own calls,
        whatever ``config.tracing`` says), and lay actuals against
        estimates.  Returns the report and the rows the run produced."""
        optimization = self.planner.plan(query, self.tracer)
        outcome, _, _ = self._drive(optimization.plan, instrument=True)
        report = build_report(
            outcome.trace,
            self.planner.estimator,
            self.planner.coster(),
            estimated_total_us=optimization.cost,
            result_rows=len(outcome.rows),
        )
        return report, outcome.rows

    # -- the policy ---------------------------------------------------------------------

    def _drive(
        self,
        plan: Operator,
        *,
        fallback: str | Operator | None = None,
        abort=None,
        instrument: bool = False,
    ) -> tuple[ExecutionOutcome, Operator, bool]:
        """RUN → FALLBACK → DONE/FAIL (see the module docstring).

        Returns ``(outcome, executed plan, degraded)``.
        """
        validate_plan(plan)
        try:
            outcome = self._round(plan, self._retry_state(), True, abort, instrument)
        except RetryExhaustedError as error:  # → FALLBACK, or FAIL
            if fallback is None or not self.config.fallback:
                raise
            initial = (
                self.planner.parse(fallback) if isinstance(fallback, str) else fallback
            )
            if any(
                (type(node), node.location) not in ALGORITHMS for node in initial.walk()
            ):
                # A ``Coalesce^D`` in the Section 3.1 plan: there is no
                # all-DBMS plan to fall back to.
                raise
            failure = error
        else:
            self._record(outcome, plan)  # → DONE
            return outcome, plan, False
        self.metrics.counter("fallbacks").inc()
        # The all-DBMS shape is the most failure-resistant plan there is: no
        # TRANSFER^D round trips, one TRANSFER^M — compiled serially (a
        # fan-out would multiply the connections that just proved flaky) and
        # given a fresh budget of its own.
        with self.tracer.span(
            "fallback", kind="fallback", error=str(failure), retries=failure.retries
        ):
            validate_plan(initial)
            try:
                outcome = self._round(
                    initial, self._retry_state(), False, abort, instrument
                )
            except RetryExhaustedError as error:  # → FAIL
                raise error from failure
            self._record(outcome, initial)  # → DONE, degraded
        return outcome, initial, True

    def compile(
        self,
        plan: Operator,
        *,
        retry: RetryState | None = None,
        parallel: bool = True,
    ) -> ExecutionPlan:
        """The Figure 5 algorithm sequence this executor would run *plan*
        as — over its connection, its ``TRANSFER^M`` steps fanned out across
        its pool when ``config.workers > 1`` and *parallel*."""
        for node in plan.walk():
            algorithm_for(node)  # refused here, once, before any cursor exists
        context = None
        if parallel and self.config.workers > 1 and self.pool is not None:
            context = ParallelContext(
                self.config.workers, self.planner.estimator, self.pool
            )
        return compile_plan(
            plan,
            self.connection,
            self.middleware_meter,
            self.translator,
            retry=retry,
            parallel=context,
        )

    def _round(self, plan, retry, parallel, abort, instrument) -> ExecutionOutcome:
        """One RUN: compile *plan* and hand it to the engine."""
        with self.tracer.span("translate", kind="phase") as span:
            execution_plan = self.compile(plan, retry=retry, parallel=parallel)
            span.set(steps=len(execution_plan.steps))
        return self.engine.execute(
            execution_plan,
            tracer=Tracer() if instrument else self.tracer,
            instrument=instrument,
            metrics=self.metrics,
            deadline_seconds=self.config.deadline_seconds,
            abort=abort,
        )

    def _record(self, outcome: ExecutionOutcome, plan: Operator) -> None:
        """Metrics for one completed engine execution; then the learner."""
        self.metrics.histogram("execution_seconds").observe(outcome.elapsed_seconds)
        for observation in outcome.observations:
            prefix = "transfer_up" if observation.direction == "up" else "transfer_down"
            self.metrics.counter(f"{prefix}_tuples").inc(observation.tuples)
            self.metrics.counter(f"{prefix}_bytes").inc(observation.bytes)
        self.learner.observe(outcome, plan)

    def _retry_state(self) -> RetryState:
        """A fresh per-execution retry budget under the configured policy."""
        return RetryState(self.config.retry, metrics=self.metrics)

    def _passthrough(self, sql: str) -> QueryResult:
        begin = time.perf_counter()
        outcome = self.planner.db.execute(sql)
        elapsed = time.perf_counter() - begin
        self.metrics.histogram("query_seconds").observe(elapsed)
        if isinstance(outcome, int):
            return QueryResult(Schema([]), [], elapsed, execution_seconds=elapsed)
        rows = outcome.fetchall()
        return QueryResult(outcome.schema, rows, elapsed, execution_seconds=elapsed)
