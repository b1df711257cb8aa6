"""Materialized temporal views and the cost-based refresh chooser.

A view is a TANGO-managed table holding the result of a temporal query in
canonical form (:func:`~repro.algebra.rows.canonical_rows`: value-
normalized, deterministically ordered).  Storing canonically makes the
central invariant checkable byte-for-byte: an incremental refresh and a
full recompute that agree as multisets store *identical* table contents.

Per refresh the chooser prices both strategies with the paper's Figure 6
formulas (:mod:`repro.optimizer.algorithms`):

* **full recompute** — the optimizer's cost for the view plan plus a
  ``TRANSFER^D``-shaped reload of the result;
* **incremental** — a fixed overhead, the plan cost scaled by the base-
  table *churn* (pending delta rows over Section 3.3 base cardinalities),
  a delta-sized transfer, and the re-merge of the stored contents priced
  at the *estimated* view cardinality — preferring the PR 8 feedback
  store's learned cardinality for the view's fingerprint over the
  histogram-derived estimate.

The re-merge term is priced from the estimate deliberately: the chooser
believes its estimates the way any optimizer does, so a corrupted
feedback entry visibly flips the decision (the Chang-style decision-
timing hazard the unit tests pin down), while an *honest* feedback loop
sharpens it.

Every refresh records its decision in a ``refresh`` span (an incremental
one also the ``rule`` that ran: ``"window"`` or ``"delta"``) and in the
``view_refreshes`` / ``view_refresh_incremental`` / ``view_delta_rows``
metrics; ``explain=True`` returns an EXPLAIN ANALYZE report whose banner
carries the decision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.algebra.operators import Operator, Scan
from repro.algebra.rows import canonical_rows
from repro.algebra.schema import Schema
from repro.dbms.loader import DirectPathLoader
from repro.errors import ExecutionError, ViewError
from repro.obs.explain import ExplainAnalyzeReport
from repro.optimizer.algorithms import sort_m, transfer_d
from repro.stats.cardinality import CardinalityEstimator
from repro.stats.collector import RelationStats
from repro.stats.fingerprint import plan_fingerprint
from repro.views.delta import (
    DeltaMismatch,
    DeltaState,
    DeltaUnsupported,
    apply_delta_rows,
    compute_delta,
    net_delta,
    refresh_window,
    window_root,
)

#: Fixed per-refresh overhead of the incremental path, microseconds —
#: delta-log bookkeeping and the in-memory evaluator's setup.
REFRESH_OVERHEAD_US = 200.0


@dataclass
class RefreshDecision:
    """The chooser's verdict for one refresh."""

    #: ``"incremental"`` or ``"full"``.
    strategy: str
    reason: str
    #: Pending base-table delta rows (both signs) at decision time.
    delta_rows: int
    #: Pending delta rows over the base tables' total cardinality.
    churn: float
    estimated_incremental_us: float
    estimated_full_us: float
    #: True when the caller forced the strategy past the cost model.
    forced: bool = False

    def banner(self) -> str:
        return (
            f"view refresh: {self.strategy} ({self.reason})   "
            f"delta rows: {self.delta_rows}   churn: {self.churn:.4f}   "
            f"est incremental: {self.estimated_incremental_us:.1f}us   "
            f"est full: {self.estimated_full_us:.1f}us"
        )


@dataclass
class RefreshOutcome:
    """What one :meth:`ViewManager.refresh` did."""

    view: str
    decision: RefreshDecision
    #: The strategy that actually ran — ``"full"`` when the incremental
    #: path chose or fell back to recomputation.
    strategy: str
    #: Stored view rows after the refresh.
    rows: int
    #: Output-delta rows the incremental path applied (0 for full).
    delta_rows_applied: int
    elapsed_seconds: float
    report: ExplainAnalyzeReport | None = None


@dataclass
class MaterializedView:
    """One registered view: its defining plan and the pending delta log."""

    name: str
    #: The defining initial plan (``T^M``-topped, as parsed).
    plan: Operator
    schema: Schema
    #: Lower-cased base tables the plan scans.
    base_tables: frozenset[str]
    #: Pending *netted* signed deltas per base table (lower-cased name →
    #: (inserts, deletes)), accumulated since the last refresh.
    pending: dict[str, tuple[list[tuple], list[tuple]]] = field(
        default_factory=dict
    )
    #: Per base table, the contents version (``MiniDB.changes_of``) the
    #: stored contents and :attr:`pending` account for; beyond that, only a
    #: recompute is right.
    logged: dict[str, int | None] = field(default_factory=dict)
    refreshes: int = 0

    @property
    def pending_rows(self) -> int:
        return sum(
            len(inserts) + len(deletes)
            for inserts, deletes in self.pending.values()
        )

    def record(self, table: str, inserts, deletes) -> None:
        """Fold one update batch into the pending delta, netting rows that
        cancel (delete-then-reinsert leaves the multiset unchanged)."""
        pending_inserts, pending_deletes = self.pending.get(
            table.lower(), ([], [])
        )
        self.pending[table.lower()] = net_delta(
            [*pending_inserts, *inserts], [*pending_deletes, *deletes]
        )
        self.logged[table.lower()] += len(inserts) + len(deletes)

    def sync(self, db) -> None:
        """The stored contents are up to date with the base tables."""
        self.pending.clear()
        self.logged = db.changes_of(self.base_tables)


class ViewManager:
    """The registry and refresh machinery behind ``Tango.create_view``.

    Built over the pipeline stages it uses: the *planner* (plans, prices,
    statistics), the *learner* (the learned view cardinality) and the
    calling thread's *executor*.  A store that rewrites a view ANALYZEs it,
    which re-plans every planner on the database; an incremental store
    defers the ANALYZE, and plans cached over the view keep their prices.
    """

    def __init__(self, planner, learner, executor):
        self.planner = planner
        self.learner = learner
        self.executor = executor
        self.db = planner.db
        self.metrics = executor.metrics
        self._views: dict[str, MaterializedView] = {}

    def __len__(self) -> int:
        return len(self._views)

    def names(self) -> list[str]:
        return sorted(view.name for view in self._views.values())

    def get(self, name: str) -> MaterializedView:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise ViewError(f"no such view {name!r}") from None

    def has(self, name: str) -> bool:
        return name.lower() in self._views

    # -- lifecycle ---------------------------------------------------------------------

    def create(self, name: str, query: str | Operator) -> MaterializedView:
        """Materialize *query* as the TANGO-managed table *name*."""
        if self.has(name) or self.db.has_table(name):
            raise ViewError(f"view or table {name!r} already exists")
        plan = self.planner.parse(query) if isinstance(query, str) else query
        base_tables = frozenset(
            node.table.lower() for node in plan.walk() if isinstance(node, Scan)
        )
        result = self._execute(plan)
        rows = canonical_rows(result.rows)
        DirectPathLoader(self.db).load(name, result.schema, rows, temporary=False)
        view = MaterializedView(
            name=name, plan=plan, schema=result.schema, base_tables=base_tables
        )
        view.sync(self.db)
        self._views[name.lower()] = view
        # The view is a queryable table: give the collector its statistics.
        self.db.analyze(name)
        self.metrics.counter("views_created").inc()
        return view

    def _execute(self, plan: Operator):
        """*plan* through the regular optimize/execute path."""
        optimization = self.planner.plan(plan, self.executor.tracer)
        return self.executor.execute(optimization.plan)

    def drop(self, name: str) -> None:
        view = self.get(name)
        del self._views[name.lower()]
        self.db.drop_table(view.name, if_exists=True)

    def record_update(self, table: str, inserts, deletes) -> None:
        """Feed one applied update batch into every dependent view's
        pending delta log."""
        for view in self._views.values():
            if table.lower() in view.base_tables:
                view.record(table, inserts, deletes)

    # -- the cost-based chooser --------------------------------------------------------

    def choose(self, name: str | MaterializedView) -> RefreshDecision:
        """Price both refresh strategies and pick the cheaper one."""
        view = name if isinstance(name, MaterializedView) else self.get(name)
        planner = self.planner
        # The recompute cost is priced feedback-blind: base statistics and
        # Section 3.3 histograms fully determine what re-running the plan
        # costs, so a corrupted learned cardinality must not inflate the
        # full path in lock-step with the incremental one (it would cancel
        # out and the chooser could never notice the corruption).  Only
        # the *view-size* estimate below trusts the feedback store.
        blind_estimator = CardinalityEstimator(
            planner.collector, planner.predicate_estimator
        )
        factors = planner.factors
        plan_cost = planner.coster(blind_estimator).cost(view.plan)

        table = self.db.table(view.name)
        stored_stats = RelationStats(
            cardinality=max(1, table.cardinality),
            avg_row_size=max(1, table.avg_row_size),
        )
        base_rows = sum(
            planner.collector.collect(base).cardinality for base in view.base_tables
        )
        delta_rows = view.pending_rows
        churn = delta_rows / max(1.0, float(base_rows))

        fingerprint = plan_fingerprint(view.plan)
        learned = (
            self.learner.store.learned_cardinality(fingerprint)
            if fingerprint is not None
            else None
        )
        if learned is not None:
            view_card_est = max(1.0, learned)
            estimate_source = "feedback"
        else:
            view_card_est = max(
                1.0, float(blind_estimator.estimate(view.plan).cardinality)
            )
            estimate_source = "histogram"
        estimated_stats = stored_stats.with_cardinality(view_card_est)
        delta_out_stats = stored_stats.with_cardinality(
            max(1.0, churn * view_card_est)
        )

        full_cost = plan_cost + transfer_d(factors, stored_stats)
        incremental_cost = (
            REFRESH_OVERHEAD_US
            + churn * plan_cost
            + transfer_d(factors, delta_out_stats)
            # Re-merging and re-ordering the stored contents, priced at
            # the cardinality the chooser *believes* the view has.
            + sort_m(factors, estimated_stats)
            + transfer_d(factors, estimated_stats)
        )
        if incremental_cost < full_cost:
            strategy, reason = "incremental", f"cheaper ({estimate_source} estimate)"
        else:
            strategy, reason = "full", f"delta too large ({estimate_source} estimate)"
        return RefreshDecision(
            strategy=strategy,
            reason=reason,
            delta_rows=delta_rows,
            churn=churn,
            estimated_incremental_us=incremental_cost,
            estimated_full_us=full_cost,
        )

    # -- refresh -----------------------------------------------------------------------

    def refresh(
        self,
        name: str,
        strategy: str | None = None,
        explain: bool = False,
    ) -> RefreshOutcome:
        """Bring the stored contents of *name* up to date.

        *strategy* forces ``"incremental"`` or ``"full"`` past the cost
        model (the equivalence tests drive both paths explicitly); the
        incremental path still falls back to a full recompute for shapes
        without a delta rule, on a delta/contents mismatch, or after base
        writes the log did not see.  With *explain*, the outcome carries
        an EXPLAIN ANALYZE report whose banner records the decision.
        """
        view = self.get(name)
        decision = self.choose(view)
        if strategy is not None:
            if strategy not in ("incremental", "full"):
                raise ViewError(f"unknown refresh strategy {strategy!r}")
            decision = replace(
                decision, strategy=strategy, reason="forced", forced=True
            )
        began = time.perf_counter()
        executed = decision.strategy
        delta_applied = 0
        report: ExplainAnalyzeReport | None = None
        with self.executor.tracer.span(
            "refresh",
            kind="refresh",
            view=view.name,
            strategy=decision.strategy,
            reason=decision.reason,
            delta_rows=decision.delta_rows,
            churn=decision.churn,
            estimated_incremental_us=decision.estimated_incremental_us,
            estimated_full_us=decision.estimated_full_us,
        ) as span:
            table = self.db.table(view.name)
            rows: list[tuple] | None = None
            if decision.strategy == "incremental":
                try:
                    if self.db.changes_of(view.logged) != view.logged:
                        raise DeltaMismatch("a base table was written outside the log")
                    state = DeltaState(self.db, view.pending)
                    stored = list(table.rows)
                    rows, delta_applied, rule = self._incremental(view, state, stored)
                    span.set(rule=rule)
                except (DeltaUnsupported, DeltaMismatch, ExecutionError) as error:
                    self.metrics.counter("view_refresh_fallbacks").inc()
                    span.set(fallback=f"{type(error).__name__}: {error}")
                    rows = None
            if rows is None:
                executed = "full"
                rows, report = self._recompute(view, explain=explain)
                table.truncate()
                table.bulk_load(rows)
                self.db.analyze(view.name)
            else:
                # Already canonical, so the store is one assignment; the
                # ANALYZE is deferred (``changes`` records the staleness),
                # so no statistics change and no plan is re-priced.
                table.replace_rows(rows, changed=delta_applied)
                self.db.rebuild_indexes(table)
            view.sync(self.db)
            view.refreshes += 1
            span.set(rows=len(rows), executed=executed)
        elapsed = time.perf_counter() - began
        self.metrics.counter("view_refreshes").inc()
        if executed == "incremental":
            self.metrics.counter("view_refresh_incremental").inc()
        else:
            self.metrics.counter("view_refresh_full").inc()
        self.metrics.histogram("view_delta_rows").observe(decision.delta_rows)
        if explain and report is None:
            report = ExplainAnalyzeReport(
                operators=[],
                estimated_total_us=decision.estimated_incremental_us,
                actual_seconds=elapsed,
                result_rows=len(rows),
                trace=span,
            )
        if report is not None:
            report.banner = decision.banner()
        return RefreshOutcome(
            view=view.name,
            decision=decision,
            strategy=executed,
            rows=len(rows),
            delta_rows_applied=delta_applied,
            elapsed_seconds=elapsed,
            report=report,
        )

    @staticmethod
    def _incremental(
        view: MaterializedView, state: DeltaState, stored: list[tuple]
    ) -> tuple[list[tuple], int, str]:
        """The stored rows brought up to date, how many changed, and the rule
        that did it: ``"window"`` reads a root ``TAGGR`` view's old windows
        from the view itself (``views.delta.refresh_window``), ``"delta"``
        computes the signed delta and splices it in."""
        root = window_root(view.plan, view.schema)
        if root is not None:
            refreshed = refresh_window(root, state, stored)
            if refreshed is not None:
                return (*refreshed, "window")
        delta = compute_delta(view.plan, state)
        return apply_delta_rows(stored, delta), delta.rows, "delta"

    def _recompute(
        self, view: MaterializedView, explain: bool = False
    ) -> tuple[list[tuple], ExplainAnalyzeReport | None]:
        """Full recompute through the regular optimize/execute path."""
        if not explain:
            return canonical_rows(self._execute(view.plan).rows), None
        report, rows = self.executor.explain_analyze(view.plan)
        return canonical_rows(rows), report
