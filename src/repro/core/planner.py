"""The Planner: parse → plan cache → optimize, under one planning epoch.

Figure 1's optimizer is fed by the Statistics Collector and the Cost
Estimator; the Section 7 arrow feeds learned cardinalities and adapted
cost factors back into it.  The question "what was this plan priced with,
and is that still true?" has one owner here: the statistics, both
estimators, the cost factors, the learned-cardinality source, the
:class:`~repro.optimizer.search.Optimizer` and the plan cache
(:attr:`Planner.cache`) all belong to the :class:`Planner`.  Factors and
learned cardinalities change through it (:meth:`Planner.set_factors`,
:meth:`Planner.learned`), statistics in the catalog, which moves
``MiniDB.statistics_version`` — each ending in the one private
``_advance()``.  The cache key is ``(fingerprint(query), epoch)``: a stale
plan is a key that no longer matches, aged out by the LRU; nothing is ever
scanned, cleared or reset from outside.  Plans are
safe to share across executions: compilation builds fresh cursors (and
fresh ``TANGO_TMP`` names) per run and never mutates the operator tree.
The explored memos kept per query shape (:attr:`Planner.shapes`) have no
epoch in their key: exploration reads nothing an epoch changes.

One planner serves every thread of a middleware instance (a query
service's workers all plan with one), so its public methods are
thread-safe: a cache hit takes only the cache's own lock; a miss and
every advance serialize on the planner's.
"""

from __future__ import annotations

import threading
from typing import Hashable

from repro.algebra.operators import Operator
from repro.algebra.pruning import prune_columns
from repro.core.parser import parse_temporal_query
from repro.core.texts import Lexed, Text, lex, remember
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection
from repro.lru import LRUCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.optimizer.costs import CostFactors, PlanCoster
from repro.optimizer.physical import validate_plan
from repro.optimizer.search import OptimizationResult, Optimizer
from repro.optimizer.shapes import literals, shaped, spelling
from repro.stats.cardinality import CardinalityEstimator
from repro.stats.collector import StatisticsCollector
from repro.stats.selectivity import PredicateEstimator

#: Finished plans, and explored memos, each planner keeps (LRU).
PLAN_CACHE_SIZE = 64


def fingerprint(query: str | Operator) -> Hashable:
    """*query*'s identity in the plan cache.

    SQL text is whitespace-collapsed *outside* single-quoted string
    literals, so ``SELECT  a`` and ``SELECT a`` share a plan while
    ``WHERE Name = 'Alice'`` and ``… = 'Alice '`` do not.  Spellings are
    kept: an alias names a result column as it is written.  An operator
    tree is its :attr:`~repro.algebra.operators.Operator.cache_key`: every
    field of every node, a temporal operator's period and a literal's
    declared type included — and the
    :func:`~repro.optimizer.shapes.spelling` of each literal, which that
    key, comparing literals as Python values, leaves out (``5`` is ``5.0``
    there).
    """
    if isinstance(query, str):
        parts = query.strip().rstrip(";").split("'")
        parts[::2] = [" ".join(part.split()) for part in parts[::2]]
        return "'".join(parts)
    return query.cache_key, tuple(map(spelling, literals(query)))


class Planner:
    """Everything a plan is priced with, and the plans priced with it.

    *config* supplies ``use_histograms`` and ``workers`` (the parallel
    degree plans are costed at).  Read :attr:`epoch`,
    :attr:`factors`, :attr:`estimator` and :attr:`optimizer` freely; they
    are replaced, never mutated, and only by this class — after a
    re-ANALYZE, at the next :meth:`plan`, :meth:`coster` or
    :attr:`estimator` read.
    """

    def __init__(
        self,
        db: MiniDB,
        config,
        *,
        factors: CostFactors | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.db = db
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Reads the catalog only — never a round trip, so the connection
        #: is the planner's own, outside any fault injection.
        self.collector = StatisticsCollector(Connection(db))
        self.predicate_estimator = PredicateEstimator(
            use_histograms=config.use_histograms
        )
        self.cache = LRUCache(PLAN_CACHE_SIZE)
        #: Explored memos by query shape (DESIGN.md §12).  Exploration reads
        #: no statistic, factor or learned cardinality, so unlike
        #: :attr:`cache` these are not keyed by the epoch: every epoch's
        #: optimizer shares them.
        self.shapes = LRUCache(PLAN_CACHE_SIZE)
        #: Temporal texts by their literal-blind tokens (DESIGN.md §12): a
        #: text of a kept key is lexed and bound, not parsed.  Parsing reads
        #: schemas only, so an entry lives while its tables' schemas do.
        self.texts = LRUCache(PLAN_CACHE_SIZE)
        self.factors = factors or CostFactors()
        self.epoch = -1
        self._feedback = None  # the Learner's store (use_feedback)
        self._lock = threading.RLock()
        self._advance()

    def _advance(self) -> None:
        """Enter a new planning epoch: every cached plan stops matching,
        and the estimator (memoized per plan node) and the optimizer built
        on it are replaced by ones that see the current statistics, learned
        cardinalities and factors."""
        with self._lock:
            self._version = self.db.statistics_version
            self.epoch += 1
            self._estimator = CardinalityEstimator(
                self.collector,
                self.predicate_estimator,
                metrics=self.metrics,
                feedback=self._feedback,
            )
            self.optimizer = Optimizer(
                self._estimator,
                self.factors,
                parallel_degree=self.config.workers,
                shapes=self.shapes,
            )

    @property
    def estimator(self) -> CardinalityEstimator:
        """The current epoch's cardinality estimator."""
        self._catch_up()
        return self._estimator

    # -- what moves the epoch -----------------------------------------------------------

    def _catch_up(self) -> None:
        """Advance iff the catalog replaced statistics since the last
        advance (re-checked under the lock: one advance per move)."""
        if self._version != self.db.statistics_version:
            with self._lock:
                if self._version != self.db.statistics_version:
                    self._advance()

    def set_factors(self, factors: CostFactors) -> None:
        """Price every later plan with *factors* (calibration, or the
        learner's materially drifted transfer factors)."""
        with self._lock:
            self.factors = factors
            self._advance()

    def use_feedback(self, store) -> None:
        """Prefer *store*'s learned cardinalities over derived ones."""
        with self._lock:
            self._feedback = store
            self._advance()

    def learned(self, material: bool) -> None:
        """The feedback store changed; re-plan iff the change was material."""
        if material:
            self._advance()

    # -- planning -----------------------------------------------------------------------

    def parse(self, sql: str) -> Operator:
        """Temporal SQL → initial plan (all processing in the DBMS)."""
        lexed, text = self._recall(sql)
        if text is not None:
            return text.parsed(lexed)
        return parse_temporal_query(sql, self.db)

    def _recall(self, sql: str) -> tuple[Lexed | None, Text | None]:
        """*sql* lexed, and what is kept of its literal-blind text."""
        lexed = lex(sql)
        if lexed is None:
            return None, None
        return lexed, self.texts.get(lexed.key, valid=lambda text: text.current(self.db))

    def cache_key(self, query: str | Operator) -> tuple[Hashable, int]:
        """Where *query*'s plan is cached during the current epoch."""
        self._catch_up()
        return fingerprint(query), self.epoch

    def plan(self, query: str | Operator, tracer: Tracer = NULL_TRACER) -> OptimizationResult:
        """The validated plan for *query* (temporal SQL or an initial
        plan): from the cache when the current epoch has planned it — a
        hit skips parsing and the optimizer entirely — else freshly
        optimized and cached."""
        self._catch_up()
        identity = fingerprint(query)
        cached = self.cache.get((identity, self.epoch))
        if cached is not None:
            self.metrics.counter("plan_cache_hits").inc()
            return cached
        self.metrics.counter("plan_cache_misses").inc()
        with self._lock:
            # Keyed under the lock: the epoch cannot move while we plan.
            key = (identity, self.epoch)
            cached = self.cache.get(key)
            if cached is not None:  # planned by another thread while we waited
                return cached
            lexed = text = None
            initial = query
            if isinstance(query, str):
                with tracer.span("parse", kind="phase"):
                    lexed, text = self._recall(query)
                    if text is None:
                        initial = parse_temporal_query(query, self.db)
            if text is not None:
                searched = text.query(lexed)
            else:
                # What the optimizer searches from ships only the columns
                # that are read; the unpruned plan stays the oracle
                # (DESIGN.md §18).
                searched = shaped(prune_columns(initial))
                if lexed is not None:
                    text = remember(lexed, initial, searched, self.db)
                    if text is not None:
                        self.texts.put(lexed.key, text)
            self.metrics.counter("optimizer_runs").inc()
            result = self.optimizer.optimize(searched, tracer=tracer)
            validate_plan(result.plan)
            self.cache.put(key, result)
        self.metrics.histogram("memo_classes").observe(result.class_count)
        self.metrics.histogram("memo_elements").observe(result.element_count)
        self.metrics.counter(
            "optimizer_shape_hits" if result.shape_hit else "optimizer_shape_misses"
        ).inc()
        return result

    def coster(self, estimator: CardinalityEstimator | None = None) -> PlanCoster:
        """A coster under the current factors and parallel degree, over the
        current estimator unless the caller brings its own."""
        return PlanCoster(
            estimator or self.estimator,
            self.factors,
            parallel_degree=self.config.workers,
        )
