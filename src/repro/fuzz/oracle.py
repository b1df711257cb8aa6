"""The differential oracle: one query, many plans, one answer.

The ground truth for every generated query is its *initial plan* — all
processing in the DBMS, one ``TRANSFER^M`` on top (Section 3.1: the plan
whose semantics define the query).  The oracle executes that baseline once
under the default configuration, then executes *alternatives* against it:

* the top-*k* cheapest plans the full rule set produces from the memo
  (:meth:`repro.optimizer.search.Optimizer.top_plans`);
* plans obtained by forcing a single transformation rule (each rule paired
  with X1, which is required whenever a coalescing step must leave the
  DBMS to become executable);
* the cheapest plan found from the initial plan as ``Planner.plan`` prunes
  it (:func:`~repro.algebra.pruning.prune_columns`) — held, like every
  alternative, to the rows of the plan the pass never saw;
* the baseline plan itself re-run across a worker/chaos/adaptive
  configuration matrix.

Every execution is checked three ways:

1. **multiset**: canonicalized rows must equal the baseline's
   (:func:`repro.fuzz.compare.canonical_rows`);
2. **list**: the rows must satisfy the plan's *declared* order
   (:func:`repro.algebra.properties.guaranteed_order` +
   :func:`repro.fuzz.compare.is_sorted_on`) — ties may reorder, prefixes
   may not;
3. **invariants**: no ``TANGO_TMP*`` temp table survives the execution,
   retries never exceed the policy budget, a chaos-free run injects no
   faults and spends no retries, and the span tree (when traced) is
   well-formed (every span closed, no negative durations).

Any violation becomes a :class:`FailureReport` carrying the *strategy
descriptor* that derived the failing alternative — enough for the
shrinker to re-derive the alternative after each shrink step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.algebra.operators import Operator
from repro.algebra.properties import guaranteed_order
from repro.algebra.pruning import prune_columns
from repro.core.tango import QueryResult, Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection
from repro.errors import DatabaseError, OptimizerError, ReproError
from repro.fuzz.compare import canonical_rows, describe_mismatch, is_sorted_on
from repro.fuzz.generator import FuzzCase
from repro.optimizer.rules import RULES, Rule, default_rules
from repro.optimizer.search import Optimizer
from repro.resilience.faults import FaultInjector, FaultPolicy
from repro.resilience.retry import RetryPolicy
from repro.stats.cardinality import CardinalityEstimator
from repro.stats.collector import StatisticsCollector
from repro.stats.selectivity import PredicateEstimator
from repro.xxl.transfer import TEMP_TABLE_PREFIX

#: Retry policy for chaos executions: generous attempts, no sleeping —
#: chaos runs prove equivalence under faults, not backoff behavior.
CHAOS_RETRY = RetryPolicy(
    max_attempts=10, budget=100_000, base_delay_seconds=0.0, max_delay_seconds=0.0
)

#: The configuration matrix the oracle samples (Section 6's knobs).
WORKER_CHOICES = (1, 2, 4)
#: Adaptive execution crossed into the matrix: cardinality learning —
#: plans chosen from learned cardinalities must stay plan-equivalent and
#: leak no temp tables, under chaos and partitioning too.
ADAPTIVE_CHOICES = (False, True)


@dataclass(frozen=True)
class ExecConfig:
    """One execution configuration an alternative runs under."""

    workers: int = 1
    chaos: bool = False
    chaos_p: float = 0.1
    chaos_seed: int = 0
    tracing: bool = True
    adaptive: bool = False

    def tango_config(self) -> TangoConfig:
        retry = CHAOS_RETRY if self.chaos else RetryPolicy()
        return TangoConfig(
            workers=self.workers,
            retry=retry,
            tracing=self.tracing,
            fallback=False,
            learn_cardinalities=self.adaptive,
        )

    def fault_injector(self) -> FaultInjector | None:
        if not self.chaos:
            return None
        policy = FaultPolicy(
            round_trip_p=self.chaos_p, load_chunk_p=self.chaos_p
        )
        return FaultInjector(policy, seed=self.chaos_seed)


DEFAULT_CONFIG = ExecConfig()

#: A strategy descriptor: how an alternative plan was derived.  The
#: shrinker replays these against shrunk cases, so they must be pure data.
Strategy = tuple


@dataclass
class FailureReport:
    """One oracle violation, with everything needed to replay it."""

    case: FuzzCase
    strategy: Strategy
    plan: Operator
    config: ExecConfig
    kind: str
    message: str

    def describe(self) -> str:
        return (
            f"[{self.kind}] strategy={self.strategy} config={self.config}\n"
            f"{self.message}\n"
            f"--- case ---\n{self.case.describe()}\n"
            f"--- failing plan ---\n{self.plan.pretty()}"
        )


def execute_with_config(
    db: MiniDB, plan: Operator, config: ExecConfig = DEFAULT_CONFIG
) -> "QueryResult":
    """Execute *plan* against *db* under *config*.

    Returns the full :class:`~repro.core.tango.QueryResult` — rows, trace,
    timings — the one result type every consumer shares.  The standalone
    entry point emitted reproducers call: one Tango instance, one
    execution, deterministic per config.
    """
    tango = Tango(
        db, config=config.tango_config(), fault_injector=config.fault_injector()
    )
    try:
        return tango.execute_plan(plan)
    finally:
        tango.close()


def build_estimator(db: MiniDB) -> CardinalityEstimator:
    """A statistics-backed estimator over *db* (tables must be analyzed)."""
    return CardinalityEstimator(
        StatisticsCollector(Connection(db)), PredicateEstimator()
    )


def derive_alternative(
    db: MiniDB, initial_plan: Operator, strategy: Strategy
) -> Operator | None:
    """Re-derive the alternative plan *strategy* describes, or None.

    Strategies:

    * ``("baseline",)`` — the optimized initial plan itself (used by the
      configuration matrix);
    * ``("memo", rank)`` — the rank-th cheapest distinct plan under the
      full rule set;
    * ``("rule", name)`` — the best plan reachable with only rule *name*
      (plus X1, the executability rule) enabled;
    * ``("pruned",)`` — the cheapest plan under the full rule set from the
      initial plan with its scans narrowed to the columns that are read.
    """
    if strategy == ("pruned",):
        return derive_alternative(db, prune_columns(initial_plan), ("memo", 0))
    estimator = build_estimator(db)
    kind = strategy[0]
    try:
        if kind == "baseline":
            return Optimizer(estimator, rules=[RULES["X1"]]).optimize(
                initial_plan
            ).plan
        if kind == "memo":
            rank = strategy[1]
            plans = Optimizer(estimator).top_plans(initial_plan, k=rank + 1)
            if not plans:
                return None
            return plans[min(rank, len(plans) - 1)][0]
        if kind == "rule":
            rule = _rule_by_name(strategy[1])
            if rule is None:
                return None
            rules: list[Rule] = [rule]
            if rule.name != "X1":
                rules.append(RULES["X1"])
            plans = Optimizer(estimator, rules=rules).top_plans(initial_plan, k=1)
            return plans[0][0] if plans else None
    except (OptimizerError, RecursionError):
        return None
    raise ValueError(f"unknown strategy {strategy!r}")


def _rule_by_name(name: str) -> Rule | None:
    for rule in default_rules():
        if rule.name == name:
            return rule
    return None


@dataclass
class Oracle:
    """Runs one :class:`FuzzCase` through the differential checks."""

    #: Memo plans sampled per case.
    top_k: int = 3
    #: Forced single-rule strategies sampled per case.
    rule_samples: int = 3
    #: Configuration-matrix points sampled per case.
    config_samples: int = 2
    #: Cross adaptive execution (cardinality learning) into the matrix:
    #: plans chosen from learned cardinalities must stay plan-equivalent
    #: and leak no temp tables.
    adaptive_axis: bool = True
    #: Run each case's mutate-then-refresh check: materialize the query as
    #: a view, apply the case's update batches, refresh incrementally, and
    #: compare against a from-scratch recompute (the ground truth).
    updates_axis: bool = True
    #: Total plan executions performed so far (the harness budget unit).
    executions: int = field(default=0, init=False)

    def check_case(self, case: FuzzCase, rng) -> FailureReport | None:
        """Execute *case* under the baseline and sampled alternatives.

        Returns the first violation found, or None when every execution
        agreed with the baseline and kept the invariants.
        """
        db = case.build_db()
        baseline_plan = derive_alternative(db, case.plan, ("baseline",))
        if baseline_plan is None:
            raise OptimizerError("baseline derivation failed")
        outcome = self._execute(db, baseline_plan, DEFAULT_CONFIG)
        if isinstance(outcome, _ExecutionFailure):
            return FailureReport(
                case, ("baseline",), baseline_plan, DEFAULT_CONFIG,
                outcome.kind, outcome.message,
            )
        baseline = canonical_rows(outcome.result.rows)
        invariant = self._check_invariants(outcome, baseline_plan)
        if invariant is not None:
            return FailureReport(
                case, ("baseline",), baseline_plan, DEFAULT_CONFIG,
                invariant[0], invariant[1],
            )

        for strategy, plan, config in self._alternatives(db, case, baseline_plan, rng):
            failure = self._check_one(db, case, strategy, plan, config, baseline)
            if failure is not None:
                return failure

        if self.updates_axis and case.updates:
            # A fresh database: the view dance mutates base tables.
            violation = self._probe_updates(
                case.build_db(), case.plan, case.updates, case.update_table
            )
            if violation is not None:
                kind, message, _baseline_plan, failing_plan = violation
                return FailureReport(
                    case, ("updates",), failing_plan, DEFAULT_CONFIG, kind, message
                )
        return None

    def probe(
        self,
        db: MiniDB,
        initial_plan: Operator,
        strategy: Strategy,
        config: ExecConfig,
        updates: tuple = (),
        update_table: str | None = None,
    ):
        """Re-check one (initial plan, strategy, config) point.

        The shrinker's fitness function: returns ``(kind, message,
        baseline_plan, failing_plan)`` when the point still fails, None
        when it passes (or the strategy no longer derives a plan — a
        shrink step that kills the derivation is a step too far).  The
        ``("updates",)`` strategy replays *updates* through the view
        machinery instead of deriving an alternative plan.
        """
        if strategy and strategy[0] == "updates":
            return self._probe_updates(db, initial_plan, updates, update_table)
        baseline_plan = derive_alternative(db, initial_plan, ("baseline",))
        if baseline_plan is None:
            return None
        outcome = self._execute(db, baseline_plan, DEFAULT_CONFIG)
        if isinstance(outcome, _ExecutionFailure):
            return outcome.kind, outcome.message, baseline_plan, baseline_plan
        baseline = canonical_rows(outcome.result.rows)
        invariant = self._check_invariants(outcome, baseline_plan)
        if invariant is not None:
            return invariant[0], invariant[1], baseline_plan, baseline_plan
        if strategy == ("baseline",):
            alternative = baseline_plan
        else:
            alternative = derive_alternative(db, initial_plan, strategy)
        if alternative is None:
            return None
        failure = self._check_one(db, None, strategy, alternative, config, baseline)
        if failure is None:
            return None
        return failure.kind, failure.message, baseline_plan, alternative

    # -- the update axis ---------------------------------------------------------------

    def _probe_updates(self, db, initial_plan, updates, update_table):
        """One mutate-then-refresh check; the ground truth is a scratch
        recompute of the view's defining plan over the updated tables.

        Returns ``(kind, message, baseline_plan, failing_plan)`` or None.
        An update batch that no longer replays (a shrink step removed the
        rows it deletes, or the table itself) is a pass — the shrinker
        must respect the stream's data dependencies, not report them.
        """
        if not updates or update_table is None:
            return None
        tango = Tango(db, config=ExecConfig().tango_config())
        self.executions += 1
        try:
            tango.create_view("FUZZVIEW", initial_plan)
            for batch in updates:
                tango.apply_updates(update_table, batch.inserts, batch.deletes)
            tango.refresh_view("FUZZVIEW", strategy="incremental")
            stored = list(db.table("FUZZVIEW").rows)
            scratch = tango.execute_plan(tango.optimize(initial_plan).plan)
            expected = canonical_rows(scratch.rows)
        except DatabaseError:
            return None
        except ReproError as error:
            return (
                "execution-error",
                f"view refresh: {type(error).__name__}: {error}",
                initial_plan,
                initial_plan,
            )
        finally:
            tango.close()
            db.drop_table("FUZZVIEW", if_exists=True)
        if stored != expected:
            return (
                "view-refresh-mismatch",
                describe_mismatch([tuple(row) for row in expected], stored),
                initial_plan,
                initial_plan,
            )
        return None

    # -- alternative enumeration -------------------------------------------------------

    def _alternatives(self, db, case, baseline_plan, rng):
        estimator = build_estimator(db)
        seen = {baseline_plan.cache_key}

        try:
            ranked = Optimizer(estimator).top_plans(case.plan, k=self.top_k + 1)
        except (OptimizerError, RecursionError):
            ranked = []
        for rank, (plan, _cost) in enumerate(ranked):
            if plan.cache_key in seen:
                continue
            seen.add(plan.cache_key)
            yield ("memo", rank), plan, DEFAULT_CONFIG

        rule_names = [rule.name for rule in default_rules()]
        strategies = [("pruned",)] + [
            ("rule", name)
            for name in rng.sample(rule_names, k=min(self.rule_samples, len(rule_names)))
        ]
        for strategy in strategies:
            plan = derive_alternative(db, case.plan, strategy)
            if plan is None or plan.cache_key in seen:
                continue
            seen.add(plan.cache_key)
            yield strategy, plan, DEFAULT_CONFIG

        adaptive_choices = ADAPTIVE_CHOICES if self.adaptive_axis else (False,)
        matrix = [
            ExecConfig(
                workers=workers,
                chaos=chaos,
                chaos_seed=rng.randrange(2**31) if chaos else 0,
                adaptive=adaptive,
            )
            for workers, chaos, adaptive in itertools.product(
                WORKER_CHOICES,
                (False, True),
                adaptive_choices,
            )
            if (workers, chaos, adaptive) != (1, False, False)
        ]
        for config in rng.sample(matrix, k=min(self.config_samples, len(matrix))):
            yield ("baseline",), baseline_plan, config

    # -- execution + checks ------------------------------------------------------------

    def _check_one(
        self, db, case, strategy, plan, config, baseline
    ) -> FailureReport | None:
        outcome = self._execute(db, plan, config)
        if isinstance(outcome, _ExecutionFailure):
            return FailureReport(
                case, strategy, plan, config, outcome.kind, outcome.message
            )
        if canonical_rows(outcome.result.rows) != baseline:
            return FailureReport(
                case, strategy, plan, config, "multiset-mismatch",
                describe_mismatch(
                    [tuple(row) for row in baseline], outcome.result.rows
                ),
            )
        invariant = self._check_invariants(outcome, plan)
        if invariant is not None:
            return FailureReport(
                case, strategy, plan, config, invariant[0], invariant[1]
            )
        return None

    def _execute(self, db, plan, config):
        self.executions += 1
        injector = config.fault_injector()
        tango = Tango(db, config=config.tango_config(), fault_injector=injector)
        # The test suite's chaos profile (TANGO_CHAOS_P) substitutes an
        # injector into every Tango; when that happened, "chaos off" runs
        # are faulted anyway and the no-faults invariant must stand down.
        ambient_chaos = injector is None and tango.fault_injector is not None
        budget = tango.config.retry.budget
        try:
            result = tango.execute_plan(plan)
        except ReproError as error:
            return _ExecutionFailure(
                "execution-error", f"{type(error).__name__}: {error}"
            )
        finally:
            metrics = tango.metrics.to_dict()["counters"]
            tango.close()
        leaked = [
            name
            for name in db.list_tables()
            if name.upper().startswith(TEMP_TABLE_PREFIX)
        ]
        return _ExecutionOutcome(
            result=result,
            metrics=metrics,
            leaked=leaked,
            config=config,
            budget=budget,
            ambient_chaos=ambient_chaos,
        )

    def _check_invariants(self, outcome, plan) -> tuple[str, str] | None:
        if outcome.leaked:
            return "temp-leak", f"temp tables left behind: {outcome.leaked}"
        retries = outcome.metrics.get("retries", 0)
        faults = outcome.metrics.get("faults_injected", 0)
        if retries > outcome.budget:
            return (
                "retry-budget",
                f"{retries} retries recorded against a budget of {outcome.budget}",
            )
        if not outcome.config.chaos and not outcome.ambient_chaos and (retries or faults):
            return (
                "chaos-metrics",
                f"chaos off, yet retries={retries} faults={faults}",
            )
        span_problem = self._span_problem(outcome.result.trace)
        if span_problem is not None:
            return "span", span_problem
        order = tuple(guaranteed_order(plan))
        if order and not is_sorted_on(outcome.result.rows, plan.schema, order):
            return (
                "order-violation",
                f"plan declares order {order} but delivered rows violate it",
            )
        return None

    def _span_problem(self, trace) -> str | None:
        if trace is None:
            return None
        # The root must carry timing (tracer end-stamp or reconstructed
        # duration); descendant cursor spans may legitimately be untimed —
        # per-cursor wall time is the EXPLAIN ANALYZE path.
        if trace.end is None and trace.seconds is None:
            return f"root span {trace.name!r} was never closed"
        for span in trace.iter():
            if span.end is not None and span.end < span.start:
                return f"span {span.name!r} ends before it starts"
            if span.seconds is not None and span.seconds < 0:
                return f"span {span.name!r} has negative duration"
        return None


@dataclass
class _ExecutionOutcome:
    #: The execution's QueryResult — the single result type everywhere.
    result: QueryResult
    metrics: dict
    leaked: list
    config: ExecConfig
    budget: int = RetryPolicy().budget
    ambient_chaos: bool = False


@dataclass
class _ExecutionFailure:
    kind: str
    message: str
