"""Result-cardinality derivation for algebra operators.

"The availability of statistics on base relations as well as the ability to
derive statistics for intermediate relations are important to the query
optimizer" (Section 3).  :class:`CardinalityEstimator` walks a logical plan
and produces a :class:`~repro.stats.collector.RelationStats` for every node:

* selections use :class:`~repro.stats.selectivity.PredicateEstimator`
  (semantic temporal estimation included);
* joins use the classic ``|L|·|R| / max(d(a), d(b))`` equi-join estimate;
* temporal joins additionally apply an overlap factor derived from average
  period durations over the shared lifespan (after Gunadhi & Segev);
* temporal aggregation implements the Section 3.4 bounds and the paper's
  60 %-of-maximum rule.
"""

from __future__ import annotations

from dataclasses import replace

from repro.algebra.expressions import ColumnRef
from repro.algebra.operators import (
    Coalesce,
    Dedup,
    Difference,
    Join,
    Operator,
    Product,
    Project,
    Scan,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferD,
    TransferM,
)
from repro.errors import StatisticsError
from repro.stats.collector import AttributeStats, RelationStats, StatisticsCollector
from repro.stats.fingerprint import plan_fingerprint
from repro.stats.selectivity import PredicateEstimator


class CardinalityEstimator:
    """Derives statistics for every node of a logical plan.

    Results are memoized per operator identity for the lifetime of the
    estimator, so costing many plans over shared subtrees stays cheap.
    """

    def __init__(
        self,
        collector: StatisticsCollector,
        predicate_estimator: PredicateEstimator | None = None,
        taggr_max_fraction: float = 0.6,
        metrics=None,
        feedback=None,
    ):
        self._collector = collector
        self._predicates = predicate_estimator or PredicateEstimator()
        self._taggr_max_fraction = taggr_max_fraction
        self._cache: dict[tuple, RelationStats] = {}
        #: Equi-join pair counts by the identity of their two input estimates
        #: (and the key attributes), each stored beside the estimates it was
        #: derived from so that neither identity can be reused: the
        #: ``TJOIN^D`` cost asks again for the count its node's estimate
        #: already derived.
        self._pairs: dict[tuple, tuple[RelationStats, RelationStats, float]] = {}
        #: Cache-traffic counters of an optional
        #: repro.obs.metrics.MetricsRegistry, looked up once: ``estimate``
        #: runs thousands of times per optimization.  (A registry
        #: ``reset()`` would detach them; nothing resets a live one.)
        self._hits = self._misses = None
        if metrics is not None:
            self._hits = metrics.counter("estimator_cache_hits")
            self._misses = metrics.counter("estimator_cache_misses")
        #: Optional :class:`~repro.core.learner.CardinalityFeedbackStore`
        #: (anything with ``learned_cardinality(fp)``): a learned
        #: cardinality overrides the derived one per subtree.  Estimates
        #: are memoized against the store as it was when first asked; the
        #: planner builds a fresh estimator when the store materially moves.
        self._feedback = feedback
        self._fingerprints: dict[tuple, str | None] = {}

    # -- public API -----------------------------------------------------------------

    def estimate(self, plan: Operator) -> RelationStats:
        """Statistics of the relation *plan* evaluates to."""
        key = plan.cache_key
        cached = self._cache.get(key)
        if cached is not None:
            if self._hits is not None:
                self._hits.inc()
            return cached
        if self._misses is not None:
            self._misses.inc()
        stats = self._apply_feedback(plan, self._dispatch(plan))
        self._cache[key] = stats
        return stats

    def _apply_feedback(self, plan: Operator, stats: RelationStats) -> RelationStats:
        """Prefer a learned cardinality over the derived one (observed
        actuals outrank any model) — scaled copy, same attribute shapes."""
        if not self._feedback:
            # No store, or an empty one: nothing to look a fingerprint up
            # in (learning something moves the planning epoch, and the
            # planner re-derives on a fresh estimator).
            return stats
        key = plan.cache_key
        if key not in self._fingerprints:
            self._fingerprints[key] = plan_fingerprint(plan)
        fingerprint = self._fingerprints[key]
        if fingerprint is None:
            return stats
        learned = self._feedback.learned_cardinality(fingerprint)
        if learned is None or learned == stats.cardinality:
            return stats
        return stats.with_cardinality(learned)

    def selectivity(self, predicate, stats: RelationStats) -> float:
        return self._predicates.estimate(predicate, stats)

    # -- dispatch -------------------------------------------------------------------

    def _dispatch(self, plan: Operator) -> RelationStats:
        if isinstance(plan, Scan):
            return self._collector.collect(plan.table)
        if isinstance(plan, Select):
            return self._select(plan)
        if isinstance(plan, Project):
            return self._project(plan)
        if isinstance(plan, (Sort, TransferM, TransferD)):
            return self.estimate(plan.inputs[0])
        if isinstance(plan, Dedup):
            return self._dedup(plan)
        if isinstance(plan, Coalesce):
            return self._coalesce(plan)
        if isinstance(plan, Product):
            return self._product(plan)
        if isinstance(plan, Join):
            return self._join(plan)
        if isinstance(plan, TemporalJoin):
            return self._temporal_join(plan)
        if isinstance(plan, TemporalAggregate):
            return self._temporal_aggregate(plan)
        if isinstance(plan, Difference):
            return self.estimate(plan.inputs[0])
        raise StatisticsError(f"no cardinality rule for {type(plan).__name__}")

    # -- per-operator rules ------------------------------------------------------------

    def _select(self, plan: Select) -> RelationStats:
        input_stats = self.estimate(plan.input)
        selectivity = self._predicates.estimate(plan.predicate, input_stats)
        return input_stats.with_cardinality(input_stats.cardinality * selectivity)

    def _project(self, plan: Project) -> RelationStats:
        input_stats = self.estimate(plan.input)
        schema = plan.schema
        attributes: dict[str, AttributeStats] = {}
        for name, expression in plan.outputs:
            if isinstance(expression, ColumnRef):
                source = input_stats.attributes.get(expression.name.lower())
                if source is not None:
                    attributes[name.lower()] = replace(source, name=name)
        return RelationStats(
            cardinality=input_stats.cardinality,
            avg_row_size=schema.row_width,
            blocks=max(1, int(input_stats.cardinality * schema.row_width // 8192)),
            attributes=attributes,
        )

    def _dedup(self, plan: Dedup) -> RelationStats:
        input_stats = self.estimate(plan.input)
        bound = 1.0
        for attribute in plan.schema:
            stats = input_stats.attributes.get(attribute.name.lower())
            distinct = stats.distinct if stats and stats.distinct else input_stats.cardinality
            bound *= max(1.0, float(distinct))
            if bound >= input_stats.cardinality:
                return input_stats
        return input_stats.with_cardinality(min(bound, input_stats.cardinality))

    def _coalesce(self, plan: Coalesce) -> RelationStats:
        # Coalescing never grows a relation; without value-correlation
        # statistics we keep the (safe) input cardinality.
        return self.estimate(plan.input)

    def _product(self, plan: Product) -> RelationStats:
        left = self.estimate(plan.left)
        right = self.estimate(plan.right)
        return self._combined(plan, left, right, left.cardinality * right.cardinality)

    def equi_join_cardinality(
        self,
        left: RelationStats,
        right: RelationStats,
        left_attr: str,
        right_attr: str,
    ) -> float:
        """Equi-join cardinality: histogram-based (skew aware) when both
        sides carry histograms and histograms are enabled; otherwise the
        classic uniform ``|L|·|R| / max(d_l, d_r)``.  Memoized per pair of
        input estimates."""
        key = (id(left), id(right), left_attr, right_attr)
        known = self._pairs.get(key)
        if known is not None:
            return known[2]
        pairs = self._equi_join_pairs(left, right, left_attr, right_attr)
        self._pairs[key] = (left, right, pairs)
        return pairs

    def _equi_join_pairs(
        self,
        left: RelationStats,
        right: RelationStats,
        left_attr: str,
        right_attr: str,
    ) -> float:
        if self._predicates.use_histograms:
            from repro.stats.selectivity import histogram_join_cardinality

            estimated = histogram_join_cardinality(left, right, left_attr, right_attr)
            if estimated is not None:
                return estimated
        distinct = max(
            left.attribute(left_attr).distinct,
            right.attribute(right_attr).distinct,
            1,
        )
        return left.cardinality * right.cardinality / distinct

    def _join(self, plan: Join) -> RelationStats:
        left = self.estimate(plan.left)
        right = self.estimate(plan.right)
        cardinality = self.equi_join_cardinality(
            left, right, plan.left_attr, plan.right_attr
        )
        if plan.residual is not None:
            combined = self._combined(plan, left, right, cardinality)
            selectivity = self._predicates.estimate(plan.residual, combined)
            cardinality *= selectivity
        return self._combined(plan, left, right, cardinality)

    def _temporal_join(self, plan: TemporalJoin) -> RelationStats:
        left = self.estimate(plan.left)
        right = self.estimate(plan.right)
        equi_cardinality = self.equi_join_cardinality(
            left, right, plan.left_attr, plan.right_attr
        )
        overlap = self._overlap_factor(left, right, plan.period)
        return self._combined(plan, left, right, equi_cardinality * overlap)

    def _overlap_factor(
        self,
        left: RelationStats,
        right: RelationStats,
        period: tuple[str, str],
    ) -> float:
        """Probability that two periods with matching keys overlap.

        With histograms on the left side's T1 (standard DBMS statistics),
        the factor integrates the Overlaps selectivity of the right side
        over the left side's start-time distribution — temporally clustered
        data (like UIS, concentrated after 1992) then gets the high overlap
        probability it actually exhibits.  Without histograms, the uniform
        approximation after Gunadhi & Segev: two periods of average
        durations d1, d2 on a shared lifespan L overlap with probability
        ≈ (d1 + d2) / L.
        """
        t1, t2 = period
        duration_left = _avg_duration(left, period)
        if self._predicates.use_histograms:
            start_histogram = left.attribute(t1).histogram
            if start_histogram is not None and start_histogram.total > 0:
                factor = 0.0
                from repro.stats.selectivity import overlaps_selectivity

                for i in range(start_histogram.num_buckets):
                    fraction = start_histogram.b_val(i) / start_histogram.total
                    if fraction <= 0:
                        continue
                    midpoint = (
                        start_histogram.b1(i) + start_histogram.b2(i)
                    ) / 2
                    factor += fraction * overlaps_selectivity(
                        midpoint, midpoint + max(1.0, duration_left),
                        right, period,
                    )
                return max(0.0, min(1.0, factor))
        lifespan_start = _min_or_none(
            left.attribute(t1).min_value, right.attribute(t1).min_value
        )
        lifespan_end = _max_or_none(
            left.attribute(t2).max_value, right.attribute(t2).max_value
        )
        if lifespan_start is None or lifespan_end is None:
            return 1.0
        lifespan = float(lifespan_end) - float(lifespan_start)
        if lifespan <= 0:
            return 1.0
        duration_right = _avg_duration(right, period)
        factor = (duration_left + duration_right) / lifespan
        return max(0.0, min(1.0, factor))

    def _temporal_aggregate(self, plan: TemporalAggregate) -> RelationStats:
        input_stats = self.estimate(plan.input)
        cardinality = input_stats.cardinality
        t1, t2 = plan.period
        distinct_t1 = input_stats.attribute(t1).distinct or int(cardinality)
        distinct_t2 = input_stats.attribute(t2).distinct or int(cardinality)

        group_distincts = [
            max(1, input_stats.attribute(name).distinct or 1)
            for name in plan.group_by
        ]
        minimum_candidates = [float(distinct_t1 + 1), float(distinct_t2 + 1)]
        minimum_candidates.extend(float(d) for d in group_distincts)
        minimum = min(minimum_candidates) if cardinality >= 1 else 0.0

        if not plan.group_by:
            maximum = float(distinct_t1 + distinct_t2 + 1)
        else:
            top = max(group_distincts)
            per_group = cardinality / top if top else cardinality
            maximum = (per_group * 2 - 1) * top
            # Tightening in the spirit of Section 3.4 ("knowing the number of
            # distinct values ... allows us to tighten the range"): each
            # group's intervals are bounded by the global instant count.
            maximum = min(maximum, top * (distinct_t1 + distinct_t2 + 1))
        maximum = min(maximum, cardinality * 2 - 1 if cardinality >= 1 else 0.0)
        maximum = max(maximum, minimum)

        estimate = self._taggr_max_fraction * maximum
        if estimate <= minimum:
            estimate = minimum

        schema = plan.schema
        attributes: dict[str, AttributeStats] = {}
        for name in plan.group_by:
            source = input_stats.attributes.get(name.lower())
            if source is not None:
                attributes[name.lower()] = source.scaled_to(estimate)
        for name in plan.period:
            source = input_stats.attributes.get(name.lower())
            if source is not None:
                attributes[name.lower()] = replace(
                    source, histogram=None
                ).scaled_to(estimate)
        return RelationStats(
            cardinality=estimate,
            avg_row_size=schema.row_width,
            blocks=max(1, int(estimate * schema.row_width // 8192)),
            attributes=attributes,
        )

    # -- helpers -------------------------------------------------------------------

    def _combined(
        self,
        plan: Operator,
        left: RelationStats,
        right: RelationStats,
        cardinality: float,
    ) -> RelationStats:
        """Stats for a two-input operator's output schema.

        Attribute statistics are matched from the inputs by bare name
        (disambiguated right-side names fall back to their originals).
        """
        cardinality = max(0.0, cardinality)
        schema = plan.schema
        attributes: dict[str, AttributeStats] = {}
        for attribute in schema:
            key = attribute.name.lower()
            source = left.attributes.get(key) or right.attributes.get(key)
            if source is None and "_" in key:
                base = key.rsplit("_", 1)[0]
                source = right.attributes.get(base) or left.attributes.get(base)
            if source is not None:
                attributes[key] = replace(source, name=attribute.name).scaled_to(
                    cardinality
                )
        return RelationStats(
            cardinality=cardinality,
            avg_row_size=schema.row_width,
            blocks=max(1, int(cardinality * schema.row_width // 8192)),
            attributes=attributes,
        )


def _avg_duration(stats: RelationStats, period: tuple[str, str]) -> float:
    """Average period duration ≈ mean(T2) − mean(T1) under uniformity."""
    t1 = stats.attribute(period[0])
    t2 = stats.attribute(period[1])
    if (
        t1.min_value is None
        or t1.max_value is None
        or t2.min_value is None
        or t2.max_value is None
    ):
        return 0.0
    mean_start = (float(t1.min_value) + float(t1.max_value)) / 2
    mean_end = (float(t2.min_value) + float(t2.max_value)) / 2
    return max(0.0, mean_end - mean_start)


def _min_or_none(a: float | None, b: float | None) -> float | None:
    values = [v for v in (a, b) if v is not None]
    return min(values) if values else None


def _max_or_none(a: float | None, b: float | None) -> float | None:
    values = [v for v in (a, b) if v is not None]
    return max(values) if values else None
