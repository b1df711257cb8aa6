"""The Statistics Collector component (Figure 1).

"The Statistics Collector component obtains statistics on base relations and
attributes from the DBMS catalog and provides them to the optimizer."

This module defines the middleware-side statistics records
(:class:`RelationStats` / :class:`AttributeStats`) — deliberately decoupled
from MiniDB's internal catalog classes, since a real deployment would parse
whatever shape the vendor's statistics views have — and the collector that
fills them from the DBMS.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.stats.histogram import Histogram


@dataclass(frozen=True)
class AttributeStats:
    """Middleware view of one attribute's statistics."""

    name: str
    min_value: float | None = None
    max_value: float | None = None
    distinct: int = 0
    histogram: Histogram | None = None
    has_index: bool = False
    index_clustered: bool = False

    def scaled_to(self, cardinality: float) -> "AttributeStats":
        """Clamp the distinct count to a (reduced) relation cardinality."""
        distinct = min(self.distinct, int(cardinality)) if self.distinct else 0
        return replace(self, distinct=max(distinct, 1 if cardinality >= 1 else 0))


@dataclass(frozen=True)
class RelationStats:
    """Middleware view of one relation's statistics.

    Used both for base relations (filled by the collector) and for
    intermediate results (derived by
    :class:`repro.stats.cardinality.CardinalityEstimator`).
    """

    cardinality: float
    avg_row_size: int
    blocks: int = 0
    attributes: dict[str, AttributeStats] = field(default_factory=dict)

    @property
    def size(self) -> float:
        """The paper's ``size(r)``: cardinality × average tuple size."""
        return self.cardinality * self.avg_row_size

    def attribute(self, name: str) -> AttributeStats:
        """Stats for *name*; a pessimistic default when unknown."""
        found = self.attributes.get(name.lower())
        if found is not None:
            return found
        return AttributeStats(
            name=name, distinct=max(1, int(self.cardinality))
        )

    def with_cardinality(self, cardinality: float) -> "RelationStats":
        """A copy scaled to a new cardinality (same attribute shapes)."""
        cardinality = max(0.0, cardinality)
        scaled = {
            key: stats.scaled_to(cardinality)
            for key, stats in self.attributes.items()
        }
        blocks = max(1, int(cardinality * self.avg_row_size // 8192)) if cardinality else 0
        return RelationStats(cardinality, self.avg_row_size, blocks, scaled)


class StatisticsCollector:
    """Pulls base-relation statistics out of the DBMS catalog.

    *connection* is a :class:`repro.dbms.jdbc.Connection`.  Results are
    cached per table name beside the catalog entry they were read from,
    until a re-ANALYZE replaces it; a never-analyzed table is analyzed first.
    """

    def __init__(self, connection):
        self._connection = connection
        self._cache: dict[str, tuple[object, RelationStats]] = {}

    def collect(self, table_name: str) -> RelationStats:
        """Statistics for a base relation, from cache or the catalog."""
        db = self._connection.db
        catalog = db.statistics_of(table_name) or db.analyze(table_name)
        key = table_name.lower()
        cached = self._cache.get(key)
        if cached is not None and cached[0] is catalog:
            return cached[1]
        attributes: dict[str, AttributeStats] = {}
        for column_key, column in catalog.columns.items():
            attributes[column_key] = AttributeStats(
                name=column.name,
                min_value=_as_float(column.min_value),
                max_value=_as_float(column.max_value),
                distinct=column.num_distinct,
                histogram=column.histogram,
                has_index=column.has_index,
                index_clustered=column.index_clustered,
            )
        stats = RelationStats(
            cardinality=float(catalog.cardinality),
            avg_row_size=catalog.avg_row_size,
            blocks=catalog.blocks,
            attributes=attributes,
        )
        self._cache[key] = catalog, stats
        return stats


def _as_float(value: object | None) -> float | None:
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return float(value)
    return None  # non-numeric (string) min/max are not used by estimators
