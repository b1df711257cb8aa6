"""Fluent construction of logical plans.

The benchmarks rebuild the exact plans of the paper's Figures 7 and 9; this
module keeps that code readable:

    plan = (scan(db, "POSITION")
            .project("PosID", "T1", "T2")
            .sort("PosID", "T1")
            .to_middleware()
            .taggr(group_by=["PosID"], count="PosID")
            .build())
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.expressions import Expression
from repro.algebra.operators import (
    AggregateSpec,
    Coalesce,
    Dedup,
    Join,
    Location,
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


class PlanBuilder:
    """Wraps an :class:`Operator` and offers chainable constructors.

    Every method returns a new builder; the wrapped tree is immutable.
    The *location* of each added operator defaults to the location of the
    current top of the plan, so chains read naturally: operators added after
    :meth:`to_middleware` run in the middleware until :meth:`to_dbms`.
    """

    def __init__(self, plan: Operator):
        self._plan = plan

    def build(self) -> Operator:
        """Return the wrapped operator tree."""
        return self._plan

    @property
    def plan(self) -> Operator:
        return self._plan

    def _here(self, loc: Location | None) -> Location:
        return loc if loc is not None else self._plan.location

    # -- unary operators ------------------------------------------------------

    def select(self, predicate: Expression, loc: Location | None = None) -> "PlanBuilder":
        return PlanBuilder(Select(self._plan, self._here(loc), predicate))

    def project(self, *names: str, loc: Location | None = None) -> "PlanBuilder":
        return PlanBuilder(Project.of_columns(self._plan, names, self._here(loc)))

    def project_exprs(
        self,
        outputs: Sequence[tuple[str, Expression]],
        loc: Location | None = None,
    ) -> "PlanBuilder":
        return PlanBuilder(Project(self._plan, self._here(loc), tuple(outputs)))

    def sort(self, *keys: str, loc: Location | None = None) -> "PlanBuilder":
        return PlanBuilder(Sort(self._plan, self._here(loc), tuple(keys)))

    def dedup(self, loc: Location | None = None) -> "PlanBuilder":
        return PlanBuilder(Dedup(self._plan, self._here(loc)))

    def coalesce(self, loc: Location | None = None) -> "PlanBuilder":
        return PlanBuilder(Coalesce(self._plan, self._here(loc)))

    def taggr(
        self,
        group_by: Sequence[str] = (),
        count: str | None = None,
        aggregates: Sequence[AggregateSpec] = (),
        loc: Location | None = None,
    ) -> "PlanBuilder":
        """Temporal aggregation; ``count="PosID"`` is sugar for COUNT(PosID)."""
        specs = list(aggregates)
        if count is not None:
            specs.append(AggregateSpec("COUNT", count))
        return PlanBuilder(
            TemporalAggregate(
                self._plan, self._here(loc), tuple(group_by), tuple(specs)
            )
        )

    # -- binary operators ------------------------------------------------------

    def join(
        self,
        other: "PlanBuilder | Operator",
        left_attr: str,
        right_attr: str,
        residual: Expression | None = None,
        loc: Location | None = None,
    ) -> "PlanBuilder":
        right = other.build() if isinstance(other, PlanBuilder) else other
        return PlanBuilder(
            Join(self._plan, right, self._here(loc), left_attr, right_attr, residual)
        )

    def temporal_join(
        self,
        other: "PlanBuilder | Operator",
        left_attr: str,
        right_attr: str,
        loc: Location | None = None,
    ) -> "PlanBuilder":
        right = other.build() if isinstance(other, PlanBuilder) else other
        return PlanBuilder(
            TemporalJoin(self._plan, right, self._here(loc), left_attr, right_attr)
        )

    def product(
        self, other: "PlanBuilder | Operator", loc: Location | None = None
    ) -> "PlanBuilder":
        right = other.build() if isinstance(other, PlanBuilder) else other
        return PlanBuilder(Product(self._plan, right, self._here(loc)))

    # -- transfers -------------------------------------------------------------

    def to_middleware(self) -> "PlanBuilder":
        """Insert ``T^M``; no-op if the plan already runs in the middleware."""
        if self._plan.location is Location.MIDDLEWARE:
            return self
        return PlanBuilder(TransferM(self._plan))

    def to_dbms(self) -> "PlanBuilder":
        """Insert ``T^D``; no-op if the plan already runs in the DBMS."""
        if self._plan.location is Location.DBMS:
            return self
        return PlanBuilder(TransferD(self._plan))


def scan(database: "object", table: str) -> PlanBuilder:
    """Start a plan from a base relation of a MiniDB instance.

    *database* is duck-typed: anything exposing ``schema_of(table)`` works,
    so the algebra layer does not import the DBMS package.
    """
    return PlanBuilder(Scan(table, database.schema_of(table)))  # type: ignore[attr-defined]
