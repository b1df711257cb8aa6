"""One row per algorithm: :data:`ALGORITHMS`.

An (operator, location) pair names at most one algorithm — a
``TemporalAggregate`` in the middleware is ``TAGGR^M``, in the DBMS it is the
SQL rewrite ``TAGGR^D`` — and Section 7's recipe for a new operator ends with
"formulas for derivation of statistics, and algorithm(s)".  Everything the
system knows about an algorithm *as an algorithm* is one row here:

* its Figure 5 ``name`` (a middleware row reads it off its cursor class);
* its Figure 6 ``cost`` formula, over the cost factors, the plan node and the
  statistics it asks the estimator for;
* how it is opened: every non-transfer cursor is
  ``Cursor(*inputs, *parameters, meter)``, so a cursor class and the names of
  the node fields that are its parameters suffice.  A DBMS row has no cursor
  (the translator renders the whole region as SQL) and the two transfers are
  the compiler's to open — it owns the connection, the translator and the
  temp-table names (and fans a ``TRANSFER^M`` out, DESIGN.md §5).

What an algorithm needs of its inputs' order, delivers and reads stays beside
the row, in :mod:`repro.algebra.properties`, which may not import upward.

A pair with no row has no algorithm: ``Coalesce^D`` and ``Difference^D`` (no
SQL is generated for them) and ``Product^M``.  Such a node is a legal part of
a Section 3.1 initial plan — the search starts from it and rule X1 moves a
coalescing into the middleware — but the search never chooses it, and
:func:`algorithm_for` is the one place that refuses it.  DESIGN.md §19.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.algebra.expressions import Comparison, Expression
from repro.algebra.operators import (
    Coalesce,
    Dedup,
    Difference,
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
from repro.algebra.rewrite import collect
from repro.dbms.costmodel import CostMeter
from repro.errors import PlanError
from repro.stats.cardinality import CardinalityEstimator
from repro.stats.collector import RelationStats
from repro.xxl import (
    CoalesceCursor,
    Cursor,
    DedupCursor,
    DifferenceCursor,
    FilterCursor,
    MergeJoinCursor,
    ProjectCursor,
    SortCursor,
    SQLCursor,
    TemporalAggregateCursor,
    TemporalJoinCursor,
    TransferDCursor,
)

if TYPE_CHECKING:  # pragma: no cover - annotation only; costs.py imports this module
    from repro.optimizer.costs import CostFactors

_M, _D = Location.MIDDLEWARE, Location.DBMS

#: ``(factors, node, estimator) → microseconds`` for the node alone.
Cost = Callable[["CostFactors", Operator, CardinalityEstimator], float]


@dataclass(frozen=True)
class Algorithm:
    """What evaluates one operator at one location."""

    #: Figure 5 label, e.g. ``TAGGR^M``.
    name: str
    #: Figure 6 formula.
    cost: Cost
    #: The ``xxl`` cursor class; None where the translator's SQL does the work.
    cursor: type[Cursor] | None = None
    #: The node's fields the cursor takes between its inputs and the meter;
    #: None for what :meth:`open` cannot open (SQL, and the two transfers).
    parameters: tuple[str, ...] | None = None

    def open(
        self, node: Operator, inputs: list[Cursor], meter: CostMeter | None = None
    ) -> Cursor:
        """The cursor evaluating *node* over the cursors *inputs*."""
        parameters = (getattr(node, name) for name in self.parameters)
        return self.cursor(*inputs, *parameters, meter)


# -- Figure 6 -----------------------------------------------------------------------------
#
# Each formula weighs ``size(r)`` — cardinality × average tuple size — with a
# cost factor; the result is microseconds.  "The initialization costs of all
# algorithms are set to zero, as are the costs of forming the outputs for
# sorting, selection, and projection.  In addition, we assume a zero cost for
# selection and projection in the DBMS."  The generic DBMS formulas (join,
# product, sort, scan) are the technical report's [20].  Golden costs are
# compared digit for digit: the order of the operations is part of a formula.
#
# First the algorithms that read nothing but their input's statistics, as
# functions of those — ``transfer_m``, ``transfer_d`` and ``sort_m`` also price
# relations no plan node stands for (a stored view, an observed transfer).


def transfer_m(p: CostFactors, r: RelationStats) -> float:
    """Section 3.2: "the number and size of the tuples transferred"."""
    return p.p_tmr * r.cardinality + p.p_tm * r.size


def transfer_d(p: CostFactors, r: RelationStats) -> float:
    return p.p_tdr * r.cardinality + p.p_td * r.size


def _log_cardinality(r: RelationStats) -> float:
    return max(1.0, math.log2(max(2.0, r.cardinality)))


def sort_m(p: CostFactors, r: RelationStats) -> float:
    return p.p_sortm * r.size * _log_cardinality(r)


def _sort_d(p: CostFactors, r: RelationStats) -> float:
    return p.p_sortd * r.size * _log_cardinality(r)


def _of_input(formula: Callable[[CostFactors, RelationStats], float]) -> Cost:
    return lambda p, node, stats: formula(p, stats.estimate(node.input))


def _of_output(formula: Callable[[CostFactors, RelationStats], float]) -> Cost:
    return lambda p, node, stats: formula(p, stats.estimate(node))


# The rest read their node, or more of the statistics.


def predicate_complexity(predicate: Expression) -> float:
    """The Figure 6 ``f(P)`` coefficient: comparison count of the condition."""
    return float(max(1, len(collect(predicate, Comparison))))


def _filter_m(p, node: Select, stats) -> float:
    return p.p_sem * predicate_complexity(node.predicate) * stats.estimate(node.input).size


def _taggr_m(p, node: TemporalAggregate, stats) -> float:
    # The external sort on (G, T1) is a separate plan operator; the internal
    # T2 sort is folded into p_taggm1 (Section 3.4).
    return (
        p.p_taggm1 * stats.estimate(node.input).size
        + p.p_taggm2 * stats.estimate(node).size
    )


def _taggr_d(p, node: TemporalAggregate, stats) -> float:
    return (
        p.p_taggd1 * stats.estimate(node.input).size
        + p.p_taggd2 * stats.estimate(node).size
    )


def _touched(node: Operator, stats) -> float:
    """``size(l) + size(r) + size(result)`` of a binary node."""
    left, right = (stats.estimate(child) for child in node.inputs)
    return left.size + right.size + stats.estimate(node).size


def _join_m(p, node: Join, stats) -> float:
    return p.p_joinm * _touched(node, stats)


def _tjoin_m(p, node: TemporalJoin, stats) -> float:
    # TJOIN^M keeps each value pack sorted on T1 and stops at the first
    # non-overlapping start, so its work tracks the actual output.
    return p.p_tjoinm * _touched(node, stats)


def _difference_m(p, node: Difference, stats) -> float:
    left, right = (stats.estimate(child) for child in node.inputs)
    return p.p_diffm * (left.size + right.size)


def _free(p, node, stats) -> float:
    return 0.0  # selection and projection in the DBMS (Section 3.1)


def _generic_join_d(
    p: CostFactors, left: RelationStats, right: RelationStats, output: RelationStats
) -> float:
    # The middleware does not know which join algorithm the DBMS will pick,
    # so one formula covers them all (Section 3.1).
    touched = left.size + right.size + output.size
    sorts = _sort_d(p, left) + _sort_d(p, right)
    return p.p_joind * touched + sorts


def _join_d(p, node: Join, stats) -> float:
    left, right = (stats.estimate(child) for child in node.inputs)
    output = stats.estimate(node)
    # Index availability is part of the collected statistics (Section 3):
    # with the inner join attribute indexed the DBMS can drive an index
    # nested loop, touching only the outer input and the matching rows.
    if right.attribute(node.right_attr).has_index:
        return p.p_joind * (left.size + output.size)
    if left.attribute(node.left_attr).has_index:
        return p.p_joind * (right.size + output.size)
    return _generic_join_d(p, left, right, output)


def _tjoin_d(p, node: TemporalJoin, stats) -> float:
    left, right = (stats.estimate(child) for child in node.inputs)
    output = stats.estimate(node)
    # A generic DBMS plan evaluates the overlap predicate only after forming
    # every key-matching pair, so the join is billed for the pre-overlap
    # pair count (derived with `output`, memoized by the estimator).
    pairs = stats.equi_join_cardinality(left, right, node.left_attr, node.right_attr)
    billed = output.with_cardinality(max(pairs, output.cardinality))
    return _generic_join_d(p, left, right, billed)


# -- the table ----------------------------------------------------------------------------


def _cursor(
    cursor: type[Cursor], cost: Cost, parameters: tuple[str, ...] | None = ()
) -> Algorithm:
    """A row with a cursor: the label is the cursor class's own."""
    return Algorithm(cursor.algorithm, cost, cursor, parameters)


ALGORITHMS: dict[tuple[type, Location], Algorithm] = {
    # TRANSFER^M fetches the DBMS region below it, fanned out or not.
    # ``None``: the compiler opens the two transfers.
    (TransferM, _M): _cursor(SQLCursor, _of_input(transfer_m), None),
    (Select, _M): _cursor(FilterCursor, _filter_m, ("predicate",)),
    (Project, _M): _cursor(
        ProjectCursor, _of_input(lambda p, r: p.p_projm * r.size), ("outputs",)
    ),
    (Sort, _M): _cursor(SortCursor, _of_input(sort_m), ("keys",)),
    (TemporalAggregate, _M): _cursor(
        TemporalAggregateCursor, _taggr_m, ("group_by", "aggregates", "period")
    ),
    (TemporalJoin, _M): _cursor(
        TemporalJoinCursor, _tjoin_m, ("left_attr", "right_attr", "period")
    ),
    (Join, _M): _cursor(MergeJoinCursor, _join_m, ("left_attr", "right_attr", "residual")),
    (Dedup, _M): _cursor(DedupCursor, _of_input(lambda p, r: p.p_dedupm * r.size)),
    (Coalesce, _M): _cursor(
        CoalesceCursor, _of_input(lambda p, r: p.p_coalm * r.size), ("period",)
    ),
    (Difference, _M): _cursor(DifferenceCursor, _difference_m),
    # The DBMS column: SQL, whatever algorithm the DBMS picks behind it.
    (Scan, _D): Algorithm("SCAN^D", _of_output(lambda p, r: p.p_scand * r.size)),
    (TransferD, _D): _cursor(TransferDCursor, _of_input(transfer_d), None),
    (Select, _D): Algorithm("FILTER^D", _free),
    (Project, _D): Algorithm("PROJECT^D", _free),
    (Sort, _D): Algorithm("SORT^D", _of_input(_sort_d)),
    (TemporalAggregate, _D): Algorithm("TAGGR^D", _taggr_d),
    (TemporalJoin, _D): Algorithm("TJOIN^D", _tjoin_d),
    (Join, _D): Algorithm("JOIN^D", _join_d),
    (Product, _D): Algorithm("PRODUCT^D", _of_output(lambda p, r: p.p_prodd * r.size)),
    # SELECT DISTINCT is priced as the sort behind it.
    (Dedup, _D): Algorithm("DEDUP^D", _of_input(_sort_d)),
}

#: The pairs with no row, and what becomes of a plan that holds one.
_GAPS = {
    (Coalesce, _D): "rule X1 moves it to the middleware",
    (Difference, _D): "DIFF^M is its only algorithm",
    (Product, _M): "PRODUCT^D is its only algorithm",
}


def algorithm_for(node: Operator) -> Algorithm:
    """The row of *node*'s (operator, location) pair; :class:`PlanError`
    when there is none."""
    pair = (type(node), node.location)
    row = ALGORITHMS.get(pair)
    if row is None:
        where = "the DBMS" if node.location is _D else "the middleware"
        hint = _GAPS.get(pair)
        raise PlanError(
            f"no algorithm evaluates {node.name} in {where}"
            + (f" — {hint}" if hint else "")
        )
    return row
