"""Property tests: one explored memo per query shape, costed per query.

The optimizer explores a query's *shape* — its initial plan with each
literal replaced by a typed slot (:mod:`repro.optimizer.shapes`) — once, and
costs every later query of that shape against its own literals and the
statistics of the day (DESIGN.md §12).  A query served from a kept shape
must therefore come out, byte for byte, as an optimizer without a shape
cache makes it: plan text and cache key, cost ``repr``, class and element
counts, rule attempts and firings, and the ``top_plans`` list.
"""

from __future__ import annotations

import pytest

from repro.algebra.expressions import Literal
from repro.algebra.operators import Join, Project, Select
from repro.algebra.pruning import prune_columns
from repro.algebra.rewrite import collect, transform
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.errors import OptimizerError
from repro.fuzz.generator import QueryGenerator
from repro.fuzz.oracle import build_estimator
from repro.lru import LRUCache
from repro.optimizer.search import Optimizer
from repro.optimizer.shapes import abstract
from repro.stats.cardinality import CardinalityEstimator
from repro.workloads import queries
from repro.workloads.uis import load_uis

#: Generated cases per seed, each optimized, then again with its literals moved.
FUZZ_CASES = 30

SQL = (
    "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION WHERE {} "
    "GROUP BY PosID ORDER BY PosID"
)


def outcome(optimizer: Optimizer, plan) -> tuple[tuple, bool | None]:
    """All a caller reads of optimizing *plan* (or the error it raised),
    and whether a kept shape served it (None after an error)."""
    try:
        result = optimizer.optimize(plan)
    except OptimizerError as error:
        return (str(error),), None
    seen = (
        result.plan.pretty(),
        repr(result.plan.cache_key),
        repr(result.cost),
        result.class_count,
        result.element_count,
        result.rule_attempts,
        result.rule_firings,
        [(top.pretty(), repr(cost)) for top, cost in optimizer.top_plans(plan, k=3)],
    )
    return seen, result.shape_hit


def served_as_fresh(estimator, *plans) -> list[bool | None]:
    """Optimize *plans* in turn on one optimizer with a shape cache, each
    as a cache-less optimizer would; whether a kept shape served each."""
    sharing = Optimizer(estimator, shapes=LRUCache(8))
    hits = []
    for plan in plans:
        seen, hit = outcome(sharing, plan)
        assert seen == outcome(Optimizer(estimator), plan)[0], plan.pretty()
        hits.append(hit)
    return hits


def moved(plan):
    """*plan* with every number moved up by 7 and every string lengthened:
    equal literals stay equal and unequal ones unequal, so the shape stays
    while the estimates over the literals move."""

    def visit(node):
        if isinstance(node, Literal):
            if type(node.value) in (int, float):
                return Literal(node.value + 7, node.type)
            if type(node.value) is str:
                return Literal(node.value + "z", node.type)
        return None

    node = plan.with_inputs(*map(moved, plan.inputs)) if plan.inputs else plan
    if isinstance(node, Select):
        return node.replaced(predicate=transform(node.predicate, visit))
    if isinstance(node, Project):
        outputs = tuple((name, transform(e, visit)) for name, e in node.outputs)
        return node.replaced(outputs=outputs)
    if isinstance(node, Join) and node.residual is not None:
        return node.replaced(residual=transform(node.residual, visit))
    return node


def in_shape(plan) -> list[str]:
    """The literals of *plan*'s shape in its selections, slots as ``?i``."""
    shape, _ = abstract(plan)
    return [
        literal.to_sql()
        for node in shape.walk()
        if isinstance(node, Select)
        for literal in collect(node.predicate, Literal)
    ]


@pytest.fixture(scope="module")
def uis() -> MiniDB:
    db = MiniDB()
    load_uis(db, scale=0.02, seed=1)
    return db


@pytest.fixture(scope="module")
def tango(uis):
    with Tango(uis) as tango:
        yield tango


def searched(tango: Tango, where: str):
    """What the planner hands the optimizer for :data:`SQL` with *where*."""
    return prune_columns(tango.parse(SQL.format(where)))


def paper_query(db: MiniDB, name: str) -> list:
    """A paper query, then the same query with its literals moved."""
    if name == "Q2":
        return [queries.query2_initial_plan(db, end) for end in ("1996-01-01", "1997-06-15")]
    if name == "Q3":
        return [queries.query3_initial_plan(db, start) for start in ("1995-01-01", "1999-01-01")]
    builder = queries.query1_initial_plan if name == "Q1" else queries.query4_initial_plan
    return [builder(db), builder(db)]  # no literal to move


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4"])
def test_paper_queries_are_served_from_their_shape(uis, name):
    assert served_as_fresh(build_estimator(uis), *paper_query(uis, name)) == [False, True]


@pytest.mark.parametrize("seed", [3, 8])
def test_generated_plans_with_moved_literals_are_served_as_fresh(seed):
    generator = QueryGenerator(seed=seed, max_operators=9)
    served = []
    for index in range(FUZZ_CASES):
        case = generator.case(index)
        _, hit = served_as_fresh(build_estimator(case.build_db()), case.plan, moved(case.plan))
        if hit is not None:
            served.append(hit)
    # Only a case whose shape keeps literals equal across types (moved,
    # they move its shape) is explored again.
    assert len(served) >= FUZZ_CASES // 2
    assert sum(served) >= 0.9 * len(served)


def test_literals_equal_across_types_stay_in_the_shape(tango):
    collision = searched(tango, "PayRate > 10 AND PayRate < 10.0")
    assert sorted(in_shape(collision)) == ["10", "10.0"]
    assert in_shape(searched(tango, "PayRate > 10 AND PayRate < 12.5")) == ["?0", "?1"]
    # Neither the neighbouring collision nor the slotted query serves it;
    # it serves itself.
    assert served_as_fresh(
        tango.planner.estimator,
        searched(tango, "PayRate > 11 AND PayRate < 11.0"),
        searched(tango, "PayRate > 10 AND PayRate < 12.5"),
        collision,
        searched(tango, "PayRate > 10 AND PayRate < 10.0"),
    ) == [False, False, False, True]


def test_another_pattern_of_equal_literals_is_another_shape(tango):
    one_slot = searched(tango, "PayRate > 10 AND PosID < 10")
    two_slots = searched(tango, "PayRate > 10 AND PosID < 20")
    assert (in_shape(one_slot), in_shape(two_slots)) == (["?0", "?0"], ["?0", "?1"])
    assert served_as_fresh(
        tango.planner.estimator,
        one_slot,
        two_slots,
        searched(tango, "PayRate > 30 AND PosID < 30"),
        searched(tango, "PayRate > 30 AND PosID < 5"),
    ) == [False, False, True, True]


def test_a_kept_shape_is_costed_under_the_statistics_of_the_day():
    db = MiniDB()
    load_uis(db, scale=0.02, seed=1)
    sql = SQL.format("PayRate > 12")
    with Tango(db) as tango:
        before = tango.optimize(sql)
        db.insert_rows("POSITION", list(db.table("POSITION").rows) * 2)
        tango.refresh_statistics(["POSITION"])
        after = tango.optimize(sql)  # a new epoch: the plan cache misses
        assert (before.shape_hit, after.shape_hit) == (False, True)
        assert tango.metrics.value("optimizer_shape_misses") == 1
        assert tango.metrics.value("optimizer_shape_hits") == 1
        assert after.cost != before.cost
        planner = tango.planner
        fresh = Optimizer(
            CardinalityEstimator(planner.collector, planner.predicate_estimator),
            planner.factors,
        )
        plan = prune_columns(tango.parse(sql))
        assert outcome(planner.optimizer, plan) == (outcome(fresh, plan)[0], True)


def test_the_explore_span_says_whether_a_kept_shape_served(uis):
    with Tango(uis, TangoConfig(tracing=True)) as tango:
        said = [
            tango.query(SQL.format(f"PayRate > {rate}")).trace.find(name="explore")
            .attributes["shape"]
            for rate in (12, 13)
        ]
    assert said == ["miss", "hit"]


def test_a_table_created_again_with_other_columns_is_another_shape():
    db = MiniDB()
    db.execute("CREATE TABLE R (K INT, V INT, T1 DATE, T2 DATE)")
    db.execute("INSERT INTO R VALUES (1, 5, 2, 20)")
    sql = "VALIDTIME SELECT * FROM R WHERE K > {}"
    with Tango(db) as tango:
        assert tango.query(sql.format(5)).schema.names == ("K", "V", "T1", "T2")
        db.execute("DROP TABLE R")
        db.execute("CREATE TABLE R (K INT, W VARCHAR(8), T1 DATE, T2 DATE)")
        db.execute("INSERT INTO R VALUES (1, 'x', 2, 20)")
        tango.refresh_statistics()
        result = tango.query(sql.format(0))
        assert result.schema.names == ("K", "W", "T1", "T2")
        assert result.rows == [(1, "x", 2, 20)]
