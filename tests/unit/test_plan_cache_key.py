"""Regression: an operator tree is planned under its exact structure.

The plan cache once keyed an operator tree by its ``pretty()`` rendering,
which leaves out a temporal operator's period and a literal's declared
type: a second tree differing from a cached one only there was answered
with the first tree's plan.  The key is the tree's ``cache_key`` now, and
that key must also tell apart literals Python calls equal (``5`` and
``5.0``, ``0.0`` and ``-0.0``).
"""

import pytest

from repro.algebra.builder import scan
from repro.algebra.expressions import Literal
from repro.algebra.operators import (
    AggregateSpec,
    Location,
    Project,
    TemporalAggregate,
    TemporalJoin,
    TransferM,
)
from repro.algebra.schema import AttrType
from repro.core.tango import Tango
from repro.dbms.database import MiniDB


@pytest.fixture
def periods_db():
    db = MiniDB()
    db.execute("CREATE TABLE R (G INT, T1 DATE, T2 DATE, S1 DATE, S2 DATE)")
    db.execute(
        "INSERT INTO R VALUES (1, 0, 5, 100, 103), (1, 3, 8, 101, 104), (2, 4, 9, 110, 120)"
    )
    return db


def taggr(db, **period):
    aggregate = TemporalAggregate(
        scan(db, "R").build(), Location.DBMS, ("G",), (AggregateSpec("COUNT", "G"),), **period
    )
    return TransferM(aggregate)


def tjoin(db, **period):
    side = scan(db, "R").to_middleware().sort("G", "T1").build()
    return TemporalJoin(side, side, Location.MIDDLEWARE, "G", "G", **period)


def constant(db, literal):
    return TransferM(Project(scan(db, "R").build(), Location.DBMS, (("X", literal),)))


TWINS = {
    "TAGGR period": (taggr, {}, {"period": ("S1", "S2")}),
    "TJOIN period": (tjoin, {}, {"period": ("S1", "S2")}),
    "literal type": (
        constant,
        {"literal": Literal(5)},
        {"literal": Literal(5, AttrType.DATE)},
    ),
    "literal value type": (constant, {"literal": Literal(5)}, {"literal": Literal(5.0)}),
    "literal signed zero": (constant, {"literal": Literal(0.0)}, {"literal": Literal(-0.0)}),
}


def answer(result) -> str:
    # repr, since 5 == 5.0 and 0.0 == -0.0 would pass a wrong answer.
    return repr((result.rows, [(a.name, a.type) for a in result.schema]))


@pytest.mark.parametrize("name", list(TWINS))
def test_twin_trees_are_planned_apart(periods_db, name):
    build, one, other = TWINS[name]
    first, second = build(periods_db, **one), build(periods_db, **other)
    with Tango(periods_db) as fresh:
        expected = answer(fresh.submit(second).result())
    with Tango(periods_db) as tango:
        tango.submit(first).result()
        assert answer(tango.submit(second).result()) == expected
        assert tango.metrics.value("plan_cache_hits") == 0


def test_the_period_moves_the_answer(periods_db):
    with Tango(periods_db) as tango:
        assert tango.submit(taggr(periods_db)).result().rows[0] == (1, 0, 3, 1)
        moved = tango.submit(taggr(periods_db, period=("S1", "S2"))).result()
        assert moved.rows[0] == (1, 100, 101, 1)
