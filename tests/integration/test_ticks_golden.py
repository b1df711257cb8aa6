"""Tick-exact golden numbers: the guard behind "same program, faster".

MiniDB's meter and the middleware meter charge deterministic work units, so
a change that only makes the executor or the expression evaluator faster must
reproduce these numbers to the digit.  They were recorded on the commit
before the fused expression compiler (PR 12) at ``load_uis(scale=0.02,
seed=1)`` with default ``TangoConfig()``/``CostFactors()``; a change that
moves one of them has changed *what* is executed (a plan choice, a meter
charge, how lazily rows are pulled), not just how fast, and must say so.

PR 17 (one order discipline) moved one: ``Q2 chosen`` middleware ticks
75,951 -> 19,908, DBMS io/cpu and the 4,311 rows unchanged.  The chosen plan
lost the ``Sort^M[PosID]`` the extraction DP used to put over its already
sorted ``TemporalJoin^M`` (see ``test_plan_choice_golden.py``); the sort's
56,043 ticks are the whole difference, and
``test_q2_lost_only_a_redundant_sort`` holds the new plan to the old one's
rows, in order.  The other four tuples did not move.

PR 19 (the translator emits one SELECT per select-project-join block) moved
the DBMS io/cpu of four entries and nothing else — middleware ticks and row
counts are the ones above, ``Q1 chosen`` (whose ``T^M`` was one block
already) is untouched: ``Q2 chosen`` (80, 54903) -> (32, 44405), ``Q3
chosen`` (76, 78034) -> (32, 71326), ``Q4 chosen`` (98, 56321) -> (52,
47615), ``Q2-P1 forced`` (241, 201444) -> (43, 166786).  The plans are the
same; what changed is the SQL a ``T^M`` sends for them.  Each operator used
to be its own ``(SELECT ...) Qn`` layer, which MiniDB plans separately,
materializes (a write+read pass in io, a re-scan and one more
``project_rows`` pass in cpu) and cannot push a predicate through; a flat
statement pays for the scans, the filters at the scans, the join and one
projection (DESIGN.md §16).

PR 21 (required-column pruning of the initial plan) moved one: ``Q1
chosen`` DBMS cpu 56,142 -> 48,595, io, middleware ticks and the 2,888 rows
unchanged.  Query 1 comes in as SQL, whose initial plan has no projection
under the sort; ``Planner.plan`` now narrows the scan to ``PosID, T1, T2``
before the optimizer sees it, so the chosen plan is Figure 7's Plan 1 and its
``T^M`` ships 24 of 96 bytes per row: 1,677 rows x 72 bytes at 1/16 tick per
byte, truncated per round trip, is the whole difference.  The other four are
hand-built with their projections already and did not move.

Billing a MiniDB result set for the stage it computed, at its first fetch
(DESIGN.md §21), moved none of the five: each drains its statements, and a
drained statement bills what it did before.  What moved is the bill of an
*abandoned* result set, which now pays for every row of the stage its first
fetch computed rather than for the rows taken: the two
``test_abandoned_*_pays_for_its_statement`` tests, formerly
``…_is_metered_lazily``, read (16, 5,241) and (52, 35,181) after 10 rows
and close where they read (16, 1,907) and (52, 30,851).
"""

from __future__ import annotations

import pytest

from repro.algebra.operators import Location, Sort
from repro.core.tango import Tango
from repro.core.translator import SQLTranslator
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection
from repro.resilience import FaultInjector, FaultPolicy
from repro.workloads import queries
from repro.workloads.uis import load_uis

#: name -> (DBMS io, DBMS cpu, middleware ticks, result rows)
GOLDEN = {
    "Q1 chosen": (16, 48595, 10931, 2888),
    "Q2 chosen": (32, 44405, 19908, 4311),
    "Q3 chosen": (32, 71326, 59421, 8749),
    "Q4 chosen": (52, 47615, 0, 1677),
    "Q2-P1 forced": (43, 166786, 5260, 4311),
}


@pytest.fixture(scope="module")
def golden_db() -> MiniDB:
    db = MiniDB()
    load_uis(db, scale=0.02, seed=1)
    return db


def build(name: str, db: MiniDB):
    return {
        "Q1 chosen": lambda: queries.query1_sql(),
        "Q2 chosen": lambda: queries.query2_initial_plan(db, "1996-01-01"),
        "Q3 chosen": lambda: queries.query3_initial_plan(db, "1999-01-01"),
        "Q4 chosen": lambda: queries.query4_initial_plan(db),
        "Q2-P1 forced": lambda: queries.query2_plans(db, "1996-01-01")[0].plan,
    }[name]()


def measure(name: str, db: MiniDB) -> tuple[int, int, int, int]:
    # The explicit zero-probability injector keeps the run fault-free under
    # the TANGO_CHAOS_P profile (a retried round trip is charged twice).
    tango = Tango(db, fault_injector=FaultInjector(FaultPolicy(), seed=0))
    try:
        query = build(name, db)
        db.meter.reset()
        if name.endswith("forced"):
            result = tango.execute_plan(query)
        else:
            result = tango.run(query)
        return (
            db.meter.io,
            db.meter.cpu,
            tango.middleware_meter.ticks,
            len(result.rows),
        )
    finally:
        tango.close()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_ticks_repeat_to_the_digit(golden_db, name):
    assert measure(name, golden_db) == GOLDEN[name]


def test_q2_lost_only_a_redundant_sort(golden_db):
    tango = Tango(golden_db, fault_injector=FaultInjector(FaultPolicy(), seed=0))
    try:
        plan = tango.optimize(build("Q2 chosen", golden_db)).plan
        assert not any(
            isinstance(node, Sort) and node.location is Location.MIDDLEWARE
            for node in plan.walk()
        )
        rows = tango.execute_plan(plan).rows
        before = tango.middleware_meter.ticks
        old_plan = Sort(plan, Location.MIDDLEWARE, ("PosID",))
        assert tango.execute_plan(old_plan).rows == rows
        assert tango.middleware_meter.ticks - 2 * before == 75951 - 19908
    finally:
        tango.close()


def test_abandoned_cursor_pays_for_its_statement(golden_db):
    """Fetch 10 rows of an un-ordered SELECT and close: the scan bills its
    16 blocks and 1,677 rows when the statement is planned, and the first
    fetch bills the rest of the statement however little of it is taken —
    1,677 + 1,677 for the filter and the projection over every row — beside
    200 for the round trip and 10 for its 160 bytes."""
    db = golden_db
    cursor = Connection(db, prefetch=10).cursor()
    db.meter.reset()
    cursor.execute("SELECT PosID, T1 + 1 FROM POSITION WHERE PayRate > 0")
    assert (db.meter.io, db.meter.cpu) == (16, 1677)
    assert len(cursor.fetchmany(10)) == 10
    cursor.close()
    assert (db.meter.io, db.meter.cpu) == (16, 1677 + 3354 + 210) == (16, 5241)


def test_abandoned_join_cursor_pays_for_its_statement(golden_db):
    """Query 4's statement, 10 rows fetched, then closed.  Planning bills the
    two scans (16 + 36 blocks, 1,677 + 999 rows) and the merge join's two
    sorts (17,963 + 9,954); the fetch bills 200 for the round trip, 35 for
    its 560 bytes, and the whole join the statement computed at that fetch:
    999 walk steps, 1,677 pairs and 1,677 projections."""
    db = golden_db
    sql = SQLTranslator().translate(queries.query4_initial_plan(db).input)
    cursor = Connection(db, prefetch=10).cursor()
    db.meter.reset()
    cursor.execute(sql)
    assert (db.meter.io, db.meter.cpu) == (52, 30593)
    assert len(cursor.fetchmany(10)) == 10
    cursor.close()
    assert (db.meter.io, db.meter.cpu) == (52, 30593 + 4353 + 235) == (52, 35181)
