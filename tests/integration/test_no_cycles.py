"""The collector policy's premise (DESIGN.md §24): TANGO's hot paths make no
reference cycles.

While a :class:`Tango` is open, generation 0 waits for
``gcpolicy.YOUNG_LIMIT`` young objects instead of 700.  That costs nothing
only if no pass would have found garbage sooner, i.e. if the paths below
leave no cycle behind.  Each path runs once to warm every cache it fills
(plans, shapes, statements, kernels), then again with the collector off;
``gc.collect()`` must then find nothing unreachable.  A path that starts
making cycles fails here by name, with the types it left behind.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.algebra.builder import scan
from repro.core.tango import Tango
from repro.dbms.database import MiniDB
from repro.service import QueryService, ServiceConfig
from repro.workloads import queries
from repro.workloads.uis import load_uis


@pytest.fixture(scope="module")
def setting():
    """A small UIS instance plus BASE/DIM tables under two views, one open
    Tango and one standalone service over it."""
    threshold = gc.get_threshold()
    db = MiniDB()
    load_uis(db, scale=0.01, with_variants=False)
    db.execute("CREATE TABLE BASE (K0 INT, T1 DATE, T2 DATE)")
    db.execute("CREATE TABLE DIM (K0 INT, T1 DATE, T2 DATE)")
    db.insert_rows("BASE", [(key % 40, key, key + 30) for key in range(400)])
    db.insert_rows("DIM", [(key, 0, 1000) for key in range(40)])
    db.analyze("BASE")
    db.analyze("DIM")
    tango = Tango(db)
    tango.create_view(
        "VJ",
        scan(db, "BASE")
        .temporal_join(scan(db, "DIM").build(), "K0", "K0")
        .to_middleware()
        .build(),
    )
    tango.create_view("VA", "VALIDTIME SELECT K0, COUNT(K0) FROM BASE GROUP BY K0 ORDER BY K0")
    service = QueryService(db, ServiceConfig(max_concurrency=2))
    yield db, tango, service
    service.close()
    tango.close()
    assert gc.get_threshold() == threshold


def _initial_plans(db):
    return [
        queries.query1_initial_plan(db),
        queries.query2_initial_plan(db, "1996-01-01"),
        queries.query3_initial_plan(db, "1995-01-01"),
        queries.query4_initial_plan(db),
    ]


def chosen_plans(db, tango, service):
    tango.query(queries.query1_sql())
    for plan in _initial_plans(db)[1:]:
        tango.run(plan)


def initial_plans(db, tango, service):
    for plan in _initial_plans(db):
        tango.execute_plan(plan)


def passthrough(db, tango, service):
    tango.query("SELECT PosID, EmpName, T1, T2 FROM POSITION WHERE PosID < 500")


def view_maintenance(db, tango, service):
    # Delete a row, then insert it back: every round sees the same batch.
    row = db.table("BASE").rows[0]
    for inserts, deletes in (((), (row,)), ((row,), ())):
        tango.apply_updates("BASE", inserts, deletes)
        tango.refresh_view("VJ")
        tango.refresh_view("VA")


def service_round_trip(db, tango, service):
    service.submit(queries.query1_sql()).result(timeout=60)


@pytest.mark.parametrize(
    "path",
    [chosen_plans, initial_plans, passthrough, view_maintenance, service_round_trip],
    ids=lambda path: path.__name__,
)
def test_path_leaves_no_cycle(setting, path):
    path(*setting)  # warm
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        path(*setting)
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        left = Counter(type(obj).__name__ for obj in gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(debug)
        if enabled:
            gc.enable()
    assert found == 0, f"{path.__name__} left cycles: {left.most_common(8)}"
