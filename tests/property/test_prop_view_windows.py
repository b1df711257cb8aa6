"""The window refresh of a root ``TAGGR`` view against a forced-full twin.

A view whose plan is a ``TemporalAggregate`` with exact aggregates under
nothing but ``Sort``/``T^M``/``T^D`` is refreshed by the window rule with
its old side read from the stored rows (DESIGN.md section 10).  Random
update streams drive three such views — grouped by one column, by two, and
ungrouped, with ``COUNT``/``SUM``/``AVG``/``MIN``/``MAX`` over an ``INT``
column and ``MIN``/``MAX`` over a ``FLOAT`` one — on two identical
instances: one refreshed incrementally, the other by forced recompute.
After every refresh the stored rows are equal, no refresh fell back, the
window rule ran, and the view table's ``changes`` moved by what the
netted rule (:func:`compute_delta`) would have recorded.

The routing: a float ``SUM`` and a NULL group key take the netted rule, as
does a bisection that meets a NULL key; a stored row tampered to straddle a
window edge is drift, and the view heals by a full recompute.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import builder
from repro.algebra.operators import AggregateSpec
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.dbms.loader import DirectPathLoader
from repro.views.delta import (
    DeltaMismatch,
    DeltaState,
    compute_delta,
    refresh_window,
    window_root,
)

SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("J", AttrType.INT),
        Attribute("V", AttrType.INT),
        Attribute("F", AttrType.FLOAT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)

EXACT = (
    AggregateSpec("COUNT"),
    AggregateSpec("COUNT", "V"),
    AggregateSpec("SUM", "V"),
    AggregateSpec("AVG", "V"),
    AggregateSpec("MIN", "V"),
    AggregateSpec("MAX", "V"),
    AggregateSpec("MIN", "F"),
    AggregateSpec("MAX", "F"),
)

#: View name → its grouping columns.
GROUPINGS = {"BY_K": ("K",), "BY_KJ": ("K", "J"), "UNGROUPED": ()}


def taggr_view(db, group_by, aggregates=EXACT):
    return (
        builder.scan(db, "EVENT")
        .taggr(group_by=group_by, aggregates=aggregates)
        .to_middleware()
        .build()
    )


def event_tango(rows, views) -> Tango:
    """A tracing Tango over an EVENT table holding *rows*, with *views*
    (name → plan builder) created."""
    db = MiniDB()
    DirectPathLoader(db).load("EVENT", SCHEMA, rows, temporary=False)
    db.analyze("EVENT")
    tango = Tango(db, TangoConfig(tracing=True))
    for name, plan_of in views.items():
        tango.create_view(name, plan_of(db))
    return tango


def refreshed(tango: Tango, name: str):
    """Refresh *name* incrementally; the outcome and the rule that ran."""
    outcome = tango.refresh_view(name, strategy="incremental")
    span = tango.tracer.last()
    assert span.name == "refresh"
    return outcome, span.attributes.get("rule")


# Short periods over a short timeline, few keys and values: groups of a
# handful of rows, windows that are often strict subsets of them, and
# duplicate rows now and then.
ROWS = st.builds(
    lambda k, j, v, f, t1, length: (k, j, v, f, t1, t1 + length),
    st.integers(0, 3),
    st.integers(0, 2),
    st.one_of(st.none(), st.integers(-5, 9)),
    st.sampled_from([None, -2.0, 0.5, 1.25, 3.3, 1e-10]),
    st.integers(0, 40),
    st.integers(1, 12),
)
#: One batch: rows to insert, table positions to delete, and table positions
#: whose rows are inserted once more.
BATCHES = st.tuples(
    st.lists(ROWS, max_size=5),
    st.lists(st.integers(0, 10**6), max_size=5),
    st.lists(st.integers(0, 10**6), max_size=2),
)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(ROWS, min_size=1, max_size=40),
    batches=st.lists(BATCHES, min_size=1, max_size=4),
)
def test_window_refresh_matches_a_forced_full_twin(rows, batches):
    views = {
        name: (lambda db, group_by=group_by: taggr_view(db, group_by))
        for name, group_by in GROUPINGS.items()
    }
    with event_tango(rows, views) as incremental, event_tango(rows, views) as full:
        for inserts, deletes, copies in batches:
            table = incremental.db.table("EVENT").rows
            picked = sorted({position % len(table) for position in deletes}) if table else []
            doomed = [table[position] for position in picked]
            inserts = inserts + [table[position % len(table)] for position in copies if table]
            for tango in (incremental, full):
                tango.apply_updates("EVENT", inserts, doomed)
            for name in GROUPINGS:
                view = incremental.views.get(name)
                netted = compute_delta(view.plan, DeltaState(incremental.db, view.pending))
                before = incremental.db.table(name).changes
                outcome, rule = refreshed(incremental, name)
                full.refresh_view(name, strategy="full")
                assert (outcome.strategy, rule) == ("incremental", "window")
                assert incremental.metrics.counter("view_refresh_fallbacks").value == 0
                assert list(incremental.db.table(name).rows) == list(full.db.table(name).rows)
                assert incremental.db.table(name).changes - before == netted.rows
                assert outcome.delta_rows_applied == netted.rows


# -- routing --------------------------------------------------------------------------------

#: Two long-lived groups of short periods: large enough that a full
#: recompute keeps its ``TAGGR`` in the middleware, which a NULL group needs
#: (``TAGGR^D``'s instant self-join drops one; DESIGN.md section 22).  The
#: second holds two thirds of the rows, so that a bisection for the first
#: probes it first.
LONG = [
    (key, 0, 1, 0.5, 5 * index, 5 * index + 7)
    for key, size in ((1, 30), (2, 60))
    for index in range(size)
]


def test_what_the_window_rule_does_not_serve_takes_the_netted_rule():
    views = {
        "FLOAT_SUM": lambda db: taggr_view(db, ("K",), (AggregateSpec("SUM", "F"),)),
        "INT_SUM": lambda db: taggr_view(db, ("K",), (AggregateSpec("SUM", "V"),)),
    }
    with event_tango(LONG, views) as tango:
        view = tango.views.get("FLOAT_SUM")
        assert window_root(view.plan, view.schema) is None
        tango.apply_updates("EVENT", [(1, 0, 4, 0.25, 101, 104)], [LONG[20]])
        assert refreshed(tango, "FLOAT_SUM")[1] == "delta"
        assert refreshed(tango, "INT_SUM")[1] == "window"


@pytest.mark.parametrize(
    "inserts, deletes",
    [
        # The NULL group itself changes: its key is no key to bisect by.
        ([(None, 0, 4, 0.25, 101, 104)], [(None, 0, 1, 0.5, 100, 107)]),
        # Group 1 changes, and bisecting for it meets the NULL group.
        ([(1, 0, 4, 0.25, 101, 104)], [LONG[20]]),
    ],
    ids=["null_key_changed", "null_key_met"],
)
def test_a_null_group_key_takes_the_netted_rule(inserts, deletes):
    rows = [(None,) + row[1:] if row[0] == 2 else row for row in LONG]
    views = {"BY_K": lambda db: taggr_view(db, ("K",))}
    with event_tango(rows, views) as incremental, event_tango(rows, views) as full:
        assert any(row[0] is None for row in incremental.db.table("BY_K").rows)
        for tango in (incremental, full):
            tango.apply_updates("EVENT", inserts, deletes)
        view = incremental.views.get("BY_K")
        stored = list(incremental.db.table("BY_K").rows)
        root = window_root(view.plan, view.schema)
        assert refresh_window(root, DeltaState(incremental.db, view.pending), stored) is None
        outcome, rule = refreshed(incremental, "BY_K")
        full.refresh_view("BY_K", strategy="full")
        assert (outcome.strategy, rule) == ("incremental", "delta")
        assert list(incremental.db.table("BY_K").rows) == list(full.db.table("BY_K").rows)


@pytest.mark.parametrize(
    "stored, tampered",
    [
        # The row before the window [10, 20) is made to end inside it.
        ((1, 0, 10, 1), (1, 0, 12, 1)),
        # A row inside the window is made to end past it.
        ((1, 10, 20, 1), (1, 10, 25, 1)),
    ],
    ids=["straddles_start", "straddles_end"],
)
def test_a_stored_row_straddling_a_window_edge_is_drift(stored, tampered):
    rows = [(1, 0, 1, 0.5, 0, 10), (1, 0, 1, 0.5, 10, 20), (1, 0, 1, 0.5, 20, 30)]
    views = {"COUNTS": lambda db: taggr_view(db, ("K",), (AggregateSpec("COUNT"),))}
    with event_tango(rows, views) as incremental, event_tango(rows, views) as full:
        table = incremental.db.table("COUNTS")
        table.rows[table.rows.index(stored)] = tampered
        for tango in (incremental, full):
            tango.apply_updates("EVENT", [(1, 0, 2, 0.5, 12, 15)])
        view = incremental.views.get("COUNTS")
        with pytest.raises(DeltaMismatch, match="straddles its window"):
            refresh_window(
                window_root(view.plan, view.schema),
                DeltaState(incremental.db, view.pending),
                list(table.rows),
            )
        outcome = incremental.refresh_view("COUNTS", strategy="incremental")
        full.refresh_view("COUNTS", strategy="full")
        assert outcome.strategy == "full"
        assert incremental.metrics.counter("view_refresh_fallbacks").value == 1
        assert list(table.rows) == list(full.db.table("COUNTS").rows)
