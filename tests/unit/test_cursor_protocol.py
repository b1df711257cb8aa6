"""Protocol conformance: one pull hook, one adapter, any mix of faces.

An operator implements ``_next_batch`` (or ``_generate``) and nothing else
of the pull protocol; ``has_next``/``next``/``next_batch``/``iter_batched``
all live on :class:`~repro.xxl.cursor.Cursor`.  So instead of checking that
parallel implementations agree, these tests check that (a) no operator
grows a second implementation, (b) every operator yields the same row
sequence under any interleaving of the faces, and (c) ``batch_size=1`` —
the paper's row-at-a-time engine — does the same metered work as 256.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import repro.xxl
from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.operators import AggregateSpec
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection
from repro.resilience import FaultInjector, FaultPolicy
from repro.workloads import queries
from repro.xxl import (
    CoalesceCursor,
    Cursor,
    DedupCursor,
    DifferenceCursor,
    ExchangeCursor,
    FilterCursor,
    MergeJoinCursor,
    ProjectCursor,
    RelationCursor,
    SortCursor,
    SQLCursor,
    TemporalAggregateCursor,
    TemporalJoinCursor,
    materialize,
)
from repro.xxl.cursor import GeneratorCursor
from repro.xxl.sources import IterableCursor

# -- (a) no operator re-implements the protocol ---------------------------------------


def xxl_cursor_classes() -> list[type]:
    for module in pkgutil.iter_modules(repro.xxl.__path__):
        importlib.import_module(f"repro.xxl.{module.name}")
    found: list[type] = []
    pending = [Cursor]
    while pending:
        for subclass in pending.pop().__subclasses__():
            if subclass.__module__.startswith("repro.xxl") and subclass not in found:
                found.append(subclass)
                pending.append(subclass)
    return found


def test_every_operator_is_found():
    names = {cls.__name__ for cls in xxl_cursor_classes()}
    assert {
        "GeneratorCursor",
        "RelationCursor",
        "SQLCursor",
        "PooledSQLCursor",
        "IterableCursor",
        "FilterCursor",
        "ProjectCursor",
        "DedupCursor",
        "DifferenceCursor",
        "SortCursor",
        "CoalesceCursor",
        "MergeJoinCursor",
        "TemporalJoinCursor",
        "TemporalAggregateCursor",
        "TransferDCursor",
        "ExchangeCursor",
    } <= names


@pytest.mark.parametrize("cls", xxl_cursor_classes(), ids=lambda cls: cls.__name__)
def test_only_the_base_class_implements_the_faces(cls):
    # ``_next_batch`` is the one pull hook; any other ``next*``/``_next*``
    # method (a row twin, a third batch currency) is a second protocol.
    forbidden = [
        name
        for name in vars(cls)
        if name in ("has_next", "iter_batched")
        or (name.lstrip("_").startswith("next") and name != "_next_batch")
    ]
    assert not forbidden, f"{cls.__name__} re-implements {forbidden}"


@pytest.mark.parametrize("cls", xxl_cursor_classes(), ids=lambda cls: cls.__name__)
def test_every_operator_supplies_the_pull_hook(cls):
    if issubclass(cls, GeneratorCursor):
        assert cls is GeneratorCursor or cls._generate is not GeneratorCursor._generate
    else:
        assert cls._next_batch is not Cursor._next_batch


# -- (b) any interleaving of the faces yields materialize()'s sequence ----------------

KV = Schema([Attribute("K", AttrType.INT), Attribute("V", AttrType.INT)])
KV2 = Schema([Attribute("K2", AttrType.INT), Attribute("W", AttrType.INT)])
TEMPORAL = Schema(
    [
        Attribute("PosID", AttrType.INT),
        Attribute("Pay", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)

_rng = random.Random("cursor-protocol")
KV_ROWS = [(_rng.randrange(12), _rng.randrange(5)) for _ in range(90)]
KV_SORTED = sorted(KV_ROWS)
KV2_SORTED = sorted((_rng.randrange(12), _rng.randrange(5)) for _ in range(40))
TEMPORAL_ROWS = sorted(
    (
        (pos, _rng.choice([None, 10, 20, 35]), start, start + _rng.randrange(1, 30))
        for pos in range(9)
        for start in (_rng.randrange(100) for _ in range(_rng.randrange(1, 12)))
    ),
    key=lambda row: (row[0], row[2]),
)
TEMPORAL_OTHER = sorted(
    (
        (_rng.randrange(9), _rng.randrange(50), start, start + _rng.randrange(1, 40))
        for start in (_rng.randrange(100) for _ in range(40))
    ),
    key=lambda row: row[0],
)


def kv(rows=KV_SORTED):
    return RelationCursor(KV, rows)


def temporal(rows=TEMPORAL_ROWS):
    return RelationCursor(TEMPORAL, rows)


def sql_source():
    db = MiniDB()
    db.execute("CREATE TABLE R (K INT, V INT)")
    db.execute(
        "INSERT INTO R VALUES " + ", ".join(f"({k}, {v})" for k, v in KV_ROWS)
    )
    return SQLCursor(Connection(db, prefetch=16), "SELECT K, V FROM R ORDER BY K, V")


def taggr(func, attribute="Pay"):
    return TemporalAggregateCursor(
        temporal(), ("PosID",), [AggregateSpec(func, attribute, "AGG")]
    )


def exchange(workers):
    parts = [KV_SORTED[i : i + 25] for i in range(0, 100, 25)]
    return ExchangeCursor([kv(part) for part in parts], workers=workers)


OPERATORS = {
    "relation": lambda: kv(KV_ROWS),
    "iterable": lambda: IterableCursor(KV, iter(KV_ROWS)),
    "sql": sql_source,
    "filter": lambda: FilterCursor(kv(KV_ROWS), Comparison(">", col("V"), lit(1))),
    "filter_rare": lambda: FilterCursor(kv(KV_ROWS), Comparison("=", col("K"), lit(3))),
    "project": lambda: ProjectCursor.of_columns(kv(KV_ROWS), ["V", "K"]),
    "dedup_sorted": lambda: DedupCursor(kv()),  # duplicates arrive adjacent
    "dedup_hashed": lambda: DedupCursor(kv(KV_ROWS)),
    "difference": lambda: DifferenceCursor(kv(KV_ROWS), kv(KV_ROWS[::3])),
    "sort": lambda: SortCursor(kv(KV_ROWS), ["K"], run_size=16),
    "coalesce": lambda: CoalesceCursor(
        ProjectCursor.of_columns(temporal(), ["PosID", "T1", "T2"])
    ),
    "merge_join_residual": lambda: MergeJoinCursor(
        kv(), RelationCursor(KV2, KV2_SORTED), "K", "K2",
        residual=Comparison("<", col("V"), col("W")),
    ),
    "temporal_join": lambda: TemporalJoinCursor(
        temporal(), temporal(TEMPORAL_OTHER), "PosID", "PosID"
    ),
    "taggr_count": lambda: taggr("COUNT"),
    "taggr_sum": lambda: taggr("SUM"),
    "taggr_min": lambda: taggr("MIN"),
    "exchange_concat_w1": lambda: exchange(1),
    "exchange_concat_w4": lambda: exchange(4),
}

FACE_CALLS = st.lists(
    st.tuples(
        st.sampled_from(["has_next", "next", "next_batch", "iter_batched"]),
        st.integers(min_value=1, max_value=9),
    ),
    max_size=30,
)


def drive(cursor: Cursor, calls) -> list[tuple]:
    """Consume *cursor* through the given face calls, then drain it."""
    seen: list[tuple] = []
    try:
        cursor.init()
        for face, k in calls:
            if face == "has_next":
                cursor.has_next()
            elif face == "next":
                if cursor.has_next():
                    seen.append(cursor.next())
            elif face == "next_batch":
                seen.extend(cursor.next_batch(k))
            else:
                # Exactly one internal batch: abandoning iter_batched
                # mid-batch would strand rows inside the generator.
                seen.extend(islice(cursor.iter_batched(k), k))
        seen.extend(cursor)
        assert not cursor.has_next() and cursor.next_batch(3) == []
        assert cursor.rows_produced == len(seen)
    finally:
        cursor.close()
    return seen


@functools.cache
def expected_rows(name: str) -> list[tuple]:
    return materialize(OPERATORS[name]())


@pytest.mark.parametrize("name", list(OPERATORS))
@settings(max_examples=20, deadline=None)
@given(calls=FACE_CALLS, batch_size=st.sampled_from([1, 2, 7, 256]))
def test_any_interleaving_matches_materialize(name, calls, batch_size):
    cursor = OPERATORS[name]()
    cursor.batch_size = batch_size
    assert drive(cursor, calls) == expected_rows(name)


@pytest.mark.parametrize("name", list(OPERATORS))
def test_operator_fixtures_are_not_vacuous(name):
    assert len(expected_rows(name)) >= 3


# -- (c) batch_size=1 is the same program as batch_size=256 ---------------------------


def _measure(db: MiniDB, name: str, batch_size: int):
    # The explicit zero-probability injector keeps the run fault-free under
    # the TANGO_CHAOS_P profile (a retried round trip is charged twice).
    tango = Tango(
        db,
        config=TangoConfig(batch_size=batch_size),
        fault_injector=FaultInjector(FaultPolicy(), seed=0),
    )
    try:
        query = {
            "Q1": lambda: queries.query1_sql(),
            "Q2": lambda: queries.query2_initial_plan(db, "1996-01-01"),
            "Q3": lambda: queries.query3_initial_plan(db, "1995-01-01"),
            "Q4": lambda: queries.query4_initial_plan(db),
        }[name]()
        db.meter.reset()
        tango.middleware_meter.reset()
        result = tango.run(query)
        return result.rows, db.meter.io, db.meter.cpu, tango.middleware_meter.ticks
    finally:
        tango.close()


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4"])
def test_row_at_a_time_does_the_same_metered_work(uis_db, name):
    row_at_a_time = _measure(uis_db, name, 1)
    batched = _measure(uis_db, name, 256)
    assert row_at_a_time[0] == batched[0]
    assert row_at_a_time[1:] == batched[1:]
    assert len(batched[0]) > 0
