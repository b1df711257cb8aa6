"""A statement is prepared once per shape, and nobody can tell (DESIGN.md §23).

The translator sends every literal but NULL as a ``?`` bind, and MiniDB
keeps each SELECT's plan beside its parse.  Both are invisible:

* a region's statement with its binds spelled back is the text the
  translator rendered with every literal in place — for fuzzer-generated
  plans, and for floats of every magnitude, quoted strings, negative
  numbers and NULL tests;
* executing ``(sql, binds)`` gives what executing that text gives: the same
  rows, the same schema names and types, the same DBMS ticks;
* a prepared statement kept across catalog events — a table dropped and
  re-created with other columns, ``CREATE INDEX``, loads, DML, ``ANALYZE``
  — always answers as a fresh parse and plan would, and is prepared again
  exactly when a table it reads changed schema or indexes;
* two threads executing one prepared statement with different binds each
  get their own rows.
"""

from __future__ import annotations

import threading
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.builder import scan
from repro.algebra.expressions import Comparison, Literal, Not, col
from repro.algebra.schema import AttrType
from repro.algebra.operators import TransferD, TransferM
from repro.core.tango import Tango
from repro.core.translator import BoundSQL, SQLTranslator, _Context
from repro.dbms.database import MiniDB
from repro.dbms.sql.parser import parse_statement
from repro.dbms.sql.planner import plan_select
from repro.errors import DatabaseError
from repro.fuzz.generator import QueryGenerator
from repro.fuzz.oracle import derive_alternative
from repro.resilience import FaultInjector, FaultPolicy

FUZZ_CASES = 30
STR = AttrType.STR


def literal_text(region, temp_tables) -> str:
    """*region*'s SQL rendered with every literal spelled where it stands:
    the translator with its markers switched off, as it was before binds."""
    region.__dict__.pop("sql", None)
    try:
        with patch.object(_Context, "_mark", lambda self, node: None), patch.object(
            _Context, "bound", lambda self, sql: BoundSQL(sql, ())
        ):
            return SQLTranslator().translate_bound(region, temp_tables).sql
    finally:
        region.__dict__.pop("sql", None)


def regions(plan):
    """``(region, temp tables)`` per ``T^M`` of *plan*, every ``T^D`` in it
    given a made-up table name."""
    for transfer in plan.walk():
        if isinstance(transfer, TransferM):
            loads = [node for node in transfer.input.walk() if isinstance(node, TransferD)]
            yield transfer.input, {id(node): f"TMP_{n}" for n, node in enumerate(loads)}


def outcome(db: MiniDB, sql: str, binds=()) -> tuple:
    """Rows, schema and DBMS ticks of one execution, or the error raised."""
    before = db.meter.snapshot()
    try:
        result = db.execute(sql, binds)
        rows = result.fetchall()
    except Exception as error:  # noqa: BLE001 - both sides must fail alike
        return type(error).__name__, str(error)
    schema = [(a.name, a.type) for a in result.schema]
    return rows, schema, db.meter.snapshot() - before


def assert_bound_equals_text(db: MiniDB, region, temp_tables) -> None:
    bound = SQLTranslator().translate_bound(region, temp_tables)
    text = literal_text(region, temp_tables)
    assert bound.text == text
    assert bound.sql.count("?") == len(bound.binds)
    assert not any(value is None for value in bound.binds)
    if not temp_tables:
        assert outcome(db, bound.sql, bound.binds) == outcome(db, text)


def fuzz_plans(index: int):
    case = QueryGenerator(seed=0, updates=False).case(index)
    db = case.build_db()
    plans = [derive_alternative(db, case.plan, ("baseline",))]
    with Tango(db, fault_injector=FaultInjector(FaultPolicy(), seed=0)) as tango:
        plans.append(tango.optimize(case.plan).plan)
    return db, [plan for plan in plans if plan is not None]


@pytest.mark.parametrize("index", range(FUZZ_CASES))
def test_fuzz_regions_bind_to_their_text(index):
    db, plans = fuzz_plans(index)
    for plan in plans:
        for region, temp_tables in regions(plan):
            assert_bound_equals_text(db, region, temp_tables)


# -- literals of every kind --------------------------------------------------------------


@pytest.fixture(scope="module")
def literal_db():
    db = MiniDB()
    db.execute("CREATE TABLE L (I INT, F FLOAT, S VARCHAR(8), T1 DATE, T2 DATE)")
    db.execute(
        "INSERT INTO L VALUES (0, 0.0, 'a', 1, 5), (-3, -1.5, 'it''s', 2, 9), "
        "(7, 1e-05, NULL, 3, 4), (5, 2.5e+16, '?', 0, 8)"
    )
    db.execute("CREATE INDEX L_I ON L (I)")
    db.execute("CREATE INDEX L_F ON L (F)")
    return db


numbers = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
)
strings = st.text(alphabet=st.sampled_from("ab'?\\ -x\x00"), max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    number=numbers,
    other=numbers,
    text=strings,
    op=st.sampled_from(["=", "<", ">=", "<>"]),
    null_test=st.sampled_from([None, "I", "S"]),
)
def test_literals_of_every_kind_bind_to_their_text(literal_db, number, other, text, op, null_test):
    column = "F" if isinstance(number, float) else "I"
    predicate = Comparison(op, col(column), Literal(number))
    predicate = predicate & Comparison("<>", col("S"), Literal(text))
    if null_test is not None:
        predicate = predicate | Not(Comparison("=", col(null_test), Literal(None)))
    outputs = [("I", col("I")), ("X", Literal(other)), ("S", col("S"))]
    region = scan(literal_db, "L").select(predicate).project_exprs(outputs).build()
    assert_bound_equals_text(literal_db, region, {})
    # An equality on an indexed column probes with a bind as with a literal.
    probe = scan(literal_db, "L").select(Comparison("=", col(column), Literal(number))).build()
    assert_bound_equals_text(literal_db, probe, {})


# -- one statement across catalog events ----------------------------------------------

SQL = "SELECT A, B FROM EV WHERE A = ? AND B < ? ORDER BY B, A"
EXTRA = ["X FLOAT", "Y VARCHAR(4)", "Z INT"]


def create(db: MiniDB, columns: list[str], rows: int, seed: int) -> None:
    db.execute(f"CREATE TABLE EV ({', '.join(columns)})")
    names = [column.split()[0] for column in columns]
    values = {
        "A": lambda n: n % 4,
        "B": lambda n: (n * 7 + seed) % 11,
        "C": lambda n: "c",
        "X": lambda n: n / 4,
        "Y": lambda n: "y" * (n % 3),
        "Z": lambda n: -n,
    }
    db.table("EV").bulk_load([tuple(values[name](n) for name in names) for n in range(rows)])


def catalog_entry(db: MiniDB) -> tuple:
    """What a plan of EV is prepared against: its schema and indexed columns."""
    indexed = {index.column.lower() for index in db.indexes_on("EV")}
    return db.schema_of("EV"), indexed


events = st.lists(
    st.one_of(
        st.tuples(
            st.just("recreate"), st.permutations(["A INT", "B INT", *EXTRA]), st.integers(0, 3)
        ),
        st.tuples(st.just("index"), st.sampled_from(["A", "B"])),
        st.tuples(st.just("load"), st.integers(0, 6)),
        st.tuples(st.just("insert"), st.integers(0, 5)),
        st.tuples(st.just("delete"), st.integers(0, 3)),
        st.tuples(st.just("analyze")),
    ),
    max_size=10,
)


binds = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 11)), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(events=events, binds=binds)
def test_a_prepared_statement_survives_catalog_events(events, binds):
    db = MiniDB()
    create(db, ["A INT", "B INT", "C VARCHAR(4)"], 12, 0)
    indexes = 0
    for event in [("start",), *events]:
        kind = event[0]
        catalog = catalog_entry(db)
        if kind == "recreate":
            db.execute("DROP TABLE EV")
            columns = [c for c in event[1] if c[0] in "AB" or c in EXTRA[: event[2]]]
            create(db, columns, 10 + event[2], event[2])
        elif kind == "index" and db.find_index("EV", event[1]) is None:
            indexes += 1
            db.execute(f"CREATE INDEX EV_{indexes} ON EV ({event[1]})")
        elif kind == "load":
            types = [a.type for a in db.schema_of("EV")]
            db.table("EV").bulk_load([tuple("l" if t is STR else event[1] for t in types)])
        elif kind == "insert":
            values = ["'i'" if a.type is STR else str(event[1]) for a in db.schema_of("EV")]
            db.execute(f"INSERT INTO EV VALUES ({', '.join(values)})")
        elif kind == "delete":
            db.execute(f"DELETE FROM EV WHERE A = {event[1]}")
        elif kind == "analyze":
            db.execute("ANALYZE TABLE EV COMPUTE STATISTICS")
        changed = kind == "start" or catalog_entry(db) != catalog
        for position, values in enumerate(binds):
            before = db.prepared.to_dict()["misses"]
            kept = outcome(db, SQL, values)
            fresh = db.meter.snapshot()
            result = plan_select(db, parse_statement(SQL), db.meter, values)
            rows = result.fetchall()
            schema = [(a.name, a.type) for a in result.schema]
            assert kept == (rows, schema, db.meter.snapshot() - fresh)
            missed = db.prepared.to_dict()["misses"] - before
            # Prepared again only when the catalog it read changed.
            assert missed == (1 if changed and position == 0 else 0), (kind, position)


def test_a_probe_path_appears_with_its_index():
    db = MiniDB()
    create(db, ["A INT", "B INT"], 40, 0)
    scanned = outcome(db, SQL, (1, 11))
    db.execute("CREATE INDEX EV_A ON EV (A)")
    probed = outcome(db, SQL, (1, 11))
    assert probed[0] == scanned[0]
    assert probed[2] != scanned[2]  # the probe reads 10 rows, not a scan's 40
    assert db.prepared.to_dict()["misses"] == 2


# -- binds ---------------------------------------------------------------------------------


def test_two_threads_bind_one_statement_each_to_its_own_rows():
    db = MiniDB()
    db.execute("CREATE TABLE TH (A INT, B VARCHAR(8))")
    db.table("TH").bulk_load([(n, f"b{n}") for n in range(200)])
    sql = "SELECT A, B FROM TH WHERE A >= ? AND A < ? ORDER BY A"
    start = threading.Barrier(2)
    wrong: list = []

    def client(low: int, high: int) -> None:
        expected = [(n, f"b{n}") for n in range(low, high)]
        start.wait()
        for _ in range(300):
            rows = db.execute(sql, (low, high)).fetchall()
            if rows != expected:
                wrong.append((low, rows[:3]))

    threads = [threading.Thread(target=client, args=span) for span in ((0, 50), (120, 130))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not wrong
    assert db.prepared.to_dict()["size"] == 1


TEMPLATES = [
    "SELECT A, COUNT(*) AS N FROM G WHERE B > {} GROUP BY A HAVING COUNT(*) > {} ORDER BY A",
    "SELECT A * {} AS S, B FROM G ORDER BY B * {}, A",
    "SELECT DISTINCT A + {} AS S FROM G WHERE C <> {} ORDER BY S",
    "SELECT P.A, Q.B FROM G P, (SELECT A, B FROM G WHERE B < {}) Q WHERE P.A = Q.A AND P.B > {}",
    "SELECT A FROM G WHERE B < {} UNION SELECT B FROM G WHERE A = {} ORDER BY A",
    "SELECT /*+ USE_NL */ P.A, Q.C FROM G P, G Q WHERE P.A = Q.A AND Q.B = {} AND P.C <> {}",
]


@pytest.fixture(scope="module")
def grouped_db():
    db = MiniDB()
    db.execute("CREATE TABLE G (A INT, B FLOAT, C VARCHAR(4))")
    db.table("G").bulk_load([(n % 5, n / 3, "c" * (n % 3)) for n in range(30)])
    db.execute("CREATE INDEX G_A ON G (A)")
    return db


@settings(max_examples=40, deadline=None)
@given(
    template=st.sampled_from(TEMPLATES),
    values=st.tuples(
        st.one_of(st.integers(0, 9), st.floats(0, 12)),
        st.one_of(st.integers(0, 9), st.sampled_from(["", "c", "cc"])),
    ),
)
def test_a_bind_anywhere_answers_as_its_literal(grouped_db, template, values):
    spelled = [Literal(value).to_sql() for value in values]
    assert outcome(grouped_db, template.format("?", "?"), values) == outcome(
        grouped_db, template.format(*spelled)
    )


def test_a_bind_of_another_type_is_another_plan():
    db = MiniDB()
    db.execute("CREATE TABLE ONE (A INT)")
    db.execute("INSERT INTO ONE VALUES (1)")
    for value, type_name in ((2, "int"), ("two", "str"), (2.5, "float"), (3, "int")):
        result = db.execute("SELECT ? AS V FROM ONE", (value,))
        assert result.fetchall() == [(value,)]
        assert result.schema["V"].type.value == type_name
    assert db.prepared.to_dict() | {"max_size": 0} == {
        "size": 3, "max_size": 0, "hits": 1, "misses": 3, "evictions": 0
    }


def test_the_bind_count_must_match_the_markers():
    db = MiniDB()
    db.execute("CREATE TABLE ONE (A INT)")
    with pytest.raises(DatabaseError, match="2 bind markers, 1 values"):
        db.execute("SELECT A FROM ONE WHERE A > ? AND A < ?", (1,))
    with pytest.raises(DatabaseError, match="only a SELECT"):
        db.execute("DELETE FROM ONE", (1,))


def test_a_prepared_plan_holds_no_rows_and_no_index():
    """What a prepared plan reaches never includes a table, an index or a
    row list: executing reads those from the catalog each time."""
    import gc
    import types

    from repro.dbms.indexes import Index
    from repro.dbms.table import Table

    db = MiniDB()
    db.execute("CREATE TABLE H (A INT, B INT)")
    db.table("H").bulk_load([(n % 3, n) for n in range(9)])
    db.execute("CREATE INDEX H_A ON H (A)")
    db.execute(
        "SELECT /*+ USE_NL */ P.B, Q.B FROM H P, (SELECT A, B FROM H WHERE B > ?) Q, H R "
        "WHERE P.A = ? AND P.A = Q.A AND Q.A = R.A ORDER BY P.B, Q.B",
        (2, 1),
    ).fetchall()
    (plan,) = db.prepared._entries.values()
    seen, todo, reached = set(), [plan], []
    while todo:
        item = todo.pop()
        if id(item) in seen or isinstance(item, (type, types.ModuleType)):
            continue
        seen.add(id(item))
        reached.append(item)
        if isinstance(item, dict) and "__name__" in item:
            continue  # a module's namespace, reached through a function
        todo.extend(gc.get_referents(item))
    assert not [item for item in reached if isinstance(item, (Table, Index, MiniDB))]
    rows = db.table("H").rows
    stored = {id(rows), *map(id, rows)}
    assert not [item for item in reached if id(item) in stored]
    assert {type(step).__name__ for step in reached} >= {"_IndexJoin", "_LoopJoin"}
