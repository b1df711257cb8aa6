"""Protocol conformance: one pull hook, one face.

An operator implements ``_next_batch`` (or ``_generate``) and nothing else
of the pull protocol; ``next_batch()`` and ``iter_batched()`` live on
:class:`~repro.xxl.cursor.Cursor`.  These tests check that (a) no operator
grows a second face, (b) every operator's ``next_batch()`` results, at
batch sizes of 1 and :data:`~repro.xxl.cursor.BATCH_SIZE` in any
interleaving, concatenate to the rows :func:`materialize` returns, with
``[]`` only once the cursor is drained and on every call after, and (c) a
compiled plan whose every cursor is shrunk to batches of 1 — the paper's
row-at-a-time engine — returns the same rows and does the same metered
work as at :data:`~repro.xxl.cursor.BATCH_SIZE`.

(d) is the wall behind the cursor tree describing itself: the inputs a
cursor *declares* are the only way anything finds its children, so a class
that forgets one must fail here — reflection over ``_input``/``_left``/
``_right`` used to hide that as a silently missing span.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pkgutil
import random
from itertools import count
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.xxl
from repro.algebra.builder import PlanBuilder, scan
from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.operators import AggregateSpec, Difference, Location
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection
from repro.optimizer.algorithms import algorithm_for
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
    SortCursor,
    SQLCursor,
    TemporalAggregateCursor,
    TemporalJoinCursor,
)
from repro.xxl.cursor import BATCH_SIZE, GeneratorCursor, materialize, walk
from repro.xxl.sources import RelationCursor
from tests.conftest import IterableCursor

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


#: The library's cursors and the tests' own source, which holds to the same
#: protocol it is used to drive.
PROTOCOL_CLASSES = [*xxl_cursor_classes(), IterableCursor]


@pytest.mark.parametrize("cls", PROTOCOL_CLASSES, ids=lambda cls: cls.__name__)
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


def test_the_base_class_has_one_face():
    # Figure 2's row face is gone, and ``next_batch`` takes no size.
    for name in ("has_next", "next", "__iter__"):
        assert not hasattr(Cursor, name), name
    assert list(inspect.signature(Cursor.next_batch).parameters) == ["self"]
    assert list(inspect.signature(Cursor.iter_batched).parameters) == ["self"]


@pytest.mark.parametrize("cls", PROTOCOL_CLASSES, ids=lambda cls: cls.__name__)
def test_every_operator_supplies_the_pull_hook(cls):
    if issubclass(cls, GeneratorCursor):
        assert cls is GeneratorCursor or cls._generate is not GeneratorCursor._generate
    else:
        assert cls._next_batch is not Cursor._next_batch


# -- (b) the batches of any interleaving of sizes concatenate to materialize() --------

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

def drive(cursor: Cursor, sizes: list[int]) -> list[tuple]:
    """Drain *cursor* through ``next_batch()``, every cursor of its tree
    set to ``sizes[i]`` rows before call *i* (the last size repeating);
    then check that a drained cursor stays drained."""
    seen: list[tuple] = []
    tree = list(walk([cursor]))
    try:
        for call in count():
            for member in tree:
                member.batch_size = sizes[min(call, len(sizes) - 1)]
            batch = cursor.next_batch()
            if not batch:
                break
            seen.extend(batch)
        assert [cursor.next_batch() for _ in range(3)] == [[], [], []]
        assert cursor.rows_produced == len(seen)
    finally:
        cursor.close()
    return seen


@functools.cache
def expected_rows(name: str) -> list[tuple]:
    return materialize(OPERATORS[name]())


@pytest.mark.parametrize("name", list(OPERATORS))
@settings(max_examples=20, deadline=None)
@given(sizes=st.lists(st.sampled_from([1, BATCH_SIZE]), min_size=1, max_size=12))
@example(sizes=[1])
@example(sizes=[BATCH_SIZE])
def test_any_interleaving_matches_materialize(name, sizes):
    # A batch that came back empty before the end would leave ``seen`` a
    # strict prefix of the expected rows.
    assert drive(OPERATORS[name](), sizes) == expected_rows(name)


@pytest.mark.parametrize("name", list(OPERATORS))
def test_operator_fixtures_are_not_vacuous(name):
    assert len(expected_rows(name)) >= 3


# -- (c) a batch size of 1 is the same program as 256 --------------------------------


#: Queries 1-4 as the client sends them (SQL, or an initial plan over *db*).
QUERIES = {
    "Q1": lambda db: queries.query1_sql(),
    "Q2": lambda db: queries.query2_initial_plan(db, "1996-01-01"),
    "Q3": lambda db: queries.query3_initial_plan(db, "1995-01-01"),
    "Q4": lambda db: queries.query4_initial_plan(db),
}


def _measure(db: MiniDB, name: str, row_at_a_time: bool):
    """Rows, DBMS io/cpu, middleware ticks and drained batches of one
    compiled run; *row_at_a_time* shrinks every cursor of the compiled plan
    (pulls, ``TRANSFER^D`` load chunks, the engine drain) to batches of 1."""
    # The explicit zero-probability injector keeps the run fault-free under
    # the TANGO_CHAOS_P profile (a retried round trip is charged twice).
    tango = Tango(db, fault_injector=FaultInjector(FaultPolicy(), seed=0))
    try:
        execution = tango.executor.compile(tango.optimize(QUERIES[name](db)).plan)
        if row_at_a_time:
            for cursor in walk(execution.steps):
                cursor.batch_size = 1
        db.meter.reset()
        tango.middleware_meter.reset()
        outcome = tango.executor.engine.execute(execution)
        work = (db.meter.io, db.meter.cpu, tango.middleware_meter.ticks)
        return outcome.rows, work, outcome.batches
    finally:
        tango.close()


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4"])
def test_row_at_a_time_does_the_same_metered_work(uis_db, name):
    rows, work, batches = _measure(uis_db, name, row_at_a_time=True)
    batched_rows, batched_work, batched_batches = _measure(uis_db, name, row_at_a_time=False)
    assert rows == batched_rows
    assert work == batched_work
    assert len(rows) > 0
    assert batches == len(rows) > batched_batches


# -- (d) the declared inputs reach every cursor the compiler creates ------------------


def extensions_plan(db: MiniDB):
    """A hand-built plan over the algorithms Q1-Q4 never choose:
    ``COAL^M``, ``DEDUP^M``, ``DIFF^M`` and the regular ``JOIN^M``."""
    periods = scan(db, "POSITION").project("PosID", "T1", "T2")
    coalesced = periods.to_middleware().sort("PosID", "T1").coalesce().dedup()
    difference = Difference(coalesced.plan, periods.to_middleware().plan, Location.MIDDLEWARE)
    employees = scan(db, "EMPLOYEE").project("EmpID").sort("EmpID").to_middleware()
    return PlanBuilder(difference).sort("PosID").join(employees, "PosID", "EmpID").build()


WALL_PLANS = {
    **{
        name: lambda tango, query=query: tango.optimize(query(tango.db)).plan
        for name, query in QUERIES.items()
    },
    "Q2-P1 forced": lambda tango: queries.query2_plans(tango.db, "1996-01-01")[0].plan,
    "Q2-P4 forced": lambda tango: queries.query2_plans(tango.db, "1996-01-01")[3].plan,
    "extensions": lambda tango: extensions_plan(tango.db),
}


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("name", list(WALL_PLANS))
def test_declared_inputs_reach_every_compiled_cursor(uis_db, monkeypatch, name, workers):
    created: list[Cursor] = []
    original = Cursor.__init__

    def recording_init(self, *args, **kwargs):
        created.append(self)
        original(self, *args, **kwargs)

    with Tango(uis_db, config=TangoConfig(workers=workers)) as tango:
        plan = WALL_PLANS[name](tango)
        monkeypatch.setattr(Cursor, "__init__", recording_init)
        execution = tango.executor.compile(plan)
        monkeypatch.undo()
    reached = list(walk(execution.steps))
    assert len(reached) == len({id(cursor) for cursor in reached})
    assert {id(cursor) for cursor in reached} == {id(cursor) for cursor in created}
    assert execution.describe().count("\n") + 1 >= len(reached)
    nodes = {id(node) for node in plan.walk()}
    for cursor in reached:
        # Every cursor carries its plan node, and is an instance of the class
        # that node's row names — true by construction since the compiler
        # opens cursors through the row (a partition's pooled TRANSFER^M is a
        # subclass), which is also why the two labels can no longer differ.
        assert cursor.node is not None and id(cursor.node) in nodes
        if cursor.algorithm != "EXCHANGE":
            assert isinstance(cursor, algorithm_for(cursor.node).cursor)
    if workers > 1 and name == "Q1":
        assert any(isinstance(cursor, ExchangeCursor) for cursor in reached)


def test_the_wall_covers_every_compiled_algorithm(uis_db):
    with Tango(uis_db, config=TangoConfig(workers=4)) as tango:
        seen = {
            cursor.algorithm
            for build in WALL_PLANS.values()
            for cursor in walk(tango.executor.compile(build(tango)).steps)
        }
    compiled = {
        cls.algorithm for cls in xxl_cursor_classes() if cls.algorithm
    } - {"RELATION^M"}
    assert seen == compiled


def test_an_undeclared_input_is_caught():
    """What the wall is for: a cursor that keeps a child without declaring
    it drops that child from the walk."""

    class Forgetful(Cursor):
        algorithm = "FORGETFUL^M"

        def __init__(self, input):
            super().__init__(input.schema)  # inputs not declared
            self._input = input

    child = kv()
    assert child not in list(walk([Forgetful(child)]))
    assert child in list(walk([DedupCursor(child)]))


def test_every_cursor_class_sets_its_figure5_label():
    """An ``ast`` walk over ``src/repro/xxl``: every class deriving from
    ``Cursor`` assigns ``algorithm`` in its body or inherits it from a class
    that does; only the two abstract bases go without."""
    classes: dict[str, tuple[set[str], bool]] = {}
    for path in sorted(Path(repro.xxl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                labelled = any(
                    isinstance(item, ast.Assign)
                    and any(ast.unparse(target) == "algorithm" for target in item.targets)
                    and isinstance(item.value, ast.Constant)
                    and isinstance(item.value.value, str)
                    and item.value.value
                    for item in node.body
                )
                bases = {ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases}
                classes[node.name] = (bases, labelled)

    def is_cursor(name: str) -> bool:
        return name == "Cursor" or any(
            is_cursor(base) for base in classes.get(name, (set(), False))[0]
        )

    def has_label(name: str) -> bool:
        bases, labelled = classes.get(name, (set(), False))
        return labelled or any(has_label(base) for base in bases)

    cursors = {name for name in classes if is_cursor(name)}
    assert {cls.__name__ for cls in xxl_cursor_classes()} | {"Cursor"} == cursors
    assert {name for name in cursors if not has_label(name)} == {"Cursor", "GeneratorCursor"}
