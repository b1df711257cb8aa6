"""A recurring statement is paid for once, and nobody can tell (DESIGN.md §23).

Three caches sit on the way from a plan to MiniDB's rows: the statement a
DBMS region translates to (kept on the region's root node), each database's
prepared plans (SQL text and bind types → plan, parsed once), and the kernel
code cache (generated source → code object).  Each memoizes a function that is already pure, so
rows, ticks and round trips must be the same with every cache cleared as
with every cache warm; a kernel shared by two queries of one shape must
answer each with its own literals; and a cached statement must be planned
against the catalog as it is now.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.algebra import expressions
from repro.algebra.expressions import Comparison, Literal, col, compile_block
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.core.tango import Tango
from repro.dbms.database import MiniDB
from repro.fuzz.generator import QueryGenerator
from repro.fuzz.oracle import derive_alternative
from repro.resilience import FaultInjector, FaultPolicy
from repro.temporal.timestamps import day_of
from repro.workloads import queries
from repro.workloads.uis import load_uis

FUZZ_CASES = 30


def clear_caches(db: MiniDB, plan) -> None:
    """Every cache cold: no statement prepared, no kernel compiled, and no
    node of *plan* holding its translated SQL."""
    db.prepared.clear()
    expressions._kernel_code.cache_clear()
    for node in plan.walk():
        node.__dict__.pop("sql", None)


def run(db: MiniDB, plan) -> dict:
    """One execution of *plan* on a fresh, fault-free Tango."""
    tango = Tango(db, fault_injector=FaultInjector(FaultPolicy(), seed=0))
    kernels = expressions.kernel_cache_stats()["misses"]
    try:
        before = db.meter.snapshot()
        result = tango.execute_plan(plan)
        return {
            "rows": result.rows,
            "dbms": db.meter.snapshot() - before,
            "middleware_ticks": tango.middleware_meter.ticks,
            "round_trips": tango.metrics.value("dbms_round_trips"),
            "prepared_misses": tango.metrics.value("dbms_prepared_misses"),
            "kernel_misses": expressions.kernel_cache_stats()["misses"] - kernels,
        }
    finally:
        tango.close()


def assert_cold_equals_warm(db: MiniDB, plan) -> None:
    """*plan* run cold, then warm: the same answer at the same price, and
    the warm run prepared and compiled nothing — a statement that reads a
    temp table included, since the rerun gets the names it had."""
    clear_caches(db, plan)
    cold = run(db, plan)
    warm = run(db, plan)
    assert cold["prepared_misses"] > 0
    assert warm["prepared_misses"] == 0
    assert warm["kernel_misses"] == 0
    for key in ("prepared_misses", "kernel_misses"):
        del cold[key], warm[key]
    assert warm == cold


class TestCacheTransparency:
    @pytest.mark.parametrize("index", range(FUZZ_CASES))
    def test_fuzz_case_baseline_plan(self, index):
        # The fuzzer's oracle: the initial plan made executable in place.
        case = QueryGenerator(seed=0, updates=False).case(index)
        db = case.build_db()
        plan = derive_alternative(db, case.plan, ("baseline",))
        assert_cold_equals_warm(db, plan)

    @pytest.mark.parametrize("index", range(0, FUZZ_CASES, 3))
    def test_fuzz_case_chosen_plan(self, index):
        case = QueryGenerator(seed=0, updates=False).case(index)
        db = case.build_db()
        with Tango(db, fault_injector=FaultInjector(FaultPolicy(), seed=0)) as tango:
            plan = tango.optimize(case.plan).plan
        assert_cold_equals_warm(db, plan)


@pytest.fixture(scope="module")
def uis():
    db = MiniDB()
    load_uis(db, scale=0.01, seed=1)
    return db


def paper_plans(db: MiniDB) -> dict:
    """Queries 1-4 as the optimizer chooses them and as the paper's
    enumerated plans, the forced ``T^D`` ones included."""
    initial = {
        "Q1": queries.query1_initial_plan(db),
        "Q2": queries.query2_initial_plan(db, "1996-01-01"),
        "Q3": queries.query3_initial_plan(db, "1995-01-01"),
        "Q4": queries.query4_initial_plan(db),
    }
    plans = {}
    with Tango(db, fault_injector=FaultInjector(FaultPolicy(), seed=0)) as tango:
        for name, plan in initial.items():
            plans[f"{name} initial"] = plan
            plans[f"{name} chosen"] = tango.optimize(plan).plan
    enumerated = (
        queries.query1_plans(db)
        + queries.query2_plans(db, "1996-01-01")
        + queries.query3_plans(db, "1995-01-01")
        + queries.query4_plans(db)
    )
    for spec in enumerated:
        if spec.plan is not None:
            plans[spec.name] = spec.plan
    return plans


def test_paper_queries(uis):
    for name, plan in paper_plans(uis).items():
        try:
            assert_cold_equals_warm(uis, plan)
        except AssertionError as error:
            raise AssertionError(f"{name}: {error}") from None


# -- one code object per shape, each query's own literals ---------------------------------

SCHEMA = Schema([Attribute("V", AttrType.INT)])

HOSTILE = "'); __import__('os').system('x') #"

PAIRS = {
    "int": (Literal(7), Literal(8)),
    "int >= 2**63": (Literal(2**63), Literal(2**64 + 1)),
    "float": (Literal(1.5), Literal(1e-05)),
    "hostile string": (Literal(HOSTILE), Literal("plain")),
    "date": (
        Literal(day_of("1995-01-01"), AttrType.DATE),
        Literal(day_of("1996-06-30"), AttrType.DATE),
    ),
    "NULL": (Literal(None), Literal(0)),
}


def assert_own_answers(a: Literal, b: Literal) -> None:
    predicates = [Comparison("=", col("V"), literal) for literal in (a, b)]
    tests = [predicate.compile(SCHEMA) for predicate in predicates]
    kernels = [
        compile_block("rows", [col("V"), literal], [predicate], SCHEMA)
        for literal, predicate in zip((a, b), predicates)
    ]
    assert tests[0].__code__ is tests[1].__code__
    assert kernels[0].__code__ is kernels[1].__code__
    rows = [(a.value,), (b.value,)]
    # Called after both were compiled: the first keeps its own literal.
    assert [tests[0](row) for row in rows] == [True, False]
    assert [tests[1](row) for row in rows] == [False, True]
    assert kernels[0](rows) == [(a.value, a.value)]
    assert kernels[1](rows) == [(b.value, b.value)]


@pytest.mark.parametrize("kind", list(PAIRS))
def test_same_shape_shares_code_and_keeps_its_literals(kind):
    assert_own_answers(*PAIRS[kind])


values = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.none(),
)


@settings(max_examples=100, deadline=None)
@given(values, values)
def test_any_two_literals_share_code_and_keep_their_answers(a, b):
    assume(a != b)
    assert_own_answers(Literal(a), Literal(b))


# -- a cached statement is planned against today's catalog --------------------------------


def test_a_recreated_table_is_planned_against_its_new_schema():
    db = MiniDB()
    db.execute("CREATE TABLE RECREATED (A INT, B INT)")
    db.execute("INSERT INTO RECREATED VALUES (1, 2), (3, 4)")
    sql = "SELECT A, B FROM RECREATED WHERE A = 3"
    assert db.query(sql) == [(3, 4)]

    db.execute("DROP TABLE RECREATED")
    db.execute("CREATE TABLE RECREATED (B VARCHAR(8), C FLOAT, A INT)")
    db.execute("INSERT INTO RECREATED VALUES ('x', 0.5, 3), ('y', 1.5, 1)")
    prepared = db.prepared.to_dict()["misses"]
    result = db.execute(sql)
    # The kept plan read the old table: the statement is prepared again,
    # and the plan reads the new positions and types.
    assert db.prepared.to_dict()["misses"] == prepared + 1
    assert result.schema.names == ("A", "B")
    assert result.fetchall() == [(3, "x")]

    other = MiniDB()  # another catalog, another plan
    other.execute("CREATE TABLE RECREATED (A INT, B INT)")
    assert other.query(sql) == []
