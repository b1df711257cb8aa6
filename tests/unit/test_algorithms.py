"""The algorithm table (``repro.optimizer.algorithms.ALGORITHMS``): which
(operator, location) pairs have a row, that exactly those run, and every
column of every row — label, Figure 6 formula, cursor; which ``TRANSFER^M``
the compiler fans out, and that the coster divides only its price."""

import dataclasses

import pytest

import repro.algebra.operators as operators_module
from repro.algebra.expressions import And, Comparison, col, lit
from repro.algebra.operators import (
    AggregateSpec,
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
from repro.algebra.properties import needed_orders
from repro.core.engine import ExecutionEngine
from repro.core.plans import compile_plan
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection
from repro.errors import OptimizerError, PlanError
from repro.optimizer.algorithms import ALGORITHMS
from repro.optimizer.costs import CostFactors, PlanCoster
from repro.optimizer.physical import PlanValidityError, algorithm_name, validate_plan
from repro.stats.collector import AttributeStats, RelationStats
from repro.workloads.uis import load_uis
from repro.xxl import Cursor, ExchangeCursor
from repro.xxl.cursor import walk
from repro.xxl.sources import PooledSQLCursor
from tests.conftest import make_figure3_db

MW, DB = Location.MIDDLEWARE, Location.DBMS

OPERATORS = [
    cls
    for cls in vars(operators_module).values()
    if isinstance(cls, type)
    and issubclass(cls, Operator)
    and cls is not Operator
    and not cls.__name__.startswith("_")
]
PAIRS = [(operator, location) for operator in OPERATORS for location in (MW, DB)]

TWO_COMPARISONS = And(
    (Comparison("<", col("T1"), lit(100)), Comparison(">", col("T2"), lit(0)))
)

#: operator → one node of it at a location over the given inputs.
BUILD = {
    Select: lambda loc, r: Select(r, loc, TWO_COMPARISONS),
    Project: lambda loc, r: Project.of_columns(r, ["PosID", "T1", "T2"], loc),
    Sort: lambda loc, r: Sort(r, loc, ("PosID",)),
    TemporalAggregate: lambda loc, r: TemporalAggregate(
        r, loc, ("PosID",), (AggregateSpec("COUNT", "PosID"),)
    ),
    Dedup: lambda loc, r: Dedup(r, loc),
    Coalesce: lambda loc, r: Coalesce(r, loc),
    Product: lambda loc, left, right: Product(left, right, loc),
    Join: lambda loc, left, right: Join(left, right, loc, "PosID", "PosID"),
    TemporalJoin: lambda loc, left, right: TemporalJoin(left, right, loc, "PosID", "PosID"),
    Difference: lambda loc, left, right: Difference(left, right, loc),
}


def one_node_plan(db, operator, location):
    """``(plan, node)``: a middleware-rooted plan whose only operator besides
    scans, transfers and the DBMS sorts an algorithm's inputs need is one
    *operator* at *location* — or None when the pair cannot be written down
    (a scan is in the DBMS, each transfer where it delivers)."""
    scan = Scan("POSITION", db.schema_of("POSITION"))
    if operator in BUILD:
        build = BUILD[operator]
        arity = 2 if "left" in {field.name for field in dataclasses.fields(operator)} else 1
        inputs = [dataclasses.replace(scan) for _ in range(arity)]  # distinct objects
        if location is MW:
            needs = needed_orders(build(MW, *inputs))
            inputs = [TransferM(Sort(scan, DB, need) if need else scan) for need in needs]
        node = build(location, *inputs)
    else:
        node = {Scan: scan, TransferM: TransferM(scan), TransferD: TransferD(TransferM(scan))}[
            operator
        ]
    if node.location is not location:
        return None
    return (node if location is MW else TransferM(node)), node


def runs(db, plan) -> bool:
    """Does *plan* compile — a cursor per middleware node, SQL per DBMS
    region — and drain?  Past the executor's own check, on purpose."""
    validate_plan(plan)
    try:
        execution = compile_plan(plan, Connection(db))
    except PlanError:
        return False
    ExecutionEngine().execute(execution)
    return True


@pytest.fixture(scope="module")
def db():
    return make_figure3_db()


# -- which pairs have a row ---------------------------------------------------------------


def test_twenty_rows_three_gaps_three_pairs_that_cannot_be_written(db):
    assert len(OPERATORS) == 13 and len(ALGORITHMS) == 20
    assert set(ALGORITHMS) <= set(PAIRS)
    unwritable = {pair for pair in PAIRS if one_node_plan(db, *pair) is None}
    assert unwritable == {(Scan, MW), (TransferM, DB), (TransferD, MW)}
    assert set(PAIRS) - set(ALGORITHMS) - unwritable == {
        (Coalesce, DB), (Difference, DB), (Product, MW),
    }
    # Every operator has an algorithm somewhere.
    assert {operator for operator, _ in ALGORITHMS} == set(OPERATORS)


@pytest.mark.parametrize(
    "operator, location", PAIRS, ids=lambda value: getattr(value, "__name__", value.name)
)
def test_a_row_exists_exactly_where_a_one_node_plan_runs(db, operator, location):
    built = one_node_plan(db, operator, location)
    if built is None:
        assert (operator, location) not in ALGORITHMS
        return
    plan, _ = built
    assert runs(db, plan) == ((operator, location) in ALGORITHMS)
    assert not [t for t in db.list_tables() if t.startswith("TANGO_TMP")]


GAP_MESSAGES = {
    (Coalesce, DB): "no algorithm evaluates Coalesce in the DBMS — rule X1 moves it to "
    "the middleware",
    (Difference, DB): "no algorithm evaluates Difference in the DBMS — DIFF^M is its "
    "only algorithm",
    (Product, MW): "no algorithm evaluates Product in the middleware — PRODUCT^D is "
    "its only algorithm",
}


@pytest.mark.parametrize("pair", GAP_MESSAGES, ids=lambda pair: pair[0].__name__)
def test_a_gap_is_valid_to_write_and_refused_once_before_any_cursor(db, pair, monkeypatch):
    """``validate_plan`` accepts the node (the search starts from it); the
    executor refuses the plan with the one message, having built nothing;
    nothing invents a label for it."""
    plan, node = one_node_plan(db, *pair)
    validate_plan(plan)
    created = []
    original = Cursor.__init__

    def recording_init(self, *args, **kwargs):
        created.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Cursor, "__init__", recording_init)
    with Tango(db) as tango:
        for refuse in (tango.execute_plan, tango.executor.compile):
            with pytest.raises(PlanError) as refused:
                refuse(plan)
            assert str(refused.value) == GAP_MESSAGES[pair]
    assert created == []
    with pytest.raises(PlanError, match="no algorithm evaluates"):
        algorithm_name(node)


def test_a_misplaced_gap_is_a_validity_error_that_names_the_operator(db):
    # The message cannot use the algorithm's name: there is none.
    misplaced = Coalesce(TransferM(Scan("POSITION", db.schema_of("POSITION"))), DB)
    with pytest.raises(PlanValidityError, match=r"^Coalesce\^D input resides in middleware"):
        validate_plan(misplaced)


def test_the_search_moves_a_gap_where_a_rule_can_and_refuses_it_where_none_does(db):
    with Tango(db) as tango:
        coalescing, _ = one_node_plan(db, Coalesce, DB)
        chosen = tango.optimize(coalescing).plan
        assert [n.location for n in chosen.walk() if isinstance(n, Coalesce)] == [MW]
        assert tango.execute_plan(chosen).rows
        for pair in ((Difference, DB), (Product, MW)):
            with pytest.raises(OptimizerError, match="no valid plan"):
                tango.optimize(one_node_plan(db, *pair)[0])


def test_dropping_the_row_is_all_it_takes_to_lose_the_algorithm(db, monkeypatch):
    """The label, the price the search compares, the cursor and the fan-out
    of ``COAL^M`` are stated nowhere else."""
    sql = "VALIDTIME COALESCED SELECT PosID FROM POSITION"
    with Tango(db) as tango:
        assert tango.query(sql).rows
        monkeypatch.delitem(ALGORITHMS, (Coalesce, MW))
        tango.refresh_statistics()  # a new epoch: the cached plan is forgotten
        with pytest.raises(OptimizerError, match="no valid plan"):
            tango.query(sql)
        monkeypatch.undo()
        assert tango.query(sql).rows


# -- name and cursor ----------------------------------------------------------------------


def test_a_middleware_row_is_called_what_its_cursor_class_is_called(db):
    names = [row.name for row in ALGORITHMS.values()]
    assert len(set(names)) == len(names)
    for (operator, location), row in ALGORITHMS.items():
        assert row.name.endswith("^" + location.superscript)
        assert algorithm_name(one_node_plan(db, operator, location)[1]) == row.name
        if row.cursor is not None:
            assert row.name == row.cursor.algorithm
        # SQL and the two transfers are not opened through the row.
        openable = row.parameters is not None
        assert openable == (location is MW and operator is not TransferM)
        assert (row.cursor is None) == (location is DB and operator is not TransferD)
        if openable:
            fields = {field.name for field in dataclasses.fields(operator)}
            assert set(row.parameters) <= fields


# -- Figure 6, one number per formula -----------------------------------------------------

#: Every factor a distinct prime, so a formula that reads the wrong one is off.
F = CostFactors(
    p_tm=2, p_tmr=3, p_td=5, p_tdr=7, p_sem=11, p_taggm1=13, p_taggm2=17, p_taggd1=19,
    p_taggd2=23, p_sortm=29, p_joinm=31, p_tjoinm=37, p_projm=41, p_dedupm=43, p_coalm=47,
    p_diffm=53, p_scand=59, p_sortd=61, p_joind=67, p_prodd=71,
)


def stats(cardinality, width, **attributes):
    return RelationStats(cardinality, width, attributes=attributes)


R = stats(64, 10)  # the (left) input: size 640, log2 cardinality 6
S = stats(16, 5)  # the right input: size 80, log2 cardinality 4
OUT = stats(8, 5)  # the result: size 40
INDEXED = {"posid": AttributeStats("PosID", has_index=True)}
SORTS = 61 * 640 * 6 + 61 * 80 * 4  # SORT^D of both join inputs


class Statistics:
    """An estimator that answers hand-set statistics."""

    def __init__(self, node, left=R, right=S, out=OUT, pairs=0.0):
        self._stats = {id(node): out, **dict(zip(map(id, node.inputs), (left, right)))}
        self._pairs = pairs

    def estimate(self, node):
        return self._stats[id(node)]

    def equi_join_cardinality(self, left, right, left_attr, right_attr):
        return self._pairs


EXPECTED = {
    (TransferM, MW): 3 * 64 + 2 * 640,
    (Select, MW): 11 * 2 * 640,  # f(P) = 2 comparisons
    (Project, MW): 41 * 640,
    (Sort, MW): 29 * 640 * 6,
    (TemporalAggregate, MW): 13 * 640 + 17 * 40,
    (TemporalJoin, MW): 37 * (640 + 80 + 40),
    (Join, MW): 31 * (640 + 80 + 40),
    (Dedup, MW): 43 * 640,
    (Coalesce, MW): 47 * 640,
    (Difference, MW): 53 * (640 + 80),
    (Scan, DB): 59 * 40,
    (TransferD, DB): 7 * 64 + 5 * 640,
    (Select, DB): 0,
    (Project, DB): 0,
    (Sort, DB): 61 * 640 * 6,
    (TemporalAggregate, DB): 19 * 640 + 23 * 40,
    (TemporalJoin, DB): 67 * (640 + 80 + 40) + SORTS,  # fewer key pairs than results
    (Join, DB): 67 * (640 + 80 + 40) + SORTS,
    (Product, DB): 71 * 40,
    (Dedup, DB): 61 * 640 * 6,
}


def test_every_row_has_an_expected_cost():
    assert set(EXPECTED) == set(ALGORITHMS)


@pytest.mark.parametrize(
    "pair", EXPECTED, ids=lambda pair: f"{pair[0].__name__}^{pair[1].superscript}"
)
def test_cost_at_hand_set_factors(db, pair):
    _, node = one_node_plan(db, *pair)
    cost = ALGORITHMS[pair].cost(F, node, Statistics(node))
    assert cost == EXPECTED[pair] and isinstance(cost, (int, float))


def test_dbms_join_with_an_index_touches_one_input_and_the_matches(db):
    _, node = one_node_plan(db, Join, DB)
    cost = ALGORITHMS[Join, DB].cost
    inner = stats(16, 5, **INDEXED)
    assert cost(F, node, Statistics(node, right=inner)) == 67 * (640 + 40)
    # Only when the right side has none does an index on the left count.
    outer = stats(64, 10, **INDEXED)
    assert cost(F, node, Statistics(node, left=outer)) == 67 * (80 + 40)
    assert cost(F, node, Statistics(node, left=outer, right=inner)) == 67 * (640 + 40)


def test_dbms_temporal_join_is_billed_for_the_pairs_before_the_overlap_test(db):
    _, node = one_node_plan(db, TemporalJoin, DB)
    cost = ALGORITHMS[TemporalJoin, DB].cost
    # 32 key-matching pairs of 5 bytes against 8 result rows: size 160, not 40.
    assert cost(F, node, Statistics(node, pairs=32.0)) == 67 * (640 + 80 + 160) + SORTS
    # An index changes nothing: the formula is the generic one.
    assert cost(F, node, Statistics(node, right=stats(16, 5, **INDEXED))) == EXPECTED[
        TemporalJoin, DB
    ]


# -- TRANSFER^M fan-out -------------------------------------------------------------------


@pytest.fixture(scope="module")
def uis_db():
    """Enough rows for the statistics to allow partitions (Figure 3's
    three are too few)."""
    db = MiniDB()
    load_uis(db, scale=0.01, with_variants=False)
    return db


def fanned_out(db, plan) -> list[tuple[Operator, int]]:
    """``(T^M node, partitions)`` of every ``TRANSFER^M`` that *plan*
    compiles to an exchange at four workers."""
    with Tango(db, config=TangoConfig(workers=4)) as tango:
        execution = tango.executor.compile(plan)
        exchanges = [c for c in walk(execution.steps) if isinstance(c, ExchangeCursor)]
        execution.cleanup()
    for exchange in exchanges:
        assert all(type(c) is PooledSQLCursor for c in exchange.inputs)
        assert all(c.node is exchange.node for c in exchange.inputs)
    return [(exchange.node, exchange.partitions) for exchange in exchanges]


def test_an_ordered_transfer_with_no_transfer_d_inside_fans_out(uis_db):
    scan = Scan("POSITION", uis_db.schema_of("POSITION"))
    fetched = TransferM(Sort(scan, DB, ("PosID", "T1")))
    assert fanned_out(uis_db, fetched) == [(fetched, 4)]
    # Whatever runs above it: the ungrouped TAGGR^M whose one group no
    # pipeline clone could split, both inputs of a temporal join.
    ungrouped = TemporalAggregate(
        TransferM(Sort(scan, DB, ("T1",))), MW, (), (AggregateSpec("COUNT", "PosID"),)
    )
    assert fanned_out(uis_db, ungrouped) == [(ungrouped.input, 4)]
    other = TransferM(Sort(dataclasses.replace(scan), DB, ("PosID", "T1")))
    joined = BUILD[TemporalJoin](MW, fetched, other)
    assert fanned_out(uis_db, joined) == [(fetched, 4), (other, 4)]


def test_an_unordered_or_transfer_d_fed_transfer_stays_serial(uis_db):
    scan = Scan("POSITION", uis_db.schema_of("POSITION"))
    assert fanned_out(uis_db, TransferM(scan)) == []
    fetched = TransferM(Sort(scan, DB, ("PosID", "T1")))
    loaded = TransferM(Sort(TransferD(fetched), DB, ("PosID", "T1")))
    # The T^D's own input still fans out; the T^M it feeds does not.
    assert fanned_out(uis_db, loaded) == [(fetched, 4)]
    # Statistics decide the rest: no numeric range on a string, too few rows.
    assert fanned_out(uis_db, TransferM(Sort(scan, DB, ("EmpName",)))) == []
    small = Select(scan, DB, Comparison("<", col("PosID"), lit(3)))
    assert fanned_out(uis_db, TransferM(Sort(small, DB, ("PosID",)))) == []


@pytest.mark.parametrize(
    "pair", ALGORITHMS, ids=lambda pair: f"{pair[0].__name__}^{pair[1].superscript}"
)
def test_the_coster_divides_exactly_the_partitionable_algorithms(db, pair):
    """``TRANSFER^M`` is the one algorithm that fans out, so the one the
    parallel term applies to: everything above it runs serially."""
    _, node = one_node_plan(db, *pair)
    with Tango(db) as tango:
        estimator = tango.planner.estimator
        serial = PlanCoster(estimator, F).node_cost(node)
        fanned = PlanCoster(estimator, F, parallel_degree=4).node_cost(node)
    if pair == (TransferM, MW):
        assert fanned == F.p_par_startup * 4 + serial / 4
    else:
        assert fanned == serial
