"""Required-column pruning of the initial plan (DESIGN.md §18).

Table-driven, like ``test_properties.py``: per operator, a plan whose parent
reads a strict subset of what a scan delivers, and the exact tree that must
come back.  Then the fixed points, the name-stability hazard of a self-join,
and what ``columns_read`` declares for each operator.
"""

import pytest

from repro.algebra import pruning
from repro.algebra.builder import scan as table
from repro.algebra.expressions import BinOp, Comparison, col, lit
from repro.algebra.operators import (
    AggregateSpec,
    Coalesce,
    Dedup,
    Difference,
    Join,
    Location,
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
from repro.algebra.properties import columns_read
from repro.algebra.pruning import prune_columns
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.core.parser import parse_temporal_query
from repro.core.translator import SQLTranslator
from repro.dbms.database import MiniDB
from repro.errors import SchemaError
from repro.fuzz.compare import canonical_rows
from repro.workloads import queries
from repro.workloads.uis import load_uis

MW, DB = Location.MIDDLEWARE, Location.DBMS
PERIOD = [Attribute("T1", AttrType.DATE), Attribute("T2", AttrType.DATE)]
R = Schema([Attribute("A"), Attribute("B"), Attribute("C"), Attribute("D", AttrType.STR), *PERIOD])
S = Schema([Attribute("A"), Attribute("E"), Attribute("D", AttrType.STR), *PERIOD])

B_SMALL = Comparison("<", col("B"), lit(5))
COUNT_ALL = (AggregateSpec("COUNT"),)


def r() -> Scan:
    return Scan("R", R)


def s() -> Scan:
    return Scan("S", S)


def keep(node, *names) -> Project:
    """The projection the pass inserts."""
    return Project.of_columns(node, names, DB)


def count_by_a(node, loc=DB) -> TemporalAggregate:
    """A parent that reads ``A``, ``T1`` and ``T2`` and nothing else."""
    return TemporalAggregate(node, loc, ("A",), COUNT_ALL)


def lowered(*names) -> frozenset:
    return frozenset(name.lower() for name in names)


#: name -> (plan, the tree that must come back)
CASES = {
    "scan under a narrow reader": (
        TransferM(count_by_a(r())),
        TransferM(count_by_a(keep(r(), "A", "T1", "T2"))),
    ),
    "the projection goes on top of the selections pushed onto the scan": (
        TransferM(count_by_a(Select(Select(r(), DB, B_SMALL), DB, B_SMALL))),
        TransferM(count_by_a(keep(Select(Select(r(), DB, B_SMALL), DB, B_SMALL), "A", "T1", "T2"))),
    ),
    "select and sort add what they read": (
        TransferM(count_by_a(Select(Sort(r(), DB, ("C",)), DB, B_SMALL))),
        TransferM(
            count_by_a(Select(Sort(keep(r(), "A", "B", "C", "T1", "T2"), DB, ("C",)), DB, B_SMALL))
        ),
    ),
    "aggregate arguments are read, COUNT(*) reads none": (
        TransferM(TemporalAggregate(r(), DB, ("A",), (AggregateSpec("SUM", "B"), *COUNT_ALL))),
        TransferM(
            TemporalAggregate(
                keep(r(), "A", "B", "T1", "T2"), DB, ("A",), (AggregateSpec("SUM", "B"), *COUNT_ALL)
            )
        ),
    ),
    "a projection reads every output it computes, asked for or not": (
        TransferM(
            count_by_a(
                Project(
                    Sort(r(), DB, ("A",)),
                    DB,
                    (("A", col("A")), ("X", BinOp("+", col("B"), col("C"))),
                     ("T1", col("T1")), ("T2", col("T2"))),
                )
            )
        ),
        TransferM(
            count_by_a(
                Project(
                    Sort(keep(r(), "A", "B", "C", "T1", "T2"), DB, ("A",)),
                    DB,
                    (("A", col("A")), ("X", BinOp("+", col("B"), col("C"))),
                     ("T1", col("T1")), ("T2", col("T2"))),
                )
            )
        ),
    ),
    "a transfer asks what is asked of it": (
        count_by_a(Sort(TransferM(r()), MW, ("A", "T1")), MW),
        count_by_a(Sort(TransferM(keep(r(), "A", "T1", "T2")), MW, ("A", "T1")), MW),
    ),
    "and so does a transfer down": (
        TransferM(count_by_a(TransferD(Select(TransferM(r()), MW, B_SMALL)))),
        TransferM(
            count_by_a(TransferD(Select(TransferM(keep(r(), "A", "B", "T1", "T2")), MW, B_SMALL)))
        ),
    ),
    "temporal join: attributes, the period on both sides, outputs by side": (
        TransferM(
            Project.of_columns(TemporalJoin(r(), s(), DB, "A", "A"), ["B", "E", "T1", "T2"])
        ),
        TransferM(
            Project.of_columns(
                TemporalJoin(
                    keep(r(), "A", "B", "T1", "T2"), keep(s(), "A", "E", "T1", "T2"), DB, "A", "A"
                ),
                ["B", "E", "T1", "T2"],
            )
        ),
    ),
    "join: the residual speaks output names, the period is a column like any": (
        TransferM(
            Project.of_columns(
                Join(r(), s(), DB, "A", "A", Comparison("<", col("C"), col("T1_2"))), ["B"]
            )
        ),
        TransferM(
            Project.of_columns(
                Join(
                    keep(r(), "A", "B", "C", "T1"), keep(s(), "A", "T1"), DB, "A", "A",
                    Comparison("<", col("C"), col("T1_2")),
                ),
                ["B"],
            )
        ),
    ),
    "product: a suffixed right column keeps the left column that suffixed it": (
        TransferM(Project.of_columns(Product(r(), s(), DB), ["B", "D_2"])),
        TransferM(
            Project.of_columns(Product(keep(r(), "B", "D"), keep(s(), "D"), DB), ["B", "D_2"])
        ),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_the_exact_tree_comes_back(name):
    plan, expected = CASES[name]
    pruned = prune_columns(plan)
    assert pruned.cache_key == expected.cache_key, pruned.pretty()
    assert pruned.schema.names == plan.schema.names
    assert prune_columns(pruned) is pruned  # idempotent


#: Plans the pass must hand back as the object it was given.
UNTOUCHED = {
    "nothing to drop": TransferM(Sort(Select(r(), DB, B_SMALL), DB, ("A",))),
    "the parent is a projection already": TransferM(
        count_by_a(Project.of_columns(Select(r(), DB, B_SMALL), ["A", "B", "T1", "T2"]))
    ),
    "dedup reads everything": TransferM(Project.of_columns(Dedup(r(), DB), ["A"])),
    "coalesce reads everything": TransferM(Project.of_columns(Coalesce(r(), DB), ["A", "T1", "T2"])),
    "difference reads everything": TransferM(
        Project.of_columns(Difference(r(), Scan("R2", R), DB), ["A"])
    ),
    "a side nothing is read of keeps its columns": TransferM(
        Project.of_columns(Product(Scan("T", Schema(PERIOD)), r(), DB), ["T1", "T2"])
    ),
}


@pytest.mark.parametrize("name", list(UNTOUCHED))
def test_handed_back_as_given(name):
    plan = UNTOUCHED[name]
    assert prune_columns(plan) is plan


def test_columns_read_per_operator():
    """The third column of DESIGN.md §14's table, row by row."""
    asked = lowered("A")
    everything = lowered(*R.names)
    assert columns_read(r(), asked) == ()
    assert columns_read(Select(r(), DB, B_SMALL), asked) == (lowered("A", "B"),)
    assert columns_read(Sort(r(), DB, ("C", "A")), asked) == (lowered("A", "C"),)
    assert columns_read(Project(r(), DB, (("A", col("A")), ("X", col("B")))), asked) == (
        lowered("A", "B"),
    )
    assert columns_read(count_by_a(r()), lowered("COUNTofALL")) == (lowered("A", "T1", "T2"),)
    for transfer in (TransferM(r()), TransferD(r())):
        assert columns_read(transfer, asked) == (asked,)
    for node in (Dedup(r(), DB), Coalesce(r(), MW)):
        assert columns_read(node, asked) == (everything,)
    assert columns_read(Difference(r(), r(), MW), asked) == (everything, everything)
    assert columns_read(TemporalJoin(r(), s(), MW, "B", "E"), lowered("A_2")) == (
        lowered("A", "B", "T1", "T2"),  # A: what makes the right side's A ``A_2``
        lowered("A", "E", "T1", "T2"),
    )
    assert columns_read(Join(r(), s(), DB, "B", "E"), lowered("T2")) == (
        lowered("B", "T2"),
        lowered("E"),
    )
    assert columns_read(Product(r(), s(), DB), frozenset()) == (frozenset(), frozenset())


# -- over real tables: fixed points, SQL, the self-join hazard --------------------------


@pytest.fixture(scope="module")
def db() -> MiniDB:
    database = MiniDB()
    load_uis(database, scale=0.01, with_variants=False, seed=1)
    for name in ("BASE", "DIM"):  # ``view_churn``'s three-column tables
        database.execute(f"CREATE TABLE {name} (K0 INT, T1 DATE, T2 DATE)")
    return database


def rows_of(db: MiniDB, plan) -> list[tuple]:
    assert isinstance(plan, TransferM)
    return canonical_rows(db.query(SQLTranslator().translate(plan.input)))


def scans_project(plan) -> list[tuple[str, ...]]:
    """Per scan, left to right, the columns of the projection just above its
    selections (the scan's own when there is none)."""
    found = []

    def visit(node, parent):
        if pruning.is_base_access(node):
            found.append((parent if isinstance(parent, Project) else node).schema.names)
        else:
            for child in node.inputs:
                visit(child, node)

    visit(plan, None)
    return found


FIXED_POINTS = {
    "Q1": lambda db: queries.query1_initial_plan(db),
    "Q2": lambda db: queries.query2_initial_plan(db, "1996-01-01"),
    "Q3": lambda db: queries.query3_initial_plan(db, "1999-01-01"),
    "Q4": lambda db: queries.query4_initial_plan(db),
    "Q2-P1": lambda db: queries.query2_plans(db, "1996-01-01")[0].plan,
    "SELECT *": lambda db: parse_temporal_query("VALIDTIME SELECT * FROM POSITION", db),
    "view_churn VJ": lambda db: (
        table(db, "BASE").temporal_join(table(db, "DIM").build(), "K0", "K0").to_middleware().build()
    ),
    "view_churn VA": lambda db: parse_temporal_query(
        "VALIDTIME SELECT K0, COUNT(K0) FROM BASE GROUP BY K0 ORDER BY K0", db
    ),
}


@pytest.mark.parametrize("name", list(FIXED_POINTS))
def test_fixed_points(db, name):
    plan = FIXED_POINTS[name](db)
    assert prune_columns(plan) is plan


def test_query1_from_sql_is_figure_4s_initial_plan(db):
    parsed = parse_temporal_query(queries.query1_sql(), db)
    hand_built = queries.query1_initial_plan(db)
    assert parsed.cache_key != hand_built.cache_key
    assert prune_columns(parsed).cache_key == hand_built.cache_key


def test_count_star_keeps_the_grouping_attributes_and_the_period(db):
    plan = parse_temporal_query(
        "VALIDTIME SELECT DeptNo, COUNT(*) FROM POSITION WHERE PayRate > 10 GROUP BY DeptNo", db
    )
    pruned = prune_columns(plan)
    assert scans_project(pruned) == [("DeptNo", "T1", "T2")]
    assert rows_of(db, pruned) == rows_of(db, plan)


def test_coalesced_query_is_narrowed_below_its_own_projection(db):
    plan = parse_temporal_query(
        "VALIDTIME COALESCED SELECT P.DeptNo FROM POSITION P, POSITION Q "
        "WHERE P.PosID = Q.PosID AND Q.PayRate > 30",
        db,
    )
    pruned = prune_columns(plan)
    coalesce = pruned.input
    assert isinstance(coalesce, Coalesce) and coalesce.input is not plan.input.input
    assert coalesce.input.outputs == plan.input.input.outputs  # its own projection, unedited
    assert scans_project(pruned) == [("PosID", "DeptNo", "T1", "T2"), ("PosID", "T1", "T2")]


SELF_JOIN = (
    "VALIDTIME SELECT Q.EmpName FROM POSITION P, POSITION Q "
    "WHERE P.PosID = Q.PosID AND P.PayRate > 30"
)


def test_a_suffixed_column_keeps_the_left_column_it_is_named_after(db):
    plan = parse_temporal_query(SELF_JOIN, db)
    assert plan.schema.names == ("EmpName_2", "T1", "T2")
    pruned = prune_columns(plan)
    assert pruned.schema.names == plan.schema.names
    # P.EmpName is read by nothing — and kept: it is why Q's is ``EmpName_2``.
    assert scans_project(pruned) == [("PosID", "EmpName", "T1", "T2")] * 2
    assert rows_of(db, pruned) == rows_of(db, plan) and rows_of(db, plan)
    # Dropping it renames the column the top projection asks for.
    join = pruned.input.input
    naive = TemporalJoin(keep(join.left.input, "PosID", "T1", "T2"), join.right, DB, "PosID", "PosID")
    assert naive.schema.names == ("PosID", "PosID_2", "EmpName", "T1", "T2")


def test_a_plan_whose_root_names_would_change_is_handed_back_untouched(db, monkeypatch):
    # The net under the rule above, shown by breaking the rule: a reads
    # table that forgets what a suffix depends on.
    def forgetful(node, asked):
        reads = columns_read(node, asked)
        return (reads[0] - {"d"}, *reads[1:]) if isinstance(node, Product) else reads

    plan = TransferM(Sort(Product(r(), s(), DB), DB, ("A",)))
    sliced = Project.of_columns(plan.input, ["A", "D_2"], DB)
    monkeypatch.setattr(pruning, "columns_read", forgetful)
    assert prune_columns(plan) is plan
    with pytest.raises(SchemaError, match="D_2"):  # inside the tree it cannot go unseen
        prune_columns(TransferM(sliced))


def test_three_way_join_keeps_an_underscore_3(db):
    plan = parse_temporal_query(
        "VALIDTIME SELECT R.EmpName FROM POSITION P, POSITION Q, POSITION R "
        "WHERE P.PosID = Q.PosID AND Q.PosID = R.PosID AND R.PayRate > 35",
        db,
    )
    assert plan.schema.names == ("EmpName_3", "T1", "T2")
    pruned = prune_columns(plan)
    assert pruned.schema.names == plan.schema.names
    # ``_3`` stands only while ``EmpName`` and ``EmpName_2`` are both taken.
    assert scans_project(pruned) == [("PosID", "EmpName", "T1", "T2")] * 3
    assert rows_of(db, pruned) == rows_of(db, plan) and rows_of(db, plan)
