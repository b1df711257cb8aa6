"""Unit tests for the Translator-To-SQL.

Each test translates a DBMS-located plan subtree to SQL, runs the SQL on
MiniDB, and checks the rows — the translator's contract is semantic, not
textual.
"""

import re

import pytest

from repro.algebra.builder import scan
from repro.algebra.expressions import BinOp, Comparison, col, lit
from repro.algebra.operators import Location, Sort, TemporalAggregate, TransferD, TransferM
from repro.core.tango import Tango
from repro.core.translator import SQLTranslator
from repro.dbms.database import MiniDB
from repro.errors import PlanError
from repro.workloads import queries
from tests.conftest import FIGURE3_QUERY_RESULT


@pytest.fixture
def db(figure3_db):
    return figure3_db


@pytest.fixture
def translator():
    return SQLTranslator()


def run(db, sql):
    return db.query(sql)


class TestBasics:
    def test_scan(self, db, translator):
        sql = translator.translate(scan(db, "POSITION").build())
        assert sorted(run(db, sql)) == sorted(
            [(1, "Tom", 2, 20), (1, "Jane", 5, 25), (2, "Tom", 5, 10)]
        )

    def test_selection(self, db, translator):
        plan = scan(db, "POSITION").select(Comparison("=", col("PosID"), lit(2))).build()
        assert run(db, translator.translate(plan)) == [(2, "Tom", 5, 10)]

    def test_projection(self, db, translator):
        plan = scan(db, "POSITION").project("EmpName", "T1").build()
        assert sorted(run(db, translator.translate(plan))) == [
            ("Jane", 5), ("Tom", 2), ("Tom", 5),
        ]

    def test_top_sort_becomes_order_by(self, db, translator):
        plan = scan(db, "POSITION").sort("T1", "EmpName").build()
        sql = translator.translate(plan)
        assert "ORDER BY T1, EmpName" in sql
        rows = run(db, sql)
        assert [row[2] for row in rows] == [2, 5, 5]

    def test_interior_sort_dropped(self, db, translator):
        plan = (
            scan(db, "POSITION")
            .sort("T1")
            .select(Comparison("=", col("PosID"), lit(1)))
            .build()
        )
        sql = translator.translate(plan)
        assert "ORDER BY" not in sql
        assert len(run(db, sql)) == 2

    def test_middleware_subtree_rejected(self, db, translator):
        plan = scan(db, "POSITION").to_middleware().build()
        with pytest.raises(PlanError):
            translator.translate(plan)


class TestJoins:
    def test_regular_join(self, db, translator):
        plan = scan(db, "POSITION").join(scan(db, "POSITION"), "PosID", "PosID").build()
        rows = run(db, translator.translate(plan))
        assert len(rows) == 5  # 2x2 for position 1 plus 1x1 for position 2
        assert len(rows[0]) == 8

    def test_join_with_residual(self, db, translator):
        residual = Comparison("<", col("T1"), col("T1_2"))
        plan = (
            scan(db, "POSITION")
            .join(scan(db, "POSITION"), "PosID", "PosID", residual=residual)
            .build()
        )
        rows = run(db, translator.translate(plan))
        assert len(rows) == 1  # only Tom(2) before Jane(5)

    def test_temporal_join_figure5_shape(self, db, translator):
        plan = (
            scan(db, "POSITION")
            .temporal_join(scan(db, "POSITION"), "PosID", "PosID")
            .build()
        )
        sql = translator.translate(plan)
        assert "GREATEST" in sql and "LEAST" in sql
        rows = run(db, sql)
        # Overlapping self-pairs: pos1 Tom-Tom, Tom-Jane, Jane-Tom,
        # Jane-Jane; pos2 Tom-Tom.
        assert len(rows) == 5
        tom_jane = [row for row in rows if row[1] == "Tom" and row[3] == "Jane"]
        assert tom_jane[0][-2:] == (5, 20)

    def test_product(self, db, translator):
        plan = scan(db, "POSITION").product(scan(db, "POSITION")).build()
        assert len(run(db, translator.translate(plan))) == 9


class TestTemporalAggregation:
    def test_taggr_d_matches_figure3(self, db, translator):
        plan = (
            scan(db, "POSITION")
            .project("PosID", "T1", "T2")
            .taggr(group_by=["PosID"], count="PosID")
            .sort("PosID", "T1")
            .build()
        )
        rows = run(db, translator.translate(plan))
        assert rows == [(1, 2, 5, 1), (1, 5, 20, 2), (1, 20, 25, 1), (2, 5, 10, 1)]

    def test_taggr_d_no_grouping(self, db, translator):
        plan = (
            scan(db, "POSITION")
            .project("T1", "T2")
            .taggr(count="T1")
            .sort("T1")
            .build()
        )
        rows = run(db, translator.translate(plan))
        # Global constant intervals over {[2,20),[5,25),[5,10)}.
        assert rows == [
            (2, 5, 1), (5, 10, 3), (10, 20, 2), (20, 25, 1),
        ]

    def test_taggr_d_other_aggregates(self, db, translator):
        from repro.algebra.operators import AggregateSpec

        plan = (
            scan(db, "POSITION")
            .project("PosID", "T1", "T2")
            .taggr(
                group_by=["PosID"],
                aggregates=[AggregateSpec("MIN", "T1", "FirstStart")],
            )
            .sort("PosID", "T1")
            .build()
        )
        rows = run(db, translator.translate(plan))
        assert rows[0] == (1, 2, 5, 2)


class TestTransferDReferences:
    def test_temp_table_substituted(self, db, translator):
        db.execute("CREATE TABLE TMP_42 (PosID INT, CNT INT)")
        db.execute("INSERT INTO TMP_42 VALUES (1, 2), (2, 1)")
        mw_part = scan(db, "POSITION").project("PosID", "T1", "T2").to_middleware()
        transfer_down = TransferD(mw_part.build())
        from repro.algebra.operators import Sort

        plan = Sort(transfer_down, Location.DBMS, ("PosID",))
        sql = translator.translate(plan, {id(transfer_down): "TMP_42"})
        assert "TMP_42" in sql

    def test_unassigned_temp_table_rejected(self, db, translator):
        transfer_down = TransferD(scan(db, "POSITION").to_middleware().build())
        with pytest.raises(PlanError):
            translator.translate(transfer_down, {})


class TestTranslatedOnce:
    """A region's SQL is kept on its root unless a ``T^D`` names a table
    that is fresh per execution."""

    def test_a_region_without_transfer_d_is_translated_once(self, db, translator):
        plan = scan(db, "POSITION").select(Comparison("<", col("T1"), lit(6))).build()
        sql = translator.translate(plan)
        assert SQLTranslator().translate(plan) is sql
        # A copy with other fields derives its own text.
        moved = plan.replaced(predicate=Comparison("<", col("T1"), lit(7)))
        assert "< 7" in translator.translate(moved) and "< 6" in sql

    def test_a_region_reading_a_temp_table_is_translated_per_execution(self, db, translator):
        transfer_down = TransferD(scan(db, "POSITION").to_middleware().build())
        plan = Sort(transfer_down, Location.DBMS, ("PosID",))
        one = translator.translate(plan, {id(transfer_down): "T_1"})
        two = translator.translate(plan, {id(transfer_down): "T_2"})
        assert "T_1" in one and "T_2" in two


class TestLiteralSpelling:
    def test_floats_of_every_magnitude_read_back(self, db, translator):
        for value in (0.00001, 1e16, 1.5e-300, 123456.789):
            plan = scan(db, "POSITION").select(Comparison("<", col("PosID"), lit(value))).build()
            assert sorted(run(db, translator.translate(plan))) == sorted(
                row for row in db.table("POSITION").rows if row[0] < value
            )

    def test_null_tests_render_as_is_null(self, db, translator):
        null = Comparison("=", col("EmpName"), lit(None))
        plan = scan(db, "POSITION").select(null).build()
        assert "EmpName IS NULL" in translator.translate(plan)
        assert run(db, translator.translate(plan)) == []
        plan = scan(db, "POSITION").select(~null).build()
        assert "EmpName IS NOT NULL" in translator.translate(plan)
        assert len(run(db, translator.translate(plan))) == db.table("POSITION").cardinality

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), True])
    def test_a_literal_with_no_sql_spelling_is_refused_by_name(self, db, translator, value):
        plan = scan(db, "POSITION").select(Comparison("<", col("PosID"), lit(value))).build()
        with pytest.raises(PlanError, match=re.escape(repr(value))):
            translator.translate(plan)


class TestBinds:
    """Every literal but NULL is a bind; the text spells each back in place."""

    def test_literals_travel_as_binds_in_text_order(self, db, translator):
        predicate = Comparison("<", col("PosID"), lit(6)) & Comparison(
            "<>", col("EmpName"), lit("O'Neil")
        )
        plan = scan(db, "POSITION").select(predicate).project("EmpName").build()
        bound = translator.translate_bound(plan)
        assert bound.binds == (6, "O'Neil")
        assert "?" in bound.sql and "6" not in bound.sql and "Neil" not in bound.sql
        assert bound.text == translator.translate(plan)
        assert "Q1.PosID < 6 AND Q1.EmpName <> 'O''Neil'" in bound.text
        assert sorted(db.query(bound.text)) == sorted(
            db.execute(bound.sql, bound.binds).fetchall()
        )

    def test_a_negative_number_is_a_minus_before_its_magnitude(self, db, translator):
        for value, magnitude in ((-3, 3), (-2.5, 2.5), (-0.0, 0.0)):
            plan = scan(db, "POSITION").select(Comparison(">", col("PosID"), lit(value))).build()
            bound = translator.translate_bound(plan)
            assert bound.binds == (magnitude,) and "> -?" in bound.sql
            assert f"> {value!r}" in bound.text
            assert sorted(db.query(bound.text)) == sorted(
                db.execute(bound.sql, bound.binds).fetchall()
            )

    def test_null_stays_in_the_text(self, db, translator):
        null = Comparison("=", col("EmpName"), lit(None))
        bound = translator.translate_bound(scan(db, "POSITION").select(~null).build())
        assert bound.binds == () and "EmpName IS NOT NULL" in bound.sql

    def test_statements_differing_in_literals_are_one_text(self, db, translator):
        texts = {
            translator.translate_bound(
                scan(db, "POSITION").select(Comparison("<", col("T1"), lit(day))).build()
            ).sql
            for day in (3, 6, 9)
        }
        assert len(texts) == 1


class TestDedup:
    def test_distinct(self, db, translator):
        plan = scan(db, "POSITION").project("EmpName").dedup().build()
        rows = run(db, translator.translate(plan))
        assert sorted(rows) == [("Jane",), ("Tom",)]


# -- one SELECT per select-project-join block (DESIGN.md §16) ---------------------------

DAY = 58440  # 1990-01-01: inside Query 2's window, before Query 3's bound


def derived_tables(sql: str) -> int:
    return sql.count("(SELECT")


@pytest.fixture
def mini_uis():
    """POSITION/EMPLOYEE with the UIS columns Queries 2-4 touch: Figure 3's
    three tuples, Tom in position 2 paid under Query 2's PayRate bound."""
    db = MiniDB()
    db.execute(
        "CREATE TABLE POSITION (PosID INT, EmpID INT, EmpName VARCHAR(16), "
        "PayRate FLOAT, T1 DATE, T2 DATE)"
    )
    db.execute(
        "INSERT INTO POSITION VALUES "
        f"(1, 10, 'Tom', 12.0, {DAY + 2}, {DAY + 20}), "
        f"(1, 11, 'Jane', 15.0, {DAY + 5}, {DAY + 25}), "
        f"(2, 10, 'Tom', 8.0, {DAY + 5}, {DAY + 10})"
    )
    db.execute("CREATE TABLE EMPLOYEE (EmpID INT, EmpName VARCHAR(16), Address VARCHAR(16))")
    db.execute("INSERT INTO EMPLOYEE VALUES (10, 'Tom', 'Elm St'), (11, 'Jane', 'Oak St')")
    return db


@pytest.fixture
def rsu():
    db = MiniDB()
    db.execute("CREATE TABLE R (K INT, V INT, T1 DATE, T2 DATE)")
    db.execute("INSERT INTO R VALUES (1, 10, 0, 10), (1, 11, 5, 15), (2, 20, 0, 4), (3, 30, 1, 2)")
    db.execute("CREATE TABLE S (K INT, W INT)")
    db.execute("INSERT INTO S VALUES (1, 7), (2, 8), (2, 9), (4, 7)")
    db.execute("CREATE TABLE U (W INT, Z INT)")
    db.execute("INSERT INTO U VALUES (7, 70), (8, 80), (8, 81)")
    return db


class TestPaperQueriesAreFlat:
    def test_query3_is_one_block(self, mini_uis, translator):
        sql = translator.translate(queries.query3_initial_plan(mini_uis, "1995-01-01").input)
        assert derived_tables(sql) == 0 and sql.count("SELECT") == 1
        assert run(mini_uis, sql) == [(1, "Tom", "Jane", DAY + 5, DAY + 20)]

    def test_query4_is_one_block(self, mini_uis, translator):
        sql = translator.translate(queries.query4_initial_plan(mini_uis).input)
        assert derived_tables(sql) == 0 and sql.count("SELECT") == 1
        assert sorted(run(mini_uis, sql)) == [
            (1, "Jane", "Oak St"), (1, "Tom", "Elm St"), (2, "Tom", "Elm St"),
        ]

    def test_query2_nests_only_its_taggr(self, mini_uis, translator):
        plan = queries.query2_initial_plan(mini_uis, "1996-01-01").input
        taggr = next(n for n in plan.walk() if isinstance(n, TemporalAggregate))
        sql = translator.translate(plan)
        # TAGGR^D re-enters the join's block as one FROM item; the join, the
        # window selection, the clipping projection and the join side's own
        # select-project chain add no derived table.
        assert derived_tables(sql) == derived_tables(translator.translate(taggr)) + 1
        # Figure 3(b) shifted to DAY, minus position 2 (PayRate 8 <= 10).
        assert sorted(run(mini_uis, sql)) == sorted(
            (1, name, DAY + t1, DAY + t2, count)
            for _, name, t1, t2, count in FIGURE3_QUERY_RESULT[:4]
        )

    def test_query2_chosen_plan_sends_two_flat_statements(self, uis_db, translator):
        with Tango(uis_db) as tango:
            plan = tango.optimize(queries.query2_initial_plan(uis_db, "1996-01-01")).plan
        regions = [n.input for n in plan.walk() if isinstance(n, TransferM)]
        assert len(regions) == 2
        for region in regions:
            sql = translator.translate(region)
            assert derived_tables(sql) == 0 and sql.count("SELECT") == 1


class TestClosedBlocks:
    def test_top_dedup_is_select_distinct_over_its_inputs_block(self, db, translator):
        plan = (
            scan(db, "POSITION")
            .select(Comparison("=", col("PosID"), lit(1)))
            .project("PosID")
            .dedup()
            .build()
        )
        sql = translator.translate(plan)
        assert sql.startswith("SELECT DISTINCT") and derived_tables(sql) == 0
        assert run(db, sql) == [(1,)]

    def test_dedup_mid_plan_keeps_exactly_its_own_derived_table(self, db, translator):
        plan = (
            scan(db, "POSITION")
            .project("EmpName", "PosID")
            .dedup()
            .select(Comparison("=", col("PosID"), lit(1)))
            .project("EmpName")
            .build()
        )
        sql = translator.translate(plan)
        assert derived_tables(sql) == 1 and "(SELECT DISTINCT" in sql
        assert sorted(run(db, sql)) == [("Jane",), ("Tom",)]

    def test_taggr_over_a_base_table_keeps_exactly_its_own_three(self, db, translator):
        plan = scan(db, "POSITION").taggr(group_by=["PosID"], count="PosID").build()
        # instants twice, intervals once; the argument is the bare table.
        assert derived_tables(translator.translate(plan)) == 3

    def test_selection_above_taggr_reads_the_closed_block(self, db, translator):
        plan = (
            scan(db, "POSITION")
            .taggr(group_by=["PosID"], count="PosID")
            .select(Comparison("=", col("COUNTofPosID"), lit(2)))
            .build()
        )
        sql = translator.translate(plan)
        assert derived_tables(sql) == 4
        assert run(db, sql) == [(1, 5, 20, 2)]


class TestClosingRules:
    def test_bushy_right_input_is_closed(self, rsu, translator):
        """MiniDB joins FROM items left-deep in textual order, so a flat
        ``FROM R, S, U`` is (R join S) join U whatever the plan said — a
        cross product whenever R's join attribute comes from U."""
        inner = scan(rsu, "S").join(scan(rsu, "U"), "W", "W")
        plan = scan(rsu, "R").project("K", "V").join(inner, "K", "K").build()
        sql = translator.translate(plan)
        assert derived_tables(sql) == 1
        assert sql.count("FROM R Q1, (SELECT") == 1
        assert sorted(run(rsu, sql)) == [
            (1, 10, 1, 7, 7, 70),
            (1, 11, 1, 7, 7, 70),
            (2, 20, 2, 8, 8, 80),
            (2, 20, 2, 8, 8, 81),
        ]

    def test_left_deep_joins_stay_flat(self, rsu, translator):
        plan = (
            scan(rsu, "R")
            .join(scan(rsu, "S"), "K", "K")
            .join(scan(rsu, "U"), "W", "W")
            .project("V", "Z")
            .build()
        )
        sql = translator.translate(plan)
        assert derived_tables(sql) == 0
        assert "FROM R Q1, S Q2, U Q3" in sql
        assert sorted(run(rsu, sql)) == [(10, 70), (11, 70), (20, 80), (20, 81)]

    def test_computed_join_key_is_closed(self, rsu, translator):
        """``Project[K + 1 AS K2] join S``: MiniDB picks its sort-merge join
        on ``Qa.x = Qb.y`` between bare columns only."""
        shifted = scan(rsu, "R").project_exprs(
            [("K2", BinOp("+", col("K"), lit(1))), ("V", col("V"))]
        )
        plan = shifted.join(scan(rsu, "S"), "K2", "K").build()
        sql = translator.translate(plan)
        assert derived_tables(sql) == 1
        assert re.search(r"WHERE Q(\d+)\.K2 = Q(\d+)\.K$", sql)
        assert sorted(run(rsu, sql)) == [
            (2, 10, 2, 8), (2, 10, 2, 9), (2, 11, 2, 8), (2, 11, 2, 9), (4, 30, 4, 7),
        ]

    def test_doubling_projection_chain_stays_small(self, rsu, translator):
        builder = scan(rsu, "R").project("V")
        for _ in range(16):
            builder = builder.project_exprs([("V", BinOp("+", col("V"), col("V")))])
        sql = translator.translate(builder.build())
        assert len(sql) < 4096
        # The first doubling reads a bare column; each later one mentions a
        # computed output twice and closes the block under it.
        assert derived_tables(sql) == 15
        assert sorted(run(rsu, sql)) == [(v * 2**16,) for v in (10, 11, 20, 30)]

    def test_single_mentions_of_computed_outputs_stay_flat(self, rsu, translator):
        plan = (
            scan(rsu, "R")
            .project_exprs([("K", col("K")), ("X", BinOp("*", col("V"), lit(2)))])
            .select(Comparison(">", col("X"), lit(20)))
            .project_exprs([("Y", BinOp("+", col("X"), col("K")))])
            .build()
        )
        sql = translator.translate(plan)
        assert derived_tables(sql) == 0
        assert "WHERE (Q1.V * 2) > 20" in sql
        assert sorted(run(rsu, sql)) == [(23,), (42,), (63,)]

    def test_boolean_output_survives_substitution(self, rsu, translator):
        plan = (
            scan(rsu, "R")
            .project_exprs([("K", col("K")), ("Early", Comparison("<", col("T2"), lit(5)))])
            .select(Comparison("=", col("Early"), lit(1)))
            .project("K")
            .build()
        )
        assert sorted(run(rsu, translator.translate(plan))) == [(2,), (3,)]


class TestSubstitution:
    def test_temporal_self_join_aliases_and_intersected_period(self, rsu, translator):
        plan = (
            scan(rsu, "R")
            .temporal_join(scan(rsu, "R"), "K", "K")
            .select(Comparison("<", col("T1"), lit(5)))
            .build()
        )
        sql = translator.translate(plan)
        assert derived_tables(sql) == 0
        assert "FROM R Q1, R Q2" in sql
        assert "GREATEST(Q1.T1, Q2.T1) < 5" in sql
        assert sorted(run(rsu, sql)) == [
            (1, 10, 1, 10, 0, 10),
            (2, 20, 2, 20, 0, 4),
            (3, 30, 3, 30, 1, 2),
        ]

    def test_repeated_conjunct_appears_once(self, rsu, translator):
        early = Comparison("<", col("T1"), lit(5))
        plan = (
            scan(rsu, "R")
            .select(early & Comparison(">", col("V"), lit(10)))
            .project("K", "V", "T1")
            .select(early)
            .build()
        )
        sql = translator.translate(plan)
        assert sql.count("Q1.T1 < 5") == 1
        assert sorted(run(rsu, sql)) == [(2, 20, 0), (3, 30, 1)]

    def test_select_above_product_reaches_the_right_side(self, rsu, translator):
        plan = (
            scan(rsu, "S")
            .product(scan(rsu, "S"))
            .select(Comparison("=", col("K_2"), lit(4)) & Comparison("=", col("W"), lit(8)))
            .build()
        )
        sql = translator.translate(plan)
        assert derived_tables(sql) == 0
        assert "Q2.K = 4" in sql and "Q1.W = 8" in sql
        assert run(rsu, sql) == [(2, 8, 4, 7)]

    def test_residual_speaks_the_joins_output_names(self, rsu, translator):
        residual = Comparison("<", col("W"), col("W_2"))
        plan = (
            scan(rsu, "S").join(scan(rsu, "S"), "K", "K", residual=residual).build()
        )
        sql = translator.translate(plan)
        assert "Q1.W < Q2.W" in sql and derived_tables(sql) == 0
        assert run(rsu, sql) == [(2, 8, 2, 9)]
