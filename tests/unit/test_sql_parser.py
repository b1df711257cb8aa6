"""Unit tests for the SQL parser."""

import pytest

from repro.algebra.expressions import (
    And,
    BinOp,
    ColumnRef,
    Comparison,
    FuncCall,
    Literal,
    Not,
    Or,
    Parameter,
)
from repro.algebra.schema import AttrType
from repro.dbms.sql.ast import (
    AggregateCall,
    AnalyzeStmt,
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    DerivedTable,
    DropTableStmt,
    InsertSelectStmt,
    InsertValuesStmt,
    SelectStmt,
    TableRef,
)
from repro.dbms.sql.parser import parse_statement
from repro.errors import SQLSyntaxError
from repro.temporal.timestamps import day_of


def parse_expression(sql: str):
    """*sql* parsed as the WHERE condition of a statement."""
    return parse_statement(f"SELECT * FROM T WHERE {sql}").where


class TestExpressions:
    def test_precedence_and_over_or(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, Or)
        assert isinstance(expr.terms[1], And)

    def test_arithmetic_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, BinOp) and expr.op == "+"
        assert isinstance(expr.right, BinOp) and expr.right.op == "*"

    def test_parentheses(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_qualified_column(self):
        expr = parse_expression("A.PosID")
        assert expr == ColumnRef("A.PosID")

    def test_between_desugars(self):
        expr = parse_expression("x BETWEEN 1 AND 5")
        assert isinstance(expr, And)
        assert expr.terms[0].op == ">="
        assert expr.terms[1].op == "<="

    def test_in_desugars_to_or(self):
        expr = parse_expression("x IN (1, 2, 3)")
        assert isinstance(expr, Or)
        assert len(expr.terms) == 3

    def test_is_null(self):
        expr = parse_expression("x IS NULL")
        assert expr == Comparison("=", ColumnRef("x"), Literal(None))

    def test_is_not_null(self):
        assert isinstance(parse_expression("x IS NOT NULL"), Not)

    def test_not(self):
        assert isinstance(parse_expression("NOT x = 1"), Not)

    def test_date_literal(self):
        expr = parse_expression("DATE '1997-02-01'")
        assert expr == Literal(day_of("1997-02-01"), AttrType.DATE)

    def test_bad_date_literal(self):
        with pytest.raises(SQLSyntaxError):
            parse_expression("DATE 'not-a-date'")

    def test_unary_minus(self):
        expr = parse_expression("-5")
        assert expr == BinOp("-", Literal(0), Literal(5))

    def test_greatest_function(self):
        expr = parse_expression("GREATEST(a, b)")
        assert isinstance(expr, FuncCall)
        assert expr.name == "GREATEST"

    def test_aggregate_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert expr == AggregateCall("COUNT", None)

    def test_aggregate_distinct(self):
        expr = parse_expression("COUNT(DISTINCT x)")
        assert expr == AggregateCall("COUNT", ColumnRef("x"), True)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_expression("1 + 2 extra stuff ~~")


class TestSelect:
    def test_minimal(self):
        stmt = parse_statement("SELECT X FROM T")
        assert isinstance(stmt, SelectStmt)
        assert stmt.from_items == (TableRef("T"),)

    def test_star(self):
        stmt = parse_statement("SELECT * FROM T")
        assert stmt.items[0].star == "*"

    def test_qualified_star(self):
        stmt = parse_statement("SELECT A.* FROM T A")
        assert stmt.items[0].star == "A"

    def test_aliases(self):
        stmt = parse_statement("SELECT X AS Y, Z W FROM T")
        assert stmt.items[0].alias == "Y"
        assert stmt.items[1].alias == "W"

    def test_table_alias_forms(self):
        stmt = parse_statement("SELECT * FROM T1 A, T2 AS B")
        assert stmt.from_items[0].alias == "A"
        assert stmt.from_items[1].alias == "B"

    def test_where_group_having_order(self):
        stmt = parse_statement(
            "SELECT K, COUNT(*) FROM T WHERE V > 0 GROUP BY K "
            "HAVING COUNT(*) > 1 ORDER BY K DESC"
        )
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False

    def test_derived_table(self):
        stmt = parse_statement("SELECT * FROM (SELECT X FROM T) D")
        assert isinstance(stmt.from_items[0], DerivedTable)
        assert stmt.from_items[0].alias == "D"

    def test_derived_table_requires_alias(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT * FROM (SELECT X FROM T)")

    def test_union(self):
        stmt = parse_statement("SELECT X FROM T UNION SELECT Y FROM U")
        assert len(stmt.unions) == 1
        assert stmt.unions[0][0] is False  # not ALL

    def test_union_all(self):
        stmt = parse_statement("SELECT X FROM T UNION ALL SELECT Y FROM U")
        assert stmt.unions[0][0] is True

    def test_union_order_by_applies_to_whole(self):
        stmt = parse_statement("SELECT X FROM T UNION SELECT Y FROM U ORDER BY X")
        assert len(stmt.order_by) == 1

    def test_hint_captured(self):
        stmt = parse_statement("SELECT /*+ USE_NL */ * FROM T")
        assert stmt.hints == ("USE_NL",)

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT X FROM T").distinct

    def test_limit(self):
        assert parse_statement("SELECT X FROM T LIMIT 5").limit == 5


class TestDDLAndDML:
    def test_create_table(self):
        stmt = parse_statement(
            "CREATE TABLE T (K INT, Name VARCHAR(16), D DATE, F FLOAT)"
        )
        assert isinstance(stmt, CreateTableStmt)
        assert [c.type for c in stmt.columns] == [
            AttrType.INT, AttrType.STR, AttrType.DATE, AttrType.FLOAT,
        ]
        assert stmt.columns[1].width == 16

    def test_create_table_unknown_type(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("CREATE TABLE T (K BLOB)")

    def test_create_index(self):
        stmt = parse_statement("CREATE INDEX IX ON T (K)")
        assert isinstance(stmt, CreateIndexStmt)
        assert (stmt.index, stmt.table, stmt.column) == ("IX", "T", "K")

    def test_create_clustered_index(self):
        stmt = parse_statement("CREATE CLUSTER INDEX IX ON T (K)")
        assert stmt.clustered

    def test_insert_values_multi_row(self):
        stmt = parse_statement("INSERT INTO T VALUES (1, 'a'), (2, 'b')")
        assert isinstance(stmt, InsertValuesStmt)
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO T SELECT * FROM U")
        assert isinstance(stmt, InsertSelectStmt)

    def test_delete(self):
        stmt = parse_statement("DELETE FROM T WHERE K = 1")
        assert isinstance(stmt, DeleteStmt)
        assert stmt.where is not None

    def test_drop(self):
        assert isinstance(parse_statement("DROP TABLE T"), DropTableStmt)

    def test_analyze(self):
        stmt = parse_statement("ANALYZE TABLE T COMPUTE STATISTICS")
        assert isinstance(stmt, AnalyzeStmt)
        assert stmt.histogram_columns == "auto"

    def test_analyze_for_columns(self):
        stmt = parse_statement("ANALYZE TABLE T COMPUTE STATISTICS FOR COLUMNS T1, T2")
        assert stmt.histogram_columns == ("T1", "T2")

    def test_unparseable_statement(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("EXPLAIN PLAN FOR SELECT 1")


class TestBindMarkers:
    def test_markers_are_numbered_in_text_order(self):
        statement = parse_statement(
            "SELECT A + ? FROM (SELECT A FROM T WHERE B = ?) Q WHERE A < -? ORDER BY A"
        )
        assert statement.parameters == 3
        assert statement.items[0].expression == BinOp("+", ColumnRef("A"), Parameter(0))
        assert statement.from_items[0].select.where == Comparison(
            "=", ColumnRef("B"), Parameter(1)
        )
        # ``-?`` reads as ``0 - ?``, as ``-5`` reads as ``0 - 5``.
        assert statement.where == Comparison(
            "<", ColumnRef("A"), BinOp("-", Literal(0), Parameter(2))
        )

    def test_a_statement_without_markers_has_none(self):
        assert parse_statement("SELECT A FROM T").parameters == 0

    @pytest.mark.parametrize(
        "sql",
        ["INSERT INTO T VALUES (?)", "DELETE FROM T WHERE A = ?", "INSERT INTO T SELECT ? FROM U"],
    )
    def test_markers_are_for_select_only(self, sql):
        with pytest.raises(SQLSyntaxError, match="SELECT statements only"):
            parse_statement(sql)

    def test_temporal_queries_take_no_markers(self):
        from repro.core.parser import parse_temporal_query
        from repro.dbms.database import MiniDB

        db = MiniDB()
        db.execute("CREATE TABLE P (K INT, T1 DATE, T2 DATE)")
        with pytest.raises(SQLSyntaxError, match="temporal"):
            parse_temporal_query("VALIDTIME SELECT K FROM P WHERE K = ?", db)
