"""Unit tests for scalar expressions and predicates."""

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
    attributes_of,
    col,
    compile_block,
    compile_row,
    conjoin,
    conjuncts,
    lit,
)
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.errors import ExpressionError

SCHEMA = Schema(
    [
        Attribute("A", AttrType.INT),
        Attribute("B", AttrType.FLOAT),
        Attribute("Name", AttrType.STR),
    ]
)
ROW = (10, 2.5, "tango")


def evaluate(expression, row=ROW, schema=SCHEMA):
    return expression.compile(schema)(row)


class TestLeaves:
    def test_column_lookup(self):
        assert evaluate(col("A")) == 10

    def test_column_case_insensitive(self):
        assert evaluate(col("name")) == "tango"

    def test_literal(self):
        assert evaluate(lit(42)) == 42

    def test_literal_sql_escaping(self):
        assert lit("O'Brien").to_sql() == "'O''Brien'"

    def test_column_attributes(self):
        assert col("Name").attributes() == frozenset({"name"})

    def test_result_types(self):
        assert col("A").result_type(SCHEMA) is AttrType.INT
        assert lit(1.5).result_type(SCHEMA) is AttrType.FLOAT
        assert lit("x").result_type(SCHEMA) is AttrType.STR


class TestArithmetic:
    def test_add(self):
        assert evaluate(BinOp("+", col("A"), lit(5))) == 15

    def test_mul_with_float(self):
        assert evaluate(BinOp("*", col("A"), col("B"))) == 25.0

    def test_division_type_is_float(self):
        assert BinOp("/", col("A"), lit(2)).result_type(SCHEMA) is AttrType.FLOAT

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError):
            BinOp("%", col("A"), lit(2))

    def test_sql_rendering(self):
        assert BinOp("+", col("A"), lit(1)).to_sql() == "(A + 1)"


class TestComparison:
    @pytest.mark.parametrize(
        "op,expected",
        [("=", False), ("<>", True), ("<", True), ("<=", True), (">", False), (">=", False)],
    )
    def test_operators(self, op, expected):
        assert evaluate(Comparison(op, col("A"), lit(11))) is expected

    def test_flipped(self):
        flipped = Comparison("<", col("A"), lit(5)).flipped()
        assert flipped.op == ">"
        assert flipped.left == lit(5)

    def test_flip_preserves_semantics(self):
        original = Comparison("<=", col("A"), lit(10))
        assert evaluate(original) == evaluate(original.flipped())

    def test_unknown_comparison_rejected(self):
        with pytest.raises(ExpressionError):
            Comparison("~", col("A"), lit(1))


class TestBoolean:
    def test_and_true(self):
        expr = Comparison(">", col("A"), lit(5)) & Comparison("<", col("A"), lit(20))
        assert evaluate(expr) is True

    def test_and_flattens(self):
        nested = And([And([lit(1), lit(1)]), lit(1)])
        assert len(nested.terms) == 3

    def test_or_short_circuit_result(self):
        expr = Comparison("=", col("A"), lit(99)) | Comparison("=", col("A"), lit(10))
        assert evaluate(expr) is True

    def test_not(self):
        assert evaluate(~Comparison("=", col("A"), lit(10))) is False

    def test_empty_and_rejected(self):
        with pytest.raises(ExpressionError):
            And([])

    def test_sql_rendering_and(self):
        expr = Comparison("<", col("A"), lit(1)) & Comparison(">", col("B"), lit(2))
        assert expr.to_sql() == "A < 1 AND B > 2"


class TestFunctions:
    def test_greatest(self):
        assert evaluate(FuncCall("GREATEST", [col("A"), lit(3)])) == 10

    def test_least(self):
        assert evaluate(FuncCall("LEAST", [col("A"), lit(3)])) == 3

    def test_case_insensitive_name(self):
        assert FuncCall("greatest", [lit(1), lit(2)]).name == "GREATEST"

    def test_unknown_function_rejected(self):
        with pytest.raises(ExpressionError):
            FuncCall("FROBNICATE", [lit(1)])

    def test_sql_rendering(self):
        assert FuncCall("LEAST", [col("A"), lit(9)]).to_sql() == "LEAST(A, 9)"


class TestGeneratedSource:
    """No text from a query reaches the source ``compile`` evaluates."""

    HOSTILE = "'); __import__('os').system('x') #"

    def test_hostile_literal_round_trips_as_a_value(self):
        assert evaluate(lit(self.HOSTILE)) == self.HOSTILE
        assert compile_row([lit(self.HOSTILE), col("A")], SCHEMA)(ROW) == (self.HOSTILE, 10)

    def test_hostile_column_name_is_a_position(self):
        schema = Schema([Attribute("B"), Attribute("row[0]"), Attribute(self.HOSTILE)])
        assert evaluate(col("row[0]"), (1, 2, 3), schema) == 2
        assert evaluate(col(self.HOSTILE), (1, 2, 3), schema) == 3

    @pytest.mark.parametrize(
        "value", [7, 0, -3, 2**70, "text", 1.5, float("nan"), float("inf"), True, None]
    )
    def test_every_literal_is_a_bound_name(self, value):
        func = Comparison("=", col("A"), lit(value)).compile(SCHEMA)
        # The constant lives in the globals, under a generated name — ints too.
        assert func.__code__.co_names == ("_k1",)
        (bound,) = [v for k, v in func.__globals__.items() if k.startswith("_k")]
        assert bound is value
        # No literal text reaches the source: every value compiles to the
        # code object of the same shape with another value.
        other = Comparison("=", col("A"), lit("another")).compile(SCHEMA)
        assert func.__code__ is other.__code__

    def test_generated_functions_see_no_builtins(self):
        func = FuncCall("GREATEST", [col("A"), lit("x")]).compile(SCHEMA)
        assert func.__globals__["__builtins__"] == {}
        assert sorted(func.__globals__) == ["__builtins__", "_f1", "_k2"]

    def test_block_kernels_bind_literals_and_render_columns_as_positions(self):
        left = Schema([Attribute("L.K"), Attribute("row[0]")])
        right = Schema([Attribute("R.K"), Attribute(self.HOSTILE)])
        kernel = compile_block(
            "merge",
            [col("row[0]"), lit(self.HOSTILE), col(self.HOSTILE)],
            [Comparison("<>", col(self.HOSTILE), lit(self.HOSTILE))],
            left,
            right,
        )
        assert kernel.__globals__["__builtins__"] == {}
        bound = [v for k, v in kernel.__globals__.items() if k != "__builtins__"]
        assert bound == [self.HOSTILE, self.HOSTILE]
        matched = [((1, "x"), [(1, "y"), (1, self.HOSTILE)])]
        assert kernel(matched) == [("x", self.HOSTILE, "y")]

    @pytest.mark.parametrize("shape", ["rows", "loop", "probe"])
    def test_every_block_shape_sees_no_builtins(self, shape):
        right = None if shape == "rows" else Schema([Attribute("S")])
        kernel = compile_block(shape, [col("A")], [Comparison("=", col("Name"), lit("tango"))], SCHEMA, right)
        assert kernel.__globals__["__builtins__"] == {}
        inputs = {
            "rows": ([ROW],),
            "loop": ([ROW], [("s",)]),
            "probe": ([ROW], lambda l: [("s",)]),
        }[shape]
        assert kernel(*inputs) == [(10,)]

    def test_pair_functions_see_no_builtins(self):
        # A condition over both rows of a pair: left ``A`` against right ``S``.
        right = Schema([Attribute("S")])
        kernel = compile_block("loop", [col("S")], [Comparison("<", col("A"), col("S"))], SCHEMA, right)
        assert kernel.__globals__["__builtins__"] == {}
        assert kernel([ROW], [(11,), (10,)]) == [(11,)]

    def test_hostile_literals_cross_a_join_as_values(self):
        from repro.dbms.database import MiniDB

        db = MiniDB()
        db.execute("CREATE TABLE A (K INT, V INT)")
        db.execute("CREATE TABLE B (K INT, S VARCHAR(40))")
        db.execute("INSERT INTO A VALUES (1, 7)")
        quoted = self.HOSTILE.replace("'", "''")
        db.execute(f"INSERT INTO B VALUES (1, '{quoted}'), (1, 'plain')")
        rows = db.query(
            f"SELECT A.V, B.S, '{quoted}' FROM A, B WHERE A.K = B.K AND B.S <> 'plain'"
        )
        assert rows == [(7, self.HOSTILE, self.HOSTILE)]

    def test_aggregate_calls_do_not_compile(self):
        from repro.dbms.sql.ast import AggregateCall

        call = AggregateCall("SUM", col("A"))
        for attempt in (
            lambda: call.compile(SCHEMA),
            lambda: BinOp("+", call, lit(1)).compile(SCHEMA),
            lambda: compile_row([col("A"), call], SCHEMA),
        ):
            with pytest.raises(ExpressionError, match="aggregate"):
                attempt()


class TestEqualityAndHash:
    def test_structural_equality(self):
        assert Comparison("<", col("A"), lit(1)) == Comparison("<", col("A"), lit(1))

    def test_column_case_insensitive_equality(self):
        assert col("posid") == col("PosID")

    def test_hash_consistency(self):
        a = Comparison("<", col("A"), lit(1))
        b = Comparison("<", col("A"), lit(1))
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert Comparison("<", col("A"), lit(1)) != Comparison("<=", col("A"), lit(1))


class TestHelpers:
    def test_conjuncts_of_and(self):
        expr = And([lit(1), lit(2), lit(3)])
        assert len(list(conjuncts(expr))) == 3

    def test_conjuncts_of_atom(self):
        assert list(conjuncts(lit(1))) == [lit(1)]

    def test_conjuncts_of_none(self):
        assert list(conjuncts(None)) == []

    def test_conjoin_roundtrip(self):
        terms = [Comparison("<", col("A"), lit(1)), Comparison(">", col("B"), lit(2))]
        assert list(conjuncts(conjoin(terms))) == terms

    def test_conjoin_empty(self):
        assert conjoin([]) is None

    def test_conjoin_single(self):
        assert conjoin([lit(1)]) == lit(1)

    def test_attributes_of(self):
        expr = Comparison("<", col("A"), col("B"))
        assert attributes_of(expr, None, col("Name")) == {"a", "b", "name"}
