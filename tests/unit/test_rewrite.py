"""Unit tests for expression-tree rewriting."""

import pytest

from repro.algebra.expressions import (
    And,
    BinOp,
    ColumnRef,
    Comparison,
    FuncCall,
    Literal,
    Not,
    col,
    lit,
)
from repro.algebra.rewrite import (
    collect,
    rebuild,
    substitute,
    transform,
)
from repro.dbms.sql.ast import AggregateCall


class TestRebuild:
    def test_comparison(self):
        original = Comparison("<", col("A"), lit(1))
        rebuilt = rebuild(original, (col("B"), lit(2)))
        assert rebuilt == Comparison("<", col("B"), lit(2))

    def test_and(self):
        original = And([lit(1), lit(2)])
        rebuilt = rebuild(original, (lit(3), lit(4)))
        assert rebuilt == And([lit(3), lit(4)])

    def test_not(self):
        assert rebuild(Not(lit(1)), (lit(0),)) == Not(lit(0))

    def test_funccall(self):
        original = FuncCall("GREATEST", [lit(1), lit(2)])
        rebuilt = rebuild(original, (col("A"), col("B")))
        assert rebuilt == FuncCall("GREATEST", [col("A"), col("B")])

    def test_leaf_with_no_children(self):
        assert rebuild(lit(5), ()) == lit(5)

    def test_aggregate_call_duck_typed(self):
        call = AggregateCall("SUM", col("A"))
        rebuilt = rebuild(call, (col("B"),))
        assert isinstance(rebuilt, AggregateCall)
        assert rebuilt.argument == col("B")


class TestTransform:
    def test_identity_when_visitor_returns_none(self):
        expr = Comparison("<", col("A"), lit(1))
        assert transform(expr, lambda node: None) == expr

    def test_leaf_replacement_propagates(self):
        expr = BinOp("+", col("A"), col("A"))

        def visit(node):
            if isinstance(node, ColumnRef):
                return lit(7)
            return None

        assert transform(expr, visit) == BinOp("+", lit(7), lit(7))

    def test_bottom_up_ordering(self):
        # The visitor sees rebuilt children: replacing A with 1 makes the
        # comparison (1 < 1), which the visitor then folds.
        expr = Comparison("<", col("A"), lit(1))

        def visit(node):
            if isinstance(node, ColumnRef):
                return lit(1)
            if isinstance(node, Comparison) and node.left == node.right:
                return lit(False)
            return None

        assert transform(expr, visit) == lit(False)


class TestSubstitute:
    def test_whole_node_swap(self):
        expr = BinOp("+", col("A"), lit(1))
        mapping = {col("A"): col("B")}
        assert substitute(expr, mapping) == BinOp("+", col("B"), lit(1))

    def test_matched_subtree_not_descended(self):
        inner = BinOp("+", col("A"), lit(1))
        mapping = {inner: col("S"), col("A"): col("NEVER")}
        assert substitute(inner, mapping) == col("S")

    def test_no_match_is_identity(self):
        expr = BinOp("+", col("A"), lit(1))
        assert substitute(expr, {col("Z"): col("Y")}) == expr

    def test_aggregate_call_substitution(self):
        call = AggregateCall("COUNT", None)
        expr = BinOp("*", call, lit(2))
        result = substitute(expr, {call: col("#a0")})
        assert result == BinOp("*", col("#a0"), lit(2))


class TestSearchHelpers:
    def test_contains(self):
        # A node nested under another type is found; an absent type is not.
        expr = And([Comparison("<", col("A"), lit(1)), Not(lit(0))])
        assert collect(expr, Not) == [Not(lit(0))]
        assert collect(expr, BinOp) == []

    def test_collect(self):
        expr = And([Comparison("<", col("A"), lit(1)), Comparison("=", col("B"), lit(2))])
        assert len(collect(expr, Comparison)) == 2

    def test_collect_does_not_descend_into_matches(self):
        inner = Comparison("<", col("A"), lit(1))
        assert collect(inner, Comparison) == [inner]
