"""Equivalence wall for the expression compiler.

``Expression.compile`` and ``compile_row`` generate Python source; the truth
they are held to is the tree-walking evaluator below, which lives here and
not in ``src/``: same value *and* type, and the same exception class at the
same row, for random trees over all eight node types.
"""

import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.expressions import (
    And,
    BinOp,
    ColumnRef,
    Comparison,
    FuncCall,
    Literal,
    Not,
    Or,
    compile_row,
)
from repro.algebra.schema import Attribute, Schema
from repro.errors import ExpressionError

ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
COMPARISONS = {
    "=": operator.eq, "<>": operator.ne, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
FUNCTIONS = {"GREATEST": max, "LEAST": min, "ABS": abs, "LENGTH": len}


def reference(node, schema, row):
    """The semantics the generated source must reproduce, node by node."""
    if isinstance(node, ColumnRef):
        return row[schema.index_of(node.name)]
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, BinOp):
        left = reference(node.left, schema, row)
        return ARITHMETIC[node.op](left, reference(node.right, schema, row))
    if isinstance(node, Comparison):
        left = reference(node.left, schema, row)
        return COMPARISONS[node.op](left, reference(node.right, schema, row))
    if isinstance(node, And):  # short-circuits, yields bool
        return all(reference(term, schema, row) for term in node.terms)
    if isinstance(node, Or):
        return any(reference(term, schema, row) for term in node.terms)
    if isinstance(node, Not):
        return not reference(node.term, schema, row)
    assert isinstance(node, FuncCall)
    return FUNCTIONS[node.name](*[reference(arg, schema, row) for arg in node.args])


def outcome(func, *args):
    """('value', type, value) or ('raised', exception class)."""
    try:
        value = func(*args)
    except Exception as exc:  # the class is what is compared
        return ("raised", type(exc))
    return ("value", _typed(value))


def _typed(value):
    if isinstance(value, tuple):
        return tuple(_typed(item) for item in value)
    if isinstance(value, float) and math.isnan(value):
        return (float, "nan")
    return (type(value), value)


NAMES = ["A", "b", "T1", "row[0]", "x.y", "__import__('os')"]

# Integers are tiny or beyond 64 bits, never in between: ``text * int`` is
# string repetition, and a mid-sized factor would allocate gigabytes where a
# huge one raises OverflowError at once.
values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=2**64, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**64)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)


@st.composite
def cases(draw, outputs=1):
    """A schema, some rows for it, and *outputs* expression trees over it."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5, unique=True))
    schema = Schema(Attribute(name) for name in names)
    rows = draw(
        st.lists(st.tuples(*[values] * len(names)), min_size=1, max_size=4)
    )
    leaves = st.one_of(
        st.sampled_from(names).map(ColumnRef),
        values.map(Literal),
    )

    def extend(children):
        several = st.lists(children, min_size=1, max_size=3)
        return st.one_of(
            st.builds(BinOp, st.sampled_from(sorted(ARITHMETIC)), children, children),
            st.builds(Comparison, st.sampled_from(sorted(COMPARISONS)), children, children),
            several.map(And),
            several.map(Or),
            children.map(Not),
            st.builds(
                FuncCall,
                st.sampled_from(sorted(FUNCTIONS)),
                st.lists(children, min_size=0, max_size=3),
            ),
        )

    trees = st.recursive(leaves, extend, max_leaves=12)
    return schema, rows, [draw(trees) for _ in range(outputs)]


class TestCompileMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(cases())
    def test_single_expression(self, case):
        schema, rows, (tree,) = case
        compiled = tree.compile(schema)
        for row in rows:
            assert outcome(compiled, row) == outcome(reference, tree, schema, row)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=4).flatmap(lambda n: cases(outputs=n)))
    def test_compile_row(self, case):
        schema, rows, trees = case
        fused = compile_row(trees, schema)
        for row in rows:
            expected = outcome(
                lambda: tuple(reference(tree, schema, row) for tree in trees)
            )
            assert outcome(fused, row) == expected


class TestSemanticsPinned:
    SCHEMA = Schema([Attribute("A"), Attribute("B")])

    def test_boolean_nodes_yield_bool(self):
        a, b = ColumnRef("A"), ColumnRef("B")
        for tree in (And((a, b)), Or((a, b)), Not(a), And((a,))):
            assert type(tree.compile(self.SCHEMA)((3, "x"))) is bool

    def test_division_is_true_division(self):
        tree = BinOp("/", ColumnRef("A"), ColumnRef("B"))
        assert tree.compile(self.SCHEMA)((7, 2)) == 3.5

    def test_short_circuit_hides_division_by_zero(self):
        risky = Comparison(">", BinOp("/", Literal(1), ColumnRef("B")), Literal(0))
        guarded = And((Comparison("<>", ColumnRef("B"), Literal(0)), risky))
        func = guarded.compile(self.SCHEMA)
        assert func((1, 0)) is False
        assert func((1, 4)) is True
        with pytest.raises(ZeroDivisionError):
            And((risky, Literal(True))).compile(self.SCHEMA)((1, 0))

    def test_incomparable_types_raise_type_error(self):
        tree = Comparison("<", ColumnRef("A"), ColumnRef("B"))
        with pytest.raises(TypeError):
            tree.compile(self.SCHEMA)((1, "x"))

    def test_comparisons_do_not_chain(self):
        # (1 < 5) < 3 is True < 3; Python's chained 1 < 5 < 3 would be False.
        inner = Comparison("<", Literal(1), Literal(5))
        assert Comparison("<", inner, Literal(3)).compile(self.SCHEMA)((0, 0)) is True

    def test_negative_literals_keep_their_sign(self):
        tree = BinOp("-", ColumnRef("A"), Literal(-5))
        assert tree.compile(self.SCHEMA)((1, 0)) == 6

    def test_sixty_four_deep_nesting_compiles(self):
        tree = ColumnRef("A")
        for _ in range(64):
            tree = BinOp("+", tree, Literal(1))
        assert tree.compile(self.SCHEMA)((0, 0)) == 64
        assert compile_row([tree, tree], self.SCHEMA)((1, 0)) == (65, 65)

    def test_long_arithmetic_chain_renders_flat(self):
        # What the SQL parser builds for ``A + 1 - 1 + 1 …``: nested 400 deep
        # on the left, which would overrun the parser's parenthesis limit if
        # every BinOp kept its own pair.
        tree = ColumnRef("A")
        for index in range(400):
            tree = BinOp("+-"[index % 2], tree, Literal(1))
        assert tree.compile(self.SCHEMA)((7, 0)) == 7

    def test_dropped_parentheses_respect_precedence(self):
        a, b = ColumnRef("A"), ColumnRef("B")
        row = (7, 2)
        for tree, expected in [
            (BinOp("*", BinOp("+", a, b), Literal(3)), 27),
            (BinOp("+", BinOp("*", a, b), Literal(3)), 17),
            (BinOp("-", BinOp("-", a, b), Literal(3)), 2),
            (BinOp("-", a, BinOp("-", b, Literal(3))), 8),
            (BinOp("/", BinOp("*", a, b), Literal(4)), 3.5),
            (BinOp("/", a, BinOp("*", b, Literal(4))), 0.875),
        ]:
            assert tree.compile(self.SCHEMA)(row) == expected == reference(tree, self.SCHEMA, row)

    @pytest.mark.parametrize("depth", [400, 20_000])
    def test_too_deep_is_an_expression_error(self, depth):
        # 400 right-nested levels exceed the parser's parenthesis limit
        # (SyntaxError); 20,000 exhaust the interpreter stack while rendering.
        tree = ColumnRef("A")
        for _ in range(depth):
            tree = BinOp("+", Literal(1), tree)
        with pytest.raises(ExpressionError, match="cannot compile"):
            tree.compile(self.SCHEMA)

    def test_single_output_row_is_a_one_tuple(self):
        assert compile_row([ColumnRef("B")], self.SCHEMA)((1, 2)) == (2,)
        assert compile_row([BinOp("+", ColumnRef("B"), Literal(1))], self.SCHEMA)((1, 2)) == (3,)
        assert compile_row([], self.SCHEMA)((1, 2)) == ()
        assert compile_row([ColumnRef("B"), ColumnRef("A")], self.SCHEMA)((1, 2)) == (2, 1)
