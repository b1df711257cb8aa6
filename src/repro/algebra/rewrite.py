"""Generic expression-tree rewriting.

Used by the SQL planner (aggregate extraction, name resolution) and by the
optimizer's transformation rules (predicate/projection pushing).
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.algebra.expressions import (
    And,
    BinOp,
    Comparison,
    Expression,
    FuncCall,
    Not,
    Or,
)
from repro.errors import ExpressionError


def rebuild(expression: Expression, children: tuple[Expression, ...]) -> Expression:
    """Clone *expression* with new *children* (same arity, same class)."""
    if isinstance(expression, BinOp):
        left, right = children
        return BinOp(expression.op, left, right)
    if isinstance(expression, Comparison):
        left, right = children
        return Comparison(expression.op, left, right)
    if isinstance(expression, And):
        return And(children)
    if isinstance(expression, Or):
        return Or(children)
    if isinstance(expression, Not):
        (term,) = children
        return Not(term)
    if isinstance(expression, FuncCall):
        return FuncCall(expression.name, children)
    if hasattr(expression, "func") and hasattr(expression, "distinct"):
        # SQL-layer AggregateCall (duck-typed to avoid a layering cycle).
        argument = children[0] if children else None
        return type(expression)(expression.func, argument, expression.distinct)  # type: ignore[call-arg]
    if children:
        raise ExpressionError(f"cannot rebuild {type(expression).__name__} with children")
    return expression


def transform(
    expression: Expression, visitor: Callable[[Expression], Expression | None]
) -> Expression:
    """Bottom-up rewrite.  *visitor* may return a replacement or ``None``
    to keep the (children-rewritten) node."""
    children = expression.children()
    if children:
        new_children = tuple(transform(child, visitor) for child in children)
        if new_children != children:
            expression = rebuild(expression, new_children)
    replacement = visitor(expression)
    return expression if replacement is None else replacement


def substitute(expression: Expression, mapping: Mapping[Expression, Expression]) -> Expression:
    """Replace every node equal to a mapping key, top-down.

    Matching is value equality; matched subtrees are not descended into,
    so an aggregate call mapped to a column reference is swapped atomically.
    """
    if expression in mapping:
        return mapping[expression]
    children = expression.children()
    if not children:
        return expression
    new_children = tuple(substitute(child, mapping) for child in children)
    if new_children == children:
        return expression
    return rebuild(expression, new_children)


def collect(expression: Expression, needle_type: type) -> list[Expression]:
    """All nodes of *needle_type* in pre-order."""
    found: list[Expression] = []
    if isinstance(expression, needle_type):
        found.append(expression)
        return found
    for child in expression.children():
        found.extend(collect(child, needle_type))
    return found
