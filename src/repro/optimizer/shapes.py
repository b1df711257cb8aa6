"""Query shapes: an initial plan with its literals taken out (DESIGN.md §12).

Phase 1 of the search, the rule closure of :mod:`repro.optimizer.rules`,
reads schemas, locations, orders and whether an operand *is* a
:class:`~repro.algebra.expressions.Literal` — never the value a literal
holds, never a statistic.  Queries that differ only in their literals
therefore explore to one memo, up to those literals.  :func:`abstract`
splits an initial plan into that *shape* and the :class:`Binding` that puts
its literals back; the optimizer explores a shape once and keeps the memo,
read-only, under :func:`key_of` the shape, while its extraction costs and
returns only bound trees.

The slot rule keeps what the memo deduplicates unchanged.  Literals that are
equal as expressions share a slot: the memo would have merged what they sit
in.  A literal equal to one of another Python type or spelling (``10``,
``10.0`` and ``TRUE``; ``0.0`` and ``-0.0``) stays in the shape as it is,
since one slot can give back only one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from typing import Callable, Iterator

from repro.algebra.expressions import ColumnRef, Expression, Literal
from repro.algebra.operators import Join, Operator, Project, Scan, Select
from repro.algebra.rewrite import collect, substitute
from repro.algebra.schema import Schema

#: What a literal's type is read against: nothing (it reads no column).
_NO_COLUMNS = Schema([])


@dataclass(frozen=True)
class Slot:
    """The value a shape holds where a query holds a literal: that
    literal's place in the query's binding."""

    index: int

    def __str__(self) -> str:
        return f"?{self.index}"


def _expressions(node: Operator) -> tuple[Expression, ...]:
    """The expressions *node* itself holds (not its inputs')."""
    if isinstance(node, Select):
        return (node.predicate,)
    if isinstance(node, Project):
        return tuple(expression for _, expression in node.outputs)
    if isinstance(node, Join) and node.residual is not None:
        return (node.residual,)
    return ()


def _rebuilt(
    node: Operator,
    inputs: tuple[Operator, ...] | None,
    fill: Callable[[Expression], Expression],
) -> Operator:
    """*node* over *inputs* (None: its own), its expressions passed through
    *fill*; *node* itself when neither changes anything."""
    changes: dict[str, object] = {}
    if isinstance(node, Select):
        predicate = fill(node.predicate)
        if predicate is not node.predicate:
            changes["predicate"] = predicate
    elif isinstance(node, Project):
        outputs = tuple([
            (name, e if isinstance(e, ColumnRef) else fill(e)) for name, e in node.outputs
        ])
        if any(new is not old for (_, new), (_, old) in zip(outputs, node.outputs)):
            changes["outputs"] = outputs
    elif isinstance(node, Join) and node.residual is not None:
        residual = fill(node.residual)
        if residual is not node.residual:
            changes["residual"] = residual
    copy = node
    if inputs is not None and any(map(is_not, inputs, node.inputs)):
        copy = node.with_inputs(*inputs)
    if changes:
        copy = copy.replaced(**changes)
    if copy is node:
        return node
    schema = node.__dict__.get("schema")
    if schema is not None:
        # A slot has its literal's type: the copy's schema is the node's.
        object.__setattr__(copy, "schema", schema)
    return copy


def _substituted(plan: Operator, fill: Callable[[Expression], Expression]) -> Operator:
    inputs = tuple([_substituted(child, fill) for child in plan.inputs])
    return _rebuilt(plan, inputs, fill)


class Binding:
    """The literals one query puts into its shape's slots.

    Nodes and expressions are filled once each, keyed by identity: a kept
    memo's representatives share their subtrees, and its templates share
    their expressions.
    """

    def __init__(self, literals: dict[Expression, Expression]):
        #: Slot literal -> the query's literal.
        self.literals = literals
        self._trees: dict[int, Operator] = {}
        self._filled: dict[int, Expression] = {}

    def template(self, node: Operator) -> Operator:
        """*node* with its own slots filled, its inputs left as they are."""
        return _rebuilt(node, None, self._fill)

    def tree(self, node: Operator) -> Operator:
        """The tree under *node* with every slot filled; one without a slot
        comes back as itself."""
        bound = self._trees.get(id(node))
        if bound is None:
            inputs = tuple([self.tree(child) for child in node.inputs])
            bound = self._trees[id(node)] = _rebuilt(node, inputs, self._fill)
        return bound

    def _fill(self, expression: Expression) -> Expression:
        filled = self._filled.get(id(expression))
        if filled is None:
            filled = self._filled[id(expression)] = substitute(expression, self.literals)
        return filled


def literals(plan: Operator) -> Iterator[Literal]:
    """Every literal in *plan*'s expressions, in walk order."""
    for node in plan.walk():
        for expression in _expressions(node):
            yield from collect(expression, Literal)


def spelling(literal: Literal) -> tuple[type, str]:
    """What tells *literal* from an equal one: ``Literal(10)``,
    ``Literal(10.0)`` and ``Literal(True)`` are equal expressions, as are
    ``0.0`` and ``-0.0``, yet each is another constant."""
    return type(literal.value), repr(literal.value)


def abstract(plan: Operator) -> tuple[Operator, Binding | None]:
    """*plan*'s shape, and the binding that gives *plan* back — None when
    there is no literal to take out and the shape is *plan* itself."""
    spellings: dict[Expression, set[tuple[type, str]]] = {}
    for literal in literals(plan):
        spellings.setdefault(literal, set()).add(spelling(literal))
    slots: dict[Expression, Expression] = {}
    for literal, spelled in spellings.items():
        if len(spelled) == 1:
            slots[literal] = Literal(Slot(len(slots)), literal.result_type(_NO_COLUMNS))
    if not slots:
        return plan, None
    binding = Binding({slot: literal for literal, slot in slots.items()})
    return _substituted(plan, lambda expression: substitute(expression, slots)), binding


def key_of(shape: Operator) -> tuple:
    """Where *shape*'s explored memo is kept: its ``cache_key``, and the
    schema of every table it scans — a ``Scan`` names its table, and a
    table dropped and created again with other columns is another shape."""
    scanned = tuple([node.base_schema for node in shape.walk() if isinstance(node, Scan)])
    return shape.cache_key, scanned
