"""Plan properties: order and required columns — declared once, here.

Section 4 of the paper distinguishes *list* equivalence (equal as ordered
lists) from *multiset* equivalence (equal up to order).  Whether a plan's
delivered order can be relied upon depends on where it runs:

    "while the middleware algorithms are designed to be order preserving,
    this does not hold for the DBMS algorithms."

An (operator, location) pair names one algorithm, and everything the system
knows about order is two questions about that algorithm, answered here and
nowhere else:

* :func:`needed_orders` — what order must each input arrive in?
* :func:`delivered_order` — what order does the output have, given what the
  inputs deliver?

Both read the node's own fields and take input orders as *values*, so they
serve a memo template (whose inputs are placeholders) and a plan tree alike.
The extraction DP, :func:`~repro.optimizer.physical.validate_plan`, the rules
that move an operator into the middleware and the view evaluator all call
them; :func:`guaranteed_order` is the second one folded bottom-up over a
tree.  DESIGN.md §14 has the table in prose.

A third question has the same shape and the same home — what does each
operator *read* of its inputs when only some of its output columns are asked
for?  :func:`columns_read` answers it, for
:func:`~repro.algebra.pruning.prune_columns` (DESIGN.md §18).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.algebra.expressions import attributes_of
from repro.algebra.operators import (
    Coalesce,
    Dedup,
    Difference,
    Join,
    Location,
    Operator,
    Product,
    Project,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferD,
    TransferM,
)

Order = tuple[str, ...]
#: A set of lower-cased column names.
Columns = frozenset

_M, _D = Location.MIDDLEWARE, Location.DBMS


def is_prefix_of(candidate: Sequence[str], order: Sequence[str]) -> bool:
    """The paper's ``IsPrefixOf`` predicate, case-insensitive.

    >>> is_prefix_of(["PosID"], ["posid", "t1"])
    True
    >>> is_prefix_of(["T1"], ["posid", "t1"])
    False
    """
    if len(candidate) > len(order):
        return False
    return all(
        a.lower() == b.lower() for a, b in zip(candidate, order)
    )


# -- what each algorithm needs ------------------------------------------------------------


def _groups_then_start(node: TemporalAggregate) -> tuple[Order, ...]:
    return (tuple(node.group_by) + node.period[:1],)


def _join_attributes(node: Join | TemporalJoin) -> tuple[Order, ...]:
    return ((node.left_attr,), (node.right_attr,))


def _values_then_start(node: Coalesce) -> tuple[Order, ...]:
    period = {name.lower() for name in node.period}
    values = tuple(
        name for name in node.input.schema.names if name.lower() not in period
    )
    return (values + node.period[:1],)


#: operator -> the order its *middleware* algorithm needs on each input.  A
#: middleware algorithm not listed needs none, and no DBMS algorithm does:
#: SQL promises results, not how it gets them.
_NEEDS: dict[type, Callable[..., tuple[Order, ...]]] = {
    TemporalAggregate: _groups_then_start,
    Join: _join_attributes,
    TemporalJoin: _join_attributes,
    Coalesce: _values_then_start,
}


def needed_orders(node: Operator) -> tuple[Order, ...]:
    """The order *node*'s algorithm needs on each input, one per input
    (``()``: any order will do).  Whether the pair has an algorithm at all
    is not asked here but of ``optimizer.algorithms.ALGORITHMS``."""
    if node.location is _M:
        need = _NEEDS.get(type(node))
        if need is not None:
            return need(node)
    return ((),) * len(node.inputs)


# -- what each algorithm delivers ---------------------------------------------------------


def _first_input(node: Operator, inputs: Sequence[Order]) -> Order:
    return inputs[0]


def _through_projection(node: Project, inputs: Sequence[Order]) -> Order:
    # Order survives for the prefix of the input order whose columns pass
    # through — under the *output* name, since a renaming projection (e.g.
    # the compensation E2 adds when it commutes a join) moves the ordered
    # values to a different column.
    names = node.passthrough
    surviving: list[str] = []
    for attribute in inputs[0]:
        output_name = names.get(attribute.lower())
        if output_name is None:
            break
        surviving.append(output_name)
    return tuple(surviving)


def _up_to_period_end(node: Coalesce, inputs: Sequence[Order]) -> Order:
    # The single-pass algorithm emits each group at its first input row,
    # carrying that row's value attributes and T1; only the extended
    # endpoint T2 changes.
    t2 = node.period[1].lower()
    prefix: list[str] = []
    for key in inputs[0]:
        if key.lower() == t2:
            break
        prefix.append(key)
    return tuple(prefix)


#: operator -> the order its *middleware* algorithm delivers, given its
#: inputs' orders.  A middleware algorithm not listed delivers none, and so
#: does every DBMS algorithm but the sort (see :func:`delivered_order`).
_DELIVERS: dict[type, Callable[[Operator, Sequence[Order]], Order]] = {
    TransferM: _first_input,  # a cursor fetch keeps the order the DBMS produced
    Select: _first_input,
    Dedup: _first_input,  # hash-based: the first occurrence wins
    Difference: _first_input,  # streams its left input past a hash table
    Project: _through_projection,
    Sort: lambda node, inputs: node.keys,
    TemporalAggregate: lambda node, inputs: _groups_then_start(node)[0],
    Join: lambda node, inputs: (node.left_attr,),
    TemporalJoin: lambda node, inputs: (node.left_attr,),
    Coalesce: _up_to_period_end,
}

#: The operators whose middleware algorithm hands its first input's order on:
#: a requirement on their output becomes one on that input.
PASSES_ORDER_ON = tuple(
    operator
    for operator, rule in _DELIVERS.items()
    if rule in (_first_input, _through_projection)
)


def delivered_order(node: Operator, inputs: Sequence[Order]) -> Order:
    """The order downstream operators may rely on in *node*'s output when
    its inputs deliver the orders *inputs*.

    The DBMS is free to reorder at every step, so there only an explicit
    sort at the top (an ``ORDER BY`` once translated) delivers anything —
    a scan does not, however the table is clustered, and neither does the
    freshly loaded table of a ``T^D``.
    """
    if node.location is _D and not isinstance(node, Sort):
        return ()
    rule = _DELIVERS.get(type(node))
    return rule(node, inputs) if rule is not None else ()


def source_order(node: Operator, order: Order) -> Order:
    """*order*, given in *node*'s output names, in the names of its first
    input: the two differ across a projection, whose pass-through map is
    inverted and the order cut at the first column it computes."""
    if not isinstance(node, Project):
        return order
    source = {output.lower(): name for name, output in node.passthrough.items()}
    before: list[str] = []
    for name in order:
        if name.lower() not in source:
            break
        before.append(source[name.lower()])
    return tuple(before)


def guaranteed_order(plan: Operator) -> Order:
    """The delivered order of *plan* that downstream operators may rely on.

    Returns the order attribute list, or ``()`` when no order is guaranteed.
    """
    return delivered_order(plan, [guaranteed_order(child) for child in plan.inputs])


def satisfies_order(plan: Operator, required: Sequence[str]) -> bool:
    """True when *plan* reliably delivers at least the *required* order."""
    if not required:
        return True
    return is_prefix_of(required, guaranteed_order(plan))


# -- what each operator reads -------------------------------------------------------------


def _lowered(names: Sequence[str | None]) -> Columns:
    return frozenset(name.lower() for name in names if name is not None)


def _everything(node: Operator, asked: Columns) -> tuple[Columns, ...]:
    return tuple(_lowered(child.schema.names) for child in node.inputs)


def _groups_arguments_period(node: TemporalAggregate, asked: Columns) -> tuple[Columns, ...]:
    arguments = [aggregate.attribute for aggregate in node.aggregates]
    return (_lowered((*node.group_by, *arguments, *node.period)),)


def _traced_to_sides(node: Product | Join | TemporalJoin, asked: Columns) -> tuple[Columns, ...]:
    """The asked-for outputs traced to the side each comes from, plus what
    the join itself compares.  A right column that clashed with a taken name
    came out as ``name_k`` and keeps that name only while ``name``,
    ``name_2`` … ``name_{k-1}`` are still taken: those are read too, so that
    nothing above the join sees a column renamed."""
    # A temporal join reads the period on either side and passes on neither's.
    both = _lowered(node.period) if isinstance(node, TemporalJoin) else frozenset()
    # Output names pair off, in order, with the left columns then the right.
    sources = [
        (side, name.lower())
        for side, child in enumerate(node.inputs)
        for name in child.schema.names
        if name.lower() not in both
    ]
    origin = dict(zip((name.lower() for name in node.schema.names), sources))
    if isinstance(node, Join):
        asked = asked | attributes_of(node.residual)
    read: tuple[set[str], set[str]] = (set(), set())
    pending = list(asked - both)
    while pending:
        output = pending.pop()
        side, name = origin[output]
        if name not in read[side]:
            read[side].add(name)
            if name != output:
                pending.append(name)
                pending += [f"{name}_{k}" for k in range(2, int(output[len(name) + 1:]))]
    if not isinstance(node, Product):
        read[0].add(node.left_attr.lower())
        read[1].add(node.right_attr.lower())
    return both | read[0], both | read[1]


#: operator -> the columns it reads of each input when *asked* for some of
#: its output columns (all lower-cased; a strict subset is what lets a
#: projection be placed under it).  Location plays no part.
_READS: dict[type, Callable[[Operator, Columns], tuple[Columns, ...]]] = {
    Select: lambda node, asked: (asked | node.predicate.attributes(),),
    Sort: lambda node, asked: (asked | _lowered(node.keys),),
    # A projection computes every output whether or not it was asked for.
    Project: lambda node, asked: (attributes_of(*[e for _, e in node.outputs]),),
    TemporalAggregate: _groups_arguments_period,
    Product: _traced_to_sides,
    Join: _traced_to_sides,
    TemporalJoin: _traced_to_sides,
    # Dropping a column under these changes which rows are duplicates,
    # value-equivalent, or cancelled.
    Dedup: _everything,
    Coalesce: _everything,
    Difference: _everything,
    TransferM: lambda node, asked: (asked,),
    TransferD: lambda node, asked: (asked,),
}


def columns_read(node: Operator, asked: Columns) -> tuple[Columns, ...]:
    """The columns *node* reads of each input, one set per input, when the
    columns *asked* of its output are wanted.  An operator not listed is
    taken to read everything."""
    return _READS.get(type(node), _everything)(node, asked)
