"""Plan properties: order — and the only module that knows it.

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
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.algebra.operators import (
    Coalesce,
    Dedup,
    Difference,
    Join,
    Location,
    Operator,
    Project,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferM,
)

Order = tuple[str, ...]

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

#: Operators with no DBMS algorithm: the translator has no SQL for
#: coalescing (rule X1 supplies the middleware alternative).
_MIDDLEWARE_ONLY = (Coalesce,)


def needed_orders(node: Operator) -> tuple[Order, ...] | None:
    """The order *node*'s algorithm needs on each input, one per input
    (``()``: any order will do) — or None when no algorithm evaluates this
    operator at this location."""
    if node.location is _M:
        need = _NEEDS.get(type(node))
        if need is not None:
            return need(node)
    elif isinstance(node, _MIDDLEWARE_ONLY):
        return None
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
