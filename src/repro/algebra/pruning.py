"""Required-column pruning of the initial plan: ship only what is read.

Every plan the paper draws for Query 1 (Figures 4 and 7) projects ``PosID,
T1, T2`` before the transfer, and Figure 6 prices ``TRANSFER^M`` linearly in
``size(r)`` while a DBMS projection is free.  :func:`prune_columns` makes
the Section 3.1 initial plan say so: it walks the plan top-down carrying the
columns something above reads (:func:`~repro.algebra.properties.columns_read`)
and puts a narrowing ``Project^D`` on each base-table access that carries a
column nothing reads.  DESIGN.md §18.
"""

from __future__ import annotations

from repro.algebra.operators import Location, Operator, Project, Scan, Select
from repro.algebra.properties import Columns, columns_read


def prune_columns(plan: Operator) -> Operator:
    """*plan* with a ``Project^D`` (bare columns, schema order) on top of
    every base-table access — a ``Scan`` under the ``Select``\\ s pushed onto
    it — that delivers a column nothing above it reads, unless its parent is
    a projection already.  Nothing else is inserted and no node is edited: a
    plan with nothing to drop comes back as the same object.  The root's
    column names never change; were they to, *plan* is returned untouched.
    """
    names = plan.schema.names
    pruned = _prune(plan, frozenset(name.lower() for name in names), None)
    return pruned if pruned is plan or pruned.schema.names == names else plan


def is_base_access(node: Operator) -> bool:
    """A ``Scan`` under the (possibly zero) ``Select^D``\\ s pushed onto it."""
    while isinstance(node, Select) and node.location is Location.DBMS:
        node = node.input
    return isinstance(node, Scan)


def _prune(node: Operator, asked: Columns, parent: Operator | None) -> Operator:
    if is_base_access(node):
        names = node.schema.names
        kept = [name for name in names if name.lower() in asked]
        if isinstance(parent, Project) or not 0 < len(kept) < len(names):
            return node
        return Project.of_columns(node, kept)
    inputs = node.inputs
    pruned = [_prune(child, read, node) for child, read in zip(inputs, columns_read(node, asked))]
    if all(new is old for new, old in zip(pruned, inputs)):
        return node
    return node.with_inputs(*pruned)
