"""Physical plan validity.

A logical tree with locations *is* a physical plan in TANGO: each
(operator, location) pair names at most one algorithm — e.g. a
``TemporalAggregate`` at ``MIDDLEWARE`` is ``TAGGR^M``, at ``DBMS`` it is
the 50-line SQL rewrite ``TAGGR^D``.  What makes a plan *invalid* is

* a broken transfer structure (a middleware operator feeding a DBMS
  operator without a ``T^D`` in between, or vice versa), or
* an algorithm whose sorted-input prerequisite is not met: what each one
  needs (``TAGGR^M``: grouping attributes then T1; the sort-merge joins:
  the join attribute per side; ``COAL^M``: value attributes then T1 —
  Sections 4.1 and 7) must be a prefix of what its input is guaranteed to
  deliver.

:func:`validate_plan` checks both; needs and guarantees alike are read from
:mod:`repro.algebra.properties`, where the extraction DP reads them too.
"""

from __future__ import annotations

from repro.algebra.operators import Location, Operator, Scan, TransferD, TransferM
from repro.algebra.properties import guaranteed_order, needed_orders, satisfies_order
from repro.errors import PlanError
from repro.optimizer.algorithms import algorithm_for


class PlanValidityError(PlanError):
    """The plan cannot be executed as written."""


def algorithm_name(plan: Operator) -> str:
    """The executable algorithm a plan node denotes, paper notation."""
    return algorithm_for(plan).name


def validate_plan(plan: Operator) -> None:
    """Raise :class:`PlanValidityError` if *plan* is not executable."""
    for node in plan.walk():
        _check_locations(node)
        _check_order_prerequisites(node)


def _check_locations(node: Operator) -> None:
    if isinstance(node, Scan):
        return
    if isinstance(node, TransferM):
        _require(node, node.input.location is Location.DBMS,
                 "T^M input must reside in the DBMS")
        return
    if isinstance(node, TransferD):
        _require(node, node.input.location is Location.MIDDLEWARE,
                 "T^D input must reside in the middleware")
        return
    for child in node.inputs:
        if child.location is not node.location:
            _require(
                node,
                False,
                # Not the algorithm's name: ``Coalesce^D`` may stand here and has none.
                f"{node.label()} input resides in "
                f"{child.location.value}; a transfer operator is missing",
            )


def _check_order_prerequisites(node: Operator) -> None:
    # A node with no algorithm at all (``Coalesce^D``) passes: an initial plan
    # is a valid starting point before rule X1 has moved it, and the executor
    # refuses to compile one.
    needs = needed_orders(node)
    for position, (child, needed) in enumerate(zip(node.inputs, needs), start=1):
        if not satisfies_order(child, needed):
            _require(
                node,
                False,
                f"{algorithm_name(node)} needs input {position} sorted on "
                f"{needed}, got {guaranteed_order(child) or '()'}",
            )


def _require(node: Operator, condition: bool, message: str) -> None:
    if not condition:
        raise PlanValidityError(f"{message}\nat node:\n{node.pretty()}")
