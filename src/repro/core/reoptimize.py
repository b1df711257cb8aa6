"""Mid-query re-optimization at materialization points.

A ``TRANSFER^D`` is a natural re-optimization point: when its ``init``
returns, a prefix of the plan has been fully materialized into a DBMS
temp table, the *true* cardinality of that prefix is known (the cursor
counted every loaded row), and nothing downstream has started.  The
engine probes a callback right there; when the observed q-error exceeds
``TangoConfig.reoptimize_threshold`` the probe answers with a
:class:`ReoptimizationDecision` and the engine raises
:class:`ReoptimizationSignal` — keeping the completed temp tables alive
through its otherwise-unconditional teardown.

:func:`splice_completed` then rewrites the running plan for the
*remainder*: each completed ``TRANSFER^D`` subtree is replaced by a plain
:class:`~repro.algebra.operators.Scan` of its temp table (the collector
auto-ANALYZEs it, so the re-entered optimizer sees exact statistics), and
the optimizer re-runs under the original plan's order contract.  The
splice-point invariants are documented in DESIGN.md §9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.operators import Operator, Scan

#: Re-optimization rounds per query execution.  Each round pays one
#: optimizer run; past the cap the engine simply finishes the current
#: plan (estimates below completed materializations are exact by then, so
#: later rounds have sharply diminishing returns).
MAX_REOPTIMIZATIONS = 3


@dataclass(frozen=True)
class ReoptimizationDecision:
    """Why a materialization-point probe chose to re-optimize."""

    node: Operator
    estimated: float
    actual: float
    qerror: float


class ReoptimizationSignal(Exception):
    """Raised by the engine to unwind a run that will be re-planned.

    Control flow, not failure: deliberately *not* a
    :class:`~repro.errors.ReproError`, so no resilience layer (retry,
    fallback, health accounting) ever mistakes it for a DBMS error.
    Carries the probe's decision and the completed ``TRANSFER^D`` cursors
    whose temp tables survived teardown; the caller owns dropping them.
    """

    def __init__(self, decision: ReoptimizationDecision, completed: tuple):
        super().__init__(
            f"re-optimizing: observed {decision.actual:.0f} rows vs "
            f"{decision.estimated:.0f} estimated "
            f"(q-error {decision.qerror:.1f}) at {decision.node.describe()!r}"
        )
        self.decision = decision
        #: The completed TransferDCursor instances, in init order.
        self.completed = completed


def splice_completed(
    plan: Operator, replacements: dict[int, Scan]
) -> Operator:
    """The remainder plan: *plan* with each completed ``TRANSFER^D`` node
    (keyed by identity) replaced by the scan of its materialized table."""
    def rebuild(node: Operator) -> Operator:
        substitute = replacements.get(id(node))
        if substitute is not None:
            return substitute
        if not node.inputs:
            return node
        rebuilt = tuple(rebuild(child) for child in node.inputs)
        if all(new is old for new, old in zip(rebuilt, node.inputs)):
            return node
        return node.with_inputs(*rebuilt)

    return rebuild(plan)


def temp_scan(node: Operator, table_name: str) -> Scan:
    """The splice substitute for a completed ``TRANSFER^D`` *node*.

    A scan delivers no order — exactly what the ``T^D`` it replaces
    delivered (a freshly loaded table guarantees none) — so the re-entered
    optimizer re-derives any sorts it needs.
    """
    return Scan(table_name, node.schema)
