"""EXPLAIN ANALYZE: estimated-versus-actual, per operator.

:func:`build_report` joins three sources over one executed query:

* the optimizer's chosen plan (operator tree, node identities);
* the estimates — per-node cardinality from the
  :class:`~repro.stats.cardinality.CardinalityEstimator` and per-node cost
  from the :class:`~repro.optimizer.costs.PlanCoster`;
* the actuals — the execution span tree produced by
  :func:`repro.obs.instrument.execution_trace`, whose cursor spans carry
  the plan node their cursor was compiled from.

An estimate belongs to a plan *node*; a partitioned run compiles one cursor
per partition for it.  Each row keeps its own actual rows and times, while
the q-error lays the node's estimate against the sum over its cursors
(:func:`~repro.obs.instrument.cardinality_observations`, as the learner
does) — a quarter of the rows on each of four partitions is a right
estimate, not one four times off.

A ``TRANSFER^M`` row is costed for its whole DBMS region (the SQL the
cursor ships covers every operator below the ``T^M``, down to any ``T^D``
boundaries), because its measured time likewise includes the DBMS's work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.operators import Operator, TransferD, TransferM
from repro.obs.instrument import actual_rows, cardinality_observations
from repro.obs.tracing import Span
from repro.stats.fingerprint import qerror as _qerror


@dataclass
class OperatorMeasurement:
    """One row of the EXPLAIN ANALYZE table."""

    algorithm: str
    operator: str
    depth: int
    estimated_rows: float | None
    actual_rows: int
    estimated_cost_us: float | None
    #: Wall time inside this cursor minus time inside its children.
    actual_self_us: float | None
    #: Wall time inside this cursor including children (None untraced).
    actual_total_us: float | None
    #: Batches this cursor handed out (actual_rows / batches ≈ mean fill).
    batches: int | None = None
    #: Transient-fault retries this transfer spent (0/None = none).
    retries: int | None = None
    #: Producer threads of an exchange operator (None = not an exchange).
    workers: int | None = None
    #: q-error of the row estimate, ``max(est/act, act/est)`` (None when
    #: no estimate exists for this span).
    qerror: float | None = None

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "operator": self.operator,
            "depth": self.depth,
            "estimated_rows": self.estimated_rows,
            "actual_rows": self.actual_rows,
            "estimated_cost_us": self.estimated_cost_us,
            "actual_self_us": self.actual_self_us,
            "actual_total_us": self.actual_total_us,
            "batches": self.batches,
            "retries": self.retries,
            "workers": self.workers,
            "qerror": self.qerror,
        }


@dataclass
class ExplainAnalyzeReport:
    """Per-operator estimated-vs-actual table for one executed query."""

    operators: list[OperatorMeasurement]
    estimated_total_us: float
    actual_seconds: float
    result_rows: int
    trace: Span
    #: Optional headline above the table — e.g. a view refresh decision.
    banner: str | None = None

    def __iter__(self):
        return iter(self.operators)

    def __len__(self) -> int:
        return len(self.operators)

    def to_dict(self) -> dict:
        return {
            "operators": [measurement.to_dict() for measurement in self.operators],
            "estimated_total_us": self.estimated_total_us,
            "actual_seconds": self.actual_seconds,
            "result_rows": self.result_rows,
            "banner": self.banner,
            "trace": self.trace.to_dict(),
        }

    def __str__(self) -> str:
        header = (
            f"{'operator':<44} {'est rows':>10} {'act rows':>10} "
            f"{'q-err':>8} {'batches':>8} {'est us':>12} {'act us':>12}"
        )
        lines = [header, "-" * len(header)]
        if self.banner:
            lines.insert(0, self.banner)
        for m in self.operators:
            label = "  " * m.depth + m.algorithm
            if m.operator:
                label += f"  {m.operator}"
            # Markers survive truncation: trim the operator text first.
            markers = ""
            if m.retries:
                markers += f"  [retries={m.retries}]"
            if m.workers:
                markers += f"  [workers={m.workers}]"
            if len(label) + len(markers) > 44:
                label = label[: max(0, 41 - len(markers))] + "..."
            label += markers
            est_rows = f"{m.estimated_rows:.0f}" if m.estimated_rows is not None else "-"
            est_cost = (
                f"{m.estimated_cost_us:.1f}" if m.estimated_cost_us is not None else "-"
            )
            actual = f"{m.actual_self_us:.1f}" if m.actual_self_us is not None else "-"
            batches = str(m.batches) if m.batches is not None else "-"
            qerr = f"{m.qerror:.1f}" if m.qerror is not None else "-"
            lines.append(
                f"{label:<44} {est_rows:>10} {m.actual_rows:>10} "
                f"{qerr:>8} {batches:>8} {est_cost:>12} {actual:>12}"
            )
        summary = (
            f"estimated total: {self.estimated_total_us:.1f}us   "
            f"actual: {self.actual_seconds * 1e6:.1f}us   "
            f"rows: {self.result_rows}"
        )
        lines.append(summary)
        return "\n".join(lines)


def build_report(
    trace: Span,
    estimator,
    coster,
    estimated_total_us: float,
    result_rows: int,
) -> ExplainAnalyzeReport:
    """Assemble the report from an ``execute`` span tree.

    *estimator* and *coster* supply the estimates against which the actuals
    of the node-bearing cursor spans are laid.
    """
    measurements: list[OperatorMeasurement] = []
    node_rows = {id(node): rows for node, rows in cardinality_observations(trace)}

    def visit(span: Span, depth: int) -> None:
        if span.kind not in ("cursor", "transfer", "exchange"):
            for child in span.children:
                visit(child, depth)
            return
        node = span.node
        rows = actual_rows(span)
        estimated_rows = estimated_cost = error = None
        operator_label = ""
        if node is not None:
            estimated_rows = float(estimator.estimate(node).cardinality)
            estimated_cost = _estimated_cost(node, coster)
            operator_label = node.describe()
            error = _qerror(estimated_rows, node_rows[id(node)])
        actual_total = actual_self = None
        if span.seconds is not None:
            actual_total = span.elapsed_seconds * 1e6
            child_time = sum(
                child.elapsed_seconds
                for child in span.children
                if child.kind in ("cursor", "transfer", "exchange")
                and child.seconds is not None
            )
            actual_self = max(0.0, actual_total - child_time * 1e6)
        measurements.append(
            OperatorMeasurement(
                algorithm=span.name,
                operator=operator_label,
                depth=depth,
                estimated_rows=estimated_rows,
                actual_rows=rows,
                estimated_cost_us=estimated_cost,
                actual_self_us=actual_self,
                actual_total_us=actual_total,
                batches=span.attributes.get("batches"),
                retries=span.attributes.get("retries"),
                workers=span.attributes.get("workers"),
                qerror=error,
            )
        )
        for child in span.children:
            visit(child, depth + 1)

    visit(trace, 0)
    return ExplainAnalyzeReport(
        operators=measurements,
        estimated_total_us=estimated_total_us,
        actual_seconds=trace.elapsed_seconds,
        result_rows=result_rows,
        trace=trace,
    )


def _estimated_cost(node: Operator, coster) -> float:
    """Node cost — or, for a ``T^M``, the cost of its whole DBMS region."""
    if isinstance(node, TransferM):
        total = coster.node_cost(node)

        def add_region(inner: Operator) -> None:
            nonlocal total
            for child in inner.inputs:
                if isinstance(child, TransferD):
                    continue  # a separate TRANSFER^D step owns that subtree
                total += coster.node_cost(child)
                add_region(child)

        add_region(node)
        return total
    return coster.node_cost(node)
