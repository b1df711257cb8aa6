"""Compile-time partition planning for parallel execution.

Decides, per middleware pipeline, whether the compiled plan may run as an
exchange of *k* partitions (``TangoConfig.workers``) and how the rows
split.  The analysis is deliberately conservative — only unary middleware
pipelines over a single ``T^M`` region (no ``T^D`` inside, no joins)
partition, and only when an attribute exists that keeps both semantics and
delivered order intact.  Which algorithms may fan out, and what each pins
the partition attribute to, is the ``partition`` column of
:data:`repro.optimizer.algorithms.ALGORITHMS`; the walk here only follows
it down to the transfer.

Range cut points come from the Section 3.3 statistics (histogram
equal-count inversion) via :func:`repro.xxl.exchange.range_partition_spec`.
When anything is missing — statistics, a usable attribute, enough rows —
the answer is "stay serial", never a wrong plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.operators import Operator, TransferD, TransferM
from repro.algebra.properties import guaranteed_order
from repro.optimizer.algorithms import ALGORITHMS, ROW_LOCAL
from repro.xxl.exchange import (
    MIN_PARTITION_ROWS,
    PartitionSpec,
    range_partition_spec,
)


@dataclass
class ParallelContext:
    """Everything ``compile_plan`` needs to parallelize a pipeline."""

    #: Maximum partitions / producer threads (``TangoConfig.workers``).
    workers: int
    #: The Section 3.3 estimator supplying partition-point statistics.
    estimator: object | None = None
    #: Connection pool the per-partition ``TRANSFER^M`` cursors draw from.
    pool: object | None = None
    #: Estimated rows below which a partition is not worth its startup.
    min_partition_rows: int = field(default=MIN_PARTITION_ROWS)


def _contains_transfer_d(node: Operator) -> bool:
    if isinstance(node, TransferD):
        return True
    return any(_contains_transfer_d(child) for child in node.inputs)


def partitionable_pipeline(node: Operator) -> tuple[TransferM, str] | None:
    """``(transfer, attribute)`` when the middleware pipeline rooted at
    *node* may partition on *attribute*, else None."""
    attribute: str | None = None
    current = node
    while not isinstance(current, TransferM):
        row = ALGORITHMS.get((type(current), current.location))
        if row is None or row.partition is None:
            return None  # serial: joins, differences, anything in the DBMS
        if row.partition != ROW_LOCAL:
            pinned = row.pinned(current)
            if pinned is None:
                return None  # one global group cannot split
            if attribute is None:
                attribute = pinned
            elif attribute.lower() != pinned.lower():
                return None
        current = current.input
    if _contains_transfer_d(current.input):
        return None
    if attribute is None:
        delivered = guaranteed_order(current)
        if not delivered:
            return None
        attribute = delivered[0]
    if not current.schema.has(attribute):
        return None
    return current, attribute


def partition_spec_for(
    transfer: TransferM, attribute: str, context: ParallelContext
) -> PartitionSpec | None:
    """A :class:`PartitionSpec` for the region below *transfer*, or None
    when the statistics say partitioning will not pay off."""
    if context.estimator is None or context.workers < 2:
        return None
    try:
        stats = context.estimator.estimate(transfer.input)
    except Exception:  # noqa: BLE001 - missing stats means "stay serial"
        return None
    # Caps the degree by cardinality (and distinct values) itself.
    return range_partition_spec(
        attribute, stats, context.workers, min_rows=context.min_partition_rows
    )
