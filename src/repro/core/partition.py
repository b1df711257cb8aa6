"""Compile-time partition planning for parallel execution.

Decides, per middleware pipeline, whether the compiled plan may run as an
exchange of *k* partitions (``TangoConfig.workers``) and how the rows
split.  The analysis is deliberately conservative — only unary middleware
pipelines over a single ``T^M`` region (no ``T^D`` inside, no joins)
partition, and only when an attribute exists that keeps both semantics and
delivered order intact:

* a ``TAGGR^M`` pins the partition attribute to its leading group-by
  attribute, so every group lands wholly in one partition;
* a ``SORT^M`` pins it to its leading key, so concatenating range
  partitions in cut-point order reproduces the global sort;
* filters, projections, dedup, and coalescing pass the requirement
  through untouched (they are order preserving and row-local — duplicate
  and value-equivalent rows agree on the partition attribute, so they
  never straddle a partition boundary).

Range cut points come from the Section 3.3 statistics (histogram
equal-count inversion) via :func:`repro.xxl.exchange.range_partition_spec`.
When anything is missing — statistics, a usable attribute, enough rows —
the answer is "stay serial", never a wrong plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.operators import (
    Coalesce,
    Dedup,
    Operator,
    Project,
    Select,
    Sort,
    TemporalAggregate,
    TransferD,
    TransferM,
)
from repro.algebra.properties import guaranteed_order
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
    while True:
        if isinstance(current, TransferM):
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
        if isinstance(current, (Select, Project, Dedup, Coalesce)):
            current = current.input
            continue
        if isinstance(current, Sort):
            leading = current.keys[0]
            if attribute is None:
                attribute = leading
            elif attribute.lower() != leading.lower():
                return None
            current = current.input
            continue
        if isinstance(current, TemporalAggregate):
            if not current.group_by:
                return None  # one global group cannot split
            leading = current.group_by[0]
            if attribute is None:
                attribute = leading
            elif attribute.lower() != leading.lower():
                return None
            current = current.input
            continue
        return None  # joins, differences, DBMS-located nodes: stay serial


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
