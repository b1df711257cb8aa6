"""Execution-ready plans: the Figure 5 algorithm sequence.

:func:`compile_plan` turns an optimized (and validated) operator tree into
an :class:`ExecutionPlan` — an ordered list of middleware algorithms where

* each maximal DBMS region below a ``T^M`` becomes one ``TRANSFER^M``
  (an SQL cursor, text produced by the Translator-To-SQL) — or, with
  ``TangoConfig.workers > 1``, an exchange over one SQL cursor per range
  partition of it, which stands in for that one cursor (see
  :meth:`_Compiler._partition_spec`);
* each ``T^D`` becomes a ``TRANSFER^D`` step that must be initialized
  *before* any ``TRANSFER^M`` whose SQL references its temp table (the
  dashed "algorithm sequence" arrows of Figure 5);
* middleware operators become their XXL cursors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.operators import (
    Location,
    Operator,
    Select,
    Sort,
    TransferD,
    TransferM,
)
from repro.algebra.properties import guaranteed_order
from repro.core.translator import BoundSQL, SQLTranslator
from repro.dbms.costmodel import CostMeter
from repro.errors import PlanError
from repro.optimizer.algorithms import algorithm_for
from repro.xxl import Cursor, ExchangeCursor, SQLCursor, TransferDCursor
from repro.xxl.exchange import PartitionSpec, range_partition_spec
from repro.xxl.sources import PooledSQLCursor
from repro.xxl.transfer import unique_temp_name


@dataclass
class ParallelContext:
    """What the compiler needs to fan a ``TRANSFER^M`` out."""

    #: Maximum partitions / producer threads (``TangoConfig.workers``).
    workers: int
    #: The Section 3.3 estimator supplying partition-point statistics.
    estimator: object
    #: Connection pool the per-partition ``TRANSFER^M`` cursors draw from.
    pool: object


@dataclass
class ExecutionPlan:
    """An ordered sequence of algorithm cursors; the last one is the output."""

    steps: list[Cursor] = field(default_factory=list)
    transfers_down: list[TransferDCursor] = field(default_factory=list)

    @property
    def output(self) -> Cursor:
        if not self.steps:
            raise PlanError("empty execution plan")
        return self.steps[-1]

    def describe(self) -> str:
        """Figure 5-style rendering: one line per algorithm, middleware
        pipelines indented under the step that drains them."""
        return "\n".join(line for step in self.steps for line in step.describe())

    def cleanup(self) -> None:
        """Drop every temp table this plan loaded."""
        for transfer in self.transfers_down:
            transfer.drop()


def compile_plan(
    plan: Operator,
    connection,
    meter: CostMeter | None = None,
    translator: SQLTranslator | None = None,
    retry=None,
    parallel=None,
) -> ExecutionPlan:
    """Compile an optimized operator tree into an :class:`ExecutionPlan`.

    *plan* must be middleware-rooted (every complete TANGO plan ends with
    the result in the middleware).  Every created cursor is stamped with
    the plan node it implements (a ``T^M``'s SQL cursor with the
    ``TransferM`` node covering its DBMS region) — what EXPLAIN ANALYZE and
    the feedback loops lay actuals against.  *retry* (a
    :class:`~repro.resilience.retry.RetryState`, the per-query retry
    budget) is handed to every transfer cursor so DBMS calls are retried
    under the configured policy.  *parallel* (a :class:`ParallelContext`,
    present only when ``TangoConfig.workers > 1``) lets the compiler fan
    each eligible ``TRANSFER^M`` out across an exchange; without it the
    compiled plan is byte-for-byte the serial one.
    """
    if plan.location is not Location.MIDDLEWARE:
        raise PlanError(
            "execution plans must deliver their result to the middleware; "
            "wrap the tree in a T^M"
        )
    compiler = _Compiler(
        connection,
        meter,
        translator or SQLTranslator(),
        retry,
        parallel,
    )
    root = compiler.build(plan)
    return ExecutionPlan(
        steps=compiler.steps + [root],
        transfers_down=compiler.transfers_down,
    )


class _Compiler:
    def __init__(
        self,
        connection,
        meter: CostMeter | None,
        translator: SQLTranslator,
        retry=None,
        parallel=None,
    ):
        self._connection = connection
        self._meter = meter
        self._translator = translator
        self._retry = retry
        self._parallel = parallel
        #: Steps that must be initialized before the output cursor, in order.
        self.steps: list[Cursor] = []
        self.transfers_down: list[TransferDCursor] = []
        #: id(TransferD node) -> temp table name, for the translator.
        self._temp_names: dict[int, str] = {}

    def _register(self, cursor: Cursor, node: Operator) -> Cursor:
        cursor.node = node
        return cursor

    def build(self, node: Operator) -> Cursor:
        """Cursor for a middleware-located operator: its algorithm over its
        inputs' cursors, opened as its row says."""
        if isinstance(node, TransferM):
            return self._register(self._build_transfer_m(node), node)
        inputs = [self.build(child) for child in node.inputs]
        row = algorithm_for(node)
        if row.parameters is None:  # backstop: ``validate_plan`` refuses these
            raise PlanError(
                f"{row.name} cannot run in a middleware pipeline (expected a "
                "T^M boundary below it)"
            )
        return self._register(row.open(node, inputs, self._meter), node)

    def _build_transfer_m(self, node: TransferM) -> Cursor:
        """One TRANSFER^M step covering the DBMS region below *node*.

        Any ``T^D`` nodes inside the region are compiled first (their
        middleware pipelines become earlier steps), and their temp-table
        names are substituted into the SQL.  Fanned out, the step is an
        exchange over one pooled SQL cursor per range partition, each
        stamped with *node* like the serial cursor.
        """
        self._prepare_transfers_down(node.input)
        spec = self._partition_spec(node)
        if spec is None:
            bound = self._translator.translate_bound(node.input, self._temp_names)
            return SQLCursor(
                self._connection, bound.sql, retry=self._retry, binds=bound.binds
            )
        partitions = [
            self._register(
                PooledSQLCursor(
                    self._parallel.pool, bound.sql, retry=self._retry, binds=bound.binds
                ),
                node,
            )
            for bound in self._partition_sqls(node, spec)
        ]
        return ExchangeCursor(partitions, self._parallel.workers)

    def _partition_spec(self, node: TransferM) -> PartitionSpec | None:
        """Range partitions for *node*, or None to fetch it serially.

        A ``TRANSFER^M`` fans out when it delivers an order and no ``T^D``
        feeds its region: partitions on the order's leading attribute, each
        sorted under the same sort, concatenate in cut order to the serial
        stream, so whatever runs above it cannot tell.  The statistics then
        cap the degree (:func:`~repro.xxl.exchange.range_partition_spec`);
        missing statistics mean "stay serial", never a wrong plan.
        """
        if self._parallel is None:
            return None
        delivered = guaranteed_order(node)
        if not delivered or not node.schema.has(delivered[0]):
            return None
        if any(isinstance(inner, TransferD) for inner in node.input.walk()):
            return None
        try:
            stats = self._parallel.estimator.estimate(node.input)
        except Exception:  # noqa: BLE001 - missing stats means "stay serial"
            return None
        return range_partition_spec(delivered[0], stats, self._parallel.workers)

    def _partition_sqls(self, transfer: TransferM, spec) -> list[BoundSQL]:
        """Per-partition SQL for a fanned-out ``TRANSFER^M``: each range is
        selected *under* the top-most sort, so every partition arrives in
        delivered order and concatenation reproduces the global order.  The
        range bounds are binds, like every other literal."""
        region = transfer.input
        body = region.input if isinstance(region, Sort) else region
        sqls = []
        for predicate in spec.predicates():
            part = body if predicate is None else Select(body, Location.DBMS, predicate)
            if body is not region:
                part = region.with_inputs(part)
            sqls.append(self._translator.translate_bound(part, self._temp_names))
        return sqls

    def _prepare_transfers_down(self, node: Operator) -> None:
        if isinstance(node, TransferD):
            if id(node) not in self._temp_names:
                table_name = unique_temp_name()
                self._temp_names[id(node)] = table_name
                inner = self.build(node.input)
                transfer = TransferDCursor(
                    inner,
                    self._connection,
                    table_name,
                    order=tuple(guaranteed_order(node.input)),
                    retry=self._retry,
                )
                self._register(transfer, node)
                self.steps.append(transfer)
                self.transfers_down.append(transfer)
            return
        for child in node.inputs:
            self._prepare_transfers_down(child)
