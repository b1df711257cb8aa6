"""Execution-ready plans: the Figure 5 algorithm sequence.

:func:`compile_plan` turns an optimized (and validated) operator tree into
an :class:`ExecutionPlan` — an ordered list of middleware algorithms where

* each maximal DBMS region below a ``T^M`` becomes one ``TRANSFER^M``
  (an SQL cursor, text produced by the Translator-To-SQL);
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
from repro.xxl.sources import PooledSQLCursor
from repro.xxl.transfer import unique_temp_name


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
    under the configured policy.  *parallel* (a
    :class:`~repro.core.partition.ParallelContext`, present only when
    ``TangoConfig.workers > 1``) lets the compiler fan partitionable
    pipelines out across an exchange; without it the compiled plan is
    byte-for-byte the serial one.
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
    root = compiler.build_root(plan)
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

    def build_root(self, node: Operator) -> Cursor:
        """Cursor for the plan root — the one place parallelism applies.

        With a :class:`~repro.core.partition.ParallelContext` attached, a
        partitionable pipeline compiles into an exchange over per-partition
        pipelines; anything else (or any analysis/statistics bail-out)
        falls through to the plain serial :meth:`build`.
        """
        if self._parallel is not None:
            exchange = self._try_parallel(node)
            if exchange is not None:
                return exchange
        return self.build(node)

    def _try_parallel(self, root: Operator) -> Cursor | None:
        from repro.core.partition import (
            partitionable_pipeline,
            partition_spec_for,
        )

        found = partitionable_pipeline(root)
        if found is None or self._parallel.pool is None:
            return None
        transfer, attribute = found
        spec = partition_spec_for(transfer, attribute, self._parallel)
        if spec is None or spec.degree < 2:
            return None
        # TRANSFER^M fan-out: one SQL per partition range, each pulled over
        # its own pooled connection.  Cut-point order makes plain
        # concatenation reproduce the delivered sort order.
        self._prepare_transfers_down(transfer.input)
        leaves = [
            self._register(
                PooledSQLCursor(
                    self._parallel.pool, bound.sql, retry=self._retry, binds=bound.binds
                ),
                transfer,
            )
            for bound in self._partition_sqls(transfer, spec)
        ]
        pipelines = [
            self._build_partition_pipeline(root, transfer, leaf) for leaf in leaves
        ]
        return self._register(
            ExchangeCursor(pipelines, self._parallel.workers), root
        )

    def _build_partition_pipeline(
        self, node: Operator, transfer: TransferM, leaf: Cursor
    ) -> Cursor:
        """Clone the unary middleware chain above *transfer* onto *leaf*."""
        if node is transfer:
            return leaf
        return self._open(
            node, [self._build_partition_pipeline(node.input, transfer, leaf)]
        )

    def build(self, node: Operator) -> Cursor:
        """Cursor for a middleware-located operator."""
        if isinstance(node, TransferM):
            return self._register(self._build_transfer_m(node), node)
        return self._open(node, [self.build(child) for child in node.inputs])

    def _open(self, node: Operator, inputs: list[Cursor]) -> Cursor:
        """*node*'s algorithm over *inputs*, opened as its row says."""
        row = algorithm_for(node)
        if row.parameters is None:  # backstop: ``validate_plan`` refuses these
            raise PlanError(
                f"{row.name} cannot run in a middleware pipeline (expected a "
                "T^M boundary below it)"
            )
        return self._register(row.open(node, inputs, self._meter), node)

    def _build_transfer_m(self, node: TransferM) -> SQLCursor:
        """One TRANSFER^M step covering the DBMS region below *node*.

        Any ``T^D`` nodes inside the region are compiled first (their
        middleware pipelines become earlier steps), and their temp-table
        names are substituted into the SQL.
        """
        self._prepare_transfers_down(node.input)
        bound = self._translator.translate_bound(node.input, self._temp_names)
        return SQLCursor(self._connection, bound.sql, retry=self._retry, binds=bound.binds)

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
