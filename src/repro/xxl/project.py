"""Middleware projection — order preserving, duplicates kept."""

from __future__ import annotations

from typing import Sequence

from repro.algebra.expressions import ColumnRef, Expression, col, compile_row
from repro.algebra.schema import Attribute, Schema
from repro.dbms.costmodel import CostMeter
from repro.xxl.columnar import ColumnBatch, ColumnarUnsupported, compile_columnar
from repro.xxl.cursor import Cursor


class ProjectCursor(Cursor):
    """Computes ``(name, expression)`` outputs per input row."""

    def __init__(
        self,
        input: Cursor,
        outputs: Sequence[tuple[str, Expression]],
        meter: CostMeter | None = None,
    ):
        self._input = input
        self._outputs = tuple(outputs)
        #: The fused ``row -> output row`` function.
        self._func = None
        self._meter = meter
        #: Input positions when every output is a bare column reference —
        #: the zero-copy columnar case (pure slicing/renaming).
        self._positions: list[int] | None = None
        self._columnar_funcs: list | None = None
        super().__init__(Schema([]))

    @staticmethod
    def of_columns(
        input: Cursor, names: Sequence[str], meter: CostMeter | None = None
    ) -> "ProjectCursor":
        return ProjectCursor(input, [(name, col(name)) for name in names], meter)

    def _open(self) -> None:
        self._input.init()
        source = self._input.schema
        self.schema = Schema(
            Attribute(name, expression.result_type(source))
            for name, expression in self._outputs
        )
        self._func = compile_row([e for _, e in self._outputs], source)
        self._positions = None
        self._columnar_funcs = None
        if self.columnar != "off":
            if all(isinstance(e, ColumnRef) for _, e in self._outputs):
                self._positions = [
                    source.index_of(e.name) for _, e in self._outputs
                ]
            else:
                try:
                    self._columnar_funcs = [
                        compile_columnar(e, source, self.columnar)
                        for _, e in self._outputs
                    ]
                except ColumnarUnsupported:
                    self._columnar_funcs = None

    def _next(self) -> tuple:
        assert self._func is not None
        if not self._input.has_next():
            raise StopIteration
        row = self._input.next()
        if self._meter is not None:
            self._meter.charge_cpu(1)
        return self._func(row)

    def _next_batch(self, n: int) -> list[tuple]:
        if self._positions is not None or self._columnar_funcs is not None:
            batch = self._pull_columns(n)
            return batch.to_rows() if batch is not None else []
        return self._row_next_batch(n)

    def _row_next_batch(self, n: int) -> list[tuple]:
        assert self._func is not None
        batch = self._input.next_batch(n)
        if self._meter is not None and batch:
            self._meter.charge_cpu(len(batch))
        return list(map(self._func, batch))

    def _next_column_batch(self, n: int) -> ColumnBatch | None:
        if self._positions is None and self._columnar_funcs is None:
            rows = self._row_next_batch(n)
            if not rows:
                return None
            return ColumnBatch.from_rows(self.schema, rows, self._column_backend())
        batch = self._input.next_column_batch(n)
        if batch is None:
            return None
        if self._meter is not None:
            self._meter.charge_cpu(len(batch))
        if self._positions is not None:
            # Pure column slicing/renaming: shares column objects, no row
            # (or even column) materialization.
            return batch.project(self._positions, self.schema)
        try:
            columns = [func(batch) for func in self._columnar_funcs]
            return ColumnBatch(self.schema, columns, len(batch), batch.backend)
        except Exception:
            # Exact row semantics for the offending batch (errors raise at
            # the same row the row path would reach).
            self.columnar_fallbacks += 1
            rows = list(map(self._func, batch.to_rows()))
            return ColumnBatch.from_rows(self.schema, rows, batch.backend)

    def _close(self) -> None:
        self._input.close()
