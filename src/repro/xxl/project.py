"""Middleware projection — order preserving, duplicates kept."""

from __future__ import annotations

from typing import Sequence

from repro.algebra.expressions import Expression, col, compile_row
from repro.algebra.schema import Attribute, Schema
from repro.dbms.costmodel import CostMeter
from repro.xxl.cursor import Cursor


class ProjectCursor(Cursor):
    """Computes ``(name, expression)`` outputs per input row."""

    algorithm = "PROJECT^M"

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
        super().__init__(Schema([]), (input,))

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

    def _next_batch(self, n: int) -> list[tuple]:
        assert self._func is not None
        batch = self._input.next_batch(n)
        if self._meter is not None and batch:
            self._meter.charge_cpu(len(batch))
        return list(map(self._func, batch))

    def _close(self) -> None:
        self._input.close()
