"""Temporal coalescing — a Section 7 extension operator.

Merges value-equivalent tuples (equal on all non-period attributes) whose
periods overlap or are adjacent into maximal periods.  Vassilakis [24]
optimizes coalesce/selection sequences; introducing this operator into
TANGO's rule set is exactly the extension path Section 7 sketches.

The input must be sorted on the value attributes and ``T1`` (the same
discipline as ``TAGGR^M``), which makes coalescing a single linear pass.
"""

from __future__ import annotations

from typing import Iterator

from repro.dbms.costmodel import CostMeter
from repro.xxl.cursor import Cursor, GeneratorCursor


class CoalesceCursor(GeneratorCursor):
    """Coalesces an input sorted on (value attributes, T1)."""

    algorithm = "COAL^M"

    def __init__(
        self,
        input: Cursor,
        period: tuple[str, str] = ("T1", "T2"),
        meter: CostMeter | None = None,
    ):
        self._input = input
        self.period = period
        self._meter = meter
        super().__init__(input.schema, (input,))

    def _open(self) -> None:
        self._input.init()
        self.schema = self._input.schema
        super()._open()

    def _generate(self) -> Iterator[tuple]:
        schema = self.schema
        t1_pos = schema.index_of(self.period[0])
        t2_pos = schema.index_of(self.period[1])
        value_positions = [
            i for i in range(len(schema)) if i not in (t1_pos, t2_pos)
        ]

        def emit(values: tuple, start: int, end: int) -> tuple:
            row = [None] * len(schema)
            for position, value in zip(value_positions, values):
                row[position] = value
            row[t1_pos] = start
            row[t2_pos] = end
            return tuple(row)

        current_values: tuple | None = None
        start = end = 0
        for row in self._input.iter_batched():
            if self._meter is not None:
                self._meter.charge_cpu(1)
            values = tuple(row[p] for p in value_positions)
            row_start = row[t1_pos]
            row_end = row[t2_pos]
            if current_values is None:
                current_values, start, end = values, row_start, row_end
            elif values == current_values and row_start <= end:
                if row_end > end:
                    end = row_end
            else:
                yield emit(current_values, start, end)
                current_values, start, end = values, row_start, row_end
        if current_values is not None:
            yield emit(current_values, start, end)

    def _close(self) -> None:
        super()._close()
        self._input.close()
