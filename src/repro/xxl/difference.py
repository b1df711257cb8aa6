"""Multiset difference — a Section 7 extension operator.

``r1 - r2`` under multiset semantics: each row of ``r1`` is suppressed as
many times as it occurs in ``r2``.  Order preserving on the left input.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from repro.dbms.costmodel import CostMeter
from repro.errors import ExecutionError
from repro.xxl.cursor import Cursor, GeneratorCursor


class DifferenceCursor(GeneratorCursor):
    """Multiset difference of two union-compatible inputs."""

    algorithm = "DIFF^M"

    def __init__(self, left: Cursor, right: Cursor, meter: CostMeter | None = None):
        super().__init__(left.schema, (left, right))
        self._left = left
        self._right = right
        self._meter = meter
        self._suppress: Counter | None = None

    def _open(self) -> None:
        self._left.init()
        self._right.init()
        if len(self._left.schema) != len(self._right.schema):
            raise ExecutionError("difference arguments must be union-compatible")
        self.schema = self._left.schema
        self._suppress = Counter()
        for row in self._right.iter_batched(self.batch_size):
            self._suppress[row] += 1
            if self._meter is not None:
                self._meter.charge_cpu(1)
        super()._open()

    def _generate(self) -> Iterator[tuple]:
        suppress = self._suppress
        assert suppress is not None
        meter = self._meter
        for row in self._left.iter_batched(self.batch_size):
            if meter is not None:
                meter.charge_cpu(1)
            if suppress[row] > 0:
                suppress[row] -= 1
            else:
                yield row

    def _close(self) -> None:
        super()._close()
        self._suppress = None
        try:
            self._left.close()
        finally:
            self._right.close()
