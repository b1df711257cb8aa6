"""Duplicate elimination — a Section 7 extension operator.

Two strategies:

* hash-based (default) — no input-order requirement; order preserving
  (first occurrence wins), at the price of a hash table of distinct rows;
* sorted — for inputs already sorted on all attributes, O(1) memory.
"""

from __future__ import annotations

from repro.dbms.costmodel import CostMeter
from repro.xxl.cursor import Cursor


class DedupCursor(Cursor):
    """Removes duplicate rows."""

    def __init__(
        self,
        input: Cursor,
        assume_sorted: bool = False,
        meter: CostMeter | None = None,
    ):
        super().__init__(input.schema)
        self._input = input
        self._assume_sorted = assume_sorted
        self._meter = meter
        self._seen: set[tuple] | None = None
        self._previous: tuple | None = None

    def _open(self) -> None:
        self._input.init()
        self.schema = self._input.schema
        self._seen = None if self._assume_sorted else set()
        self._previous = None

    def _next_batch(self, n: int) -> list[tuple]:
        out: list[tuple] = []
        meter = self._meter
        while len(out) < n:
            batch = self._input.next_batch(max(n, self.batch_size))
            if not batch:
                break
            if meter is not None:
                meter.charge_cpu(len(batch))
            if self._assume_sorted:
                previous = self._previous
                for row in batch:
                    if row != previous:
                        previous = row
                        out.append(row)
                self._previous = previous
            else:
                seen = self._seen
                assert seen is not None
                for row in batch:
                    if row not in seen:
                        seen.add(row)
                        out.append(row)
        return self._park_surplus(out, n)

    def _close(self) -> None:
        self._input.close()
        self._seen = None
