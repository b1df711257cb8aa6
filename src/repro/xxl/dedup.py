"""Duplicate elimination — a Section 7 extension operator.

Hash-based: no input-order requirement, and order preserving (the first
occurrence wins), at the price of a hash table of distinct rows.
"""

from __future__ import annotations

from repro.dbms.costmodel import CostMeter
from repro.xxl.cursor import Cursor


class DedupCursor(Cursor):
    """Removes duplicate rows."""

    algorithm = "DEDUP^M"

    def __init__(
        self,
        input: Cursor,
        meter: CostMeter | None = None,
    ):
        super().__init__(input.schema, (input,))
        self._input = input
        self._meter = meter
        self._seen: set[tuple] | None = None

    def _open(self) -> None:
        self._input.init()
        self.schema = self._input.schema
        self._seen = set()

    def _next_batch(self) -> list[tuple]:
        # The first input batch that leaves a row it has not seen before.
        seen = self._seen
        assert seen is not None
        meter = self._meter
        while batch := self._input.next_batch():
            if meter is not None:
                meter.charge_cpu(len(batch))
            out = []
            for row in batch:
                if row not in seen:
                    seen.add(row)
                    out.append(row)
            if out:
                return out
        return []

    def _close(self) -> None:
        self._input.close()
        self._seen = None
