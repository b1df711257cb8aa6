"""Ordered (B-tree-like) single-column indexes.

MiniDB indexes are sorted ``(key, row_position)`` arrays probed with
:mod:`bisect` — logarithmic lookups like a B-tree without the bookkeeping.
Index availability and clustering are recorded in the catalog statistics,
which is all the middleware optimizer reads (Section 3).
"""

from __future__ import annotations

import bisect

from repro.dbms.table import Table
from repro.errors import DatabaseError


class Index:
    """A sorted single-column index over a :class:`Table`."""

    def __init__(self, name: str, table: Table, column: str, clustered: bool = False):
        if not table.schema.has(column):
            raise DatabaseError(f"cannot index unknown column {column!r} of {table.name}")
        self.name = name
        self.table = table
        self.column = column
        self.clustered = clustered
        self._position = table.schema.index_of(column)
        self._keys: list = []
        self._row_ids: list[int] = []
        self.rebuild()

    def rebuild(self) -> None:
        """Re-sort the index after table mutations."""
        entries = sorted(
            (row[self._position], row_id) for row_id, row in enumerate(self.table.rows)
        )
        self._keys = [key for key, _ in entries]
        self._row_ids = [row_id for _, row_id in entries]

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def height(self) -> int:
        """Simulated B-tree height (for index-scan I/O charging)."""
        entries = max(2, len(self._keys))
        height = 1
        fanout = 200
        capacity = fanout
        while capacity < entries:
            capacity *= fanout
            height += 1
        return height

    # -- probes ------------------------------------------------------------------

    def matches(self, key: object) -> list[tuple]:
        """Rows with ``column == key``."""
        left = bisect.bisect_left(self._keys, key)
        right = bisect.bisect_right(self._keys, key)
        rows = self.table.rows
        return [rows[row_id] for row_id in self._row_ids[left:right]]

    def probe_charge(self, matched: int) -> tuple[int, int]:
        """``(io, cpu)`` of a probe finding *matched* rows: the descent, then
        one block fetch per row (per block of rows, clustered)."""
        if self.clustered:
            fetches = max(1, matched // self.table.rows_per_block())
        else:
            fetches = matched
        return self.height + fetches, matched
