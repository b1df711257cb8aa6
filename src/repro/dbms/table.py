"""Heap-table storage with block-level accounting.

Rows are plain tuples aligned with the table's :class:`~repro.algebra.schema.Schema`.
Block counts are derived from the average row width and the block size, and
every full-scan charges the cost meter accordingly — this is what makes
``size(r)`` (cardinality × average tuple size) the natural unit of the
paper's cost formulas.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.algebra.schema import Schema
from repro.dbms.costmodel import CostMeter
from repro.errors import DatabaseError

#: Default block size in bytes (Oracle's classic 8 KiB).
BLOCK_SIZE = 8192


class Table:
    """A heap table: a schema plus a row list.

    ``clustered_order`` records the order rows were bulk-loaded in, if any;
    an index created with ``cluster=True`` also sets it.  A clustered order
    is a *physical* fact used by statistics, not a guarantee the SQL layer
    exposes (SQL output order still requires ``ORDER BY``).
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        block_size: int = BLOCK_SIZE,
        temporary: bool = False,
    ):
        self.name = name
        self.schema = schema
        self.rows: list[tuple] = []
        self.block_size = block_size
        self.temporary = temporary
        self.clustered_order: tuple[str, ...] = ()
        #: Rows changed (inserted, deleted, or reloaded), the contents
        #: version: whoever remembers ``MiniDB.changes_of`` can tell whether
        #: anyone wrote since, and ANALYZE how many rows changed since it ran.
        self.changes = 0

    # -- size accounting -------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    @property
    def avg_row_size(self) -> int:
        return self.schema.row_width

    @property
    def size_bytes(self) -> int:
        return self.cardinality * self.avg_row_size

    @property
    def blocks(self) -> int:
        """Blocks occupied; at least one once the table exists."""
        return max(1, math.ceil(self.size_bytes / self.block_size))

    def rows_per_block(self) -> int:
        return max(1, self.block_size // max(1, self.avg_row_size))

    # -- data access -------------------------------------------------------------

    def append(self, row: Sequence[object]) -> None:
        """Insert one row (conventional-path insert)."""
        if len(row) != len(self.schema):
            raise DatabaseError(
                f"row arity {len(row)} does not match {self.name}'s schema "
                f"({len(self.schema)} columns)"
            )
        self.rows.append(tuple(row))
        self.clustered_order = ()
        self.changes += 1

    def bulk_load(self, rows: Iterable[Sequence[object]], order: Sequence[str] = ()) -> int:
        """Append many rows (direct-path load); returns the count loaded.

        ``order`` asserts the rows arrive sorted on those attributes, which
        is recorded as the clustered order (used by the optimizer to skip
        redundant sorts, paper rule T10).
        """
        loaded = 0
        width = len(self.schema)
        for row in rows:
            if len(row) != width:
                raise DatabaseError(
                    f"row arity {len(row)} does not match {self.name}'s schema"
                )
            self.rows.append(tuple(row))
            loaded += 1
        self.clustered_order = tuple(order)
        self.changes += loaded
        return loaded

    def scan(self, meter: CostMeter | None = None) -> list[tuple]:
        """Full scan, charging one I/O per block and one CPU step per row;
        returns the row list itself."""
        if meter is not None:
            meter.charge_io(self.blocks)
            meter.charge_cpu(self.cardinality)
        return self.rows

    def truncate(self) -> None:
        self.replace_rows([], changed=self.cardinality)

    def replace_rows(self, rows: list[tuple], changed: int) -> None:
        """Swap in *rows* as the whole contents — the one door for a writer
        that computed the new contents itself (a delete, a view's splice, a
        loader's rollback).  *changed* is how many rows the swap inserted,
        deleted or reloaded, positive whenever the contents differ: it
        advances ``changes``, which is how ANALYZE learns that its sorted
        copy no longer covers the table (DESIGN.md §20).
        """
        self.rows[:] = rows
        self.clustered_order = ()
        self.changes += changed

    def column_values(self, name: str) -> list:
        """All values of one column (used by ANALYZE)."""
        position = self.schema.index_of(name)
        return [row[position] for row in self.rows]

    def __repr__(self) -> str:
        return f"Table({self.name}, {self.cardinality} rows, {self.blocks} blocks)"
