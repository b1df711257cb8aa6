"""Direct-path bulk loading — the DBMS side of ``TRANSFER^D``.

Section 3.2 describes the Oracle SQL*Loader optimizations TANGO relies on:
direct-path load (blocks written directly, bypassing the SQL engine), an
initial extent sized to the known data volume (one allocation), and no free
space reserved (the table is never updated).  :class:`DirectPathLoader`
models exactly that: one block write per filled block, one CPU step per row,
no per-row SQL overhead.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.algebra.schema import Schema
from repro.dbms.database import MiniDB
from repro.errors import CatalogError


class DirectPathLoader:
    """Bulk-loads rows into a fresh MiniDB table."""

    def __init__(self, db: MiniDB):
        self._db = db

    def load(
        self,
        table_name: str,
        schema: Schema,
        rows: Iterable[Sequence[object]],
        order: Sequence[str] = (),
        temporary: bool = True,
    ) -> int:
        """Create *table_name* and load *rows* into it.

        ``order`` declares the sort order the rows arrive in (recorded as the
        table's clustered order, so a later ``ORDER BY`` prefix of it is
        cheap).  Returns the number of rows loaded.
        """
        if self._db.has_table(table_name):
            raise CatalogError(
                f"direct-path load target {table_name!r} already exists"
            )
        table = self._db.create_table(table_name, schema, temporary=temporary)
        loaded = table.bulk_load(rows, order)
        # Direct path: write each filled block once; one CPU step per row
        # for buffer formatting.  No per-row SQL engine work.
        self._db.meter.charge_io(table.blocks)
        self._db.meter.charge_cpu(loaded)
        return loaded

    def create(self, table_name: str, schema: Schema, temporary: bool = True):
        """Create an empty load target for subsequent :meth:`append` calls."""
        if self._db.has_table(table_name):
            raise CatalogError(
                f"direct-path load target {table_name!r} already exists"
            )
        return self._db.create_table(table_name, schema, temporary=temporary)

    def append(
        self,
        table_name: str,
        schema: Schema,
        rows: Iterable[Sequence[object]],
        order: Sequence[str] = (),
    ) -> int:
        """Direct-path load one chunk into *table_name*, creating it first
        if needed.  Charges I/O only for the blocks the chunk newly fills,
        so a chunked load telescopes to the same cost as one-shot
        :meth:`load`.

        Atomic per chunk: if the load fails partway (a bad row, a faulting
        row iterable), rows the failed chunk already appended are rolled
        back before the error propagates — so retrying the same chunk
        cannot double-load its prefix.
        """
        if self._db.has_table(table_name):
            table = self._db.table(table_name)
        else:
            table = self.create(table_name, schema)
        blocks_before = table.blocks
        rows_before = table.cardinality
        try:
            loaded = table.bulk_load(rows, order)
        except BaseException:
            table.replace_rows(
                table.rows[:rows_before], changed=table.cardinality - rows_before
            )
            raise
        self._db.meter.charge_io(max(0, table.blocks - blocks_before))
        self._db.meter.charge_cpu(loaded)
        return loaded

    def unload(self, table_name: str) -> None:
        """Drop a previously loaded temporary table (end-of-query cleanup)."""
        self._db.drop_table(table_name, if_exists=True)
