"""The MiniDB facade: catalog, DDL/DML dispatch, and query entry point.

A :class:`MiniDB` owns tables, indexes, per-table statistics, the SELECTs
it has prepared, and one :class:`~repro.dbms.costmodel.CostMeter` that
accumulates all simulated work.
The middleware never touches this class directly — it goes through
:class:`repro.dbms.jdbc.Connection`, mirroring the paper's JDBC boundary —
but tests and workload generators use it freely.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import compress, count
from typing import Iterable, Sequence

from repro.algebra.expressions import Literal, compile_row
from repro.algebra.schema import Attribute, Schema
from repro.dbms.costmodel import CostMeter
from repro.dbms.indexes import Index
from repro.dbms.sql.ast import (
    AnalyzeStmt,
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    InsertSelectStmt,
    InsertValuesStmt,
    SelectStmt,
)
from repro.dbms.sql.executor import ResultSet
from repro.dbms.sql.parser import parse_statement
from repro.dbms.sql.planner import PreparedSelect, bind_types, plan_select, prepare_select
from repro.dbms.statistics import (
    DmlTracker,
    TableStatistics,
    analyze_table,
    scan_charge,
)
from repro.dbms.table import BLOCK_SIZE, Table
from repro.errors import CatalogError, DatabaseError
from repro.lru import LRUCache


#: Prepared SELECTs each MiniDB keeps, as Oracle's ``session_cached_cursors``
#: (default 50) keeps per session.
STATEMENT_CACHE_SIZE = 64


class MiniDB:
    """A single-user relational engine with an Oracle-flavoured catalog."""

    def __init__(self, block_size: int = BLOCK_SIZE):
        self.block_size = block_size
        self.meter = CostMeter()
        self._tables: dict[str, Table] = {}
        #: Per dropped name, where its next table's ``changes`` starts: past
        #: every contents version the dropped ones reached, so a version a
        #: learned cardinality or a view remembers never reads as fresh.
        self._dropped_changes: dict[str, int] = {}
        self._indexes: dict[str, Index] = {}
        self._statistics: dict[str, TableStatistics] = {}
        #: Moves, to a number never used before (``next`` on a ``count`` is
        #: atomic, so racing writers cannot undo a move), when statistics a
        #: plan may have been priced with are replaced or dropped, not at a
        #: first ANALYZE; every planner's epoch folds it in (DESIGN.md §13).
        self.statistics_version = 0
        self._versions = count(1)
        #: One tracker per table that ever took ``insert_rows`` /
        #: ``delete_rows`` (DESIGN.md §20); every other table is ANALYZEd
        #: from a scan and keeps nothing.
        self._dml: dict[str, DmlTracker] = {}
        #: SELECTs prepared against this catalog, by SQL text and the types
        #: of the values bound (DESIGN.md §23).
        self.prepared = LRUCache(STATEMENT_CACHE_SIZE)

    # -- catalog -----------------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def list_tables(self) -> list[str]:
        return sorted(table.name for table in self._tables.values())

    def schema_of(self, name: str) -> Schema:
        return self.table(name).schema

    def changes_of(self, tables: Iterable[str]) -> dict[str, int | None]:
        """Each of *tables*' ``Table.changes`` — the one version of its
        contents (DESIGN.md §13) — or ``None`` for a table that no longer
        exists."""
        return {name: getattr(self._tables.get(name.lower()), "changes", None) for name in tables}

    def statistics_of(self, name: str) -> TableStatistics | None:
        """Catalog statistics for *name*, or ``None`` before ANALYZE."""
        return self._statistics.get(name.lower())

    def indexes_on(self, name: str) -> list[Index]:
        table = self.table(name)
        return [index for index in self._indexes.values() if index.table is table]

    def find_index(self, table_name: str, column: str) -> Index | None:
        for index in self.indexes_on(table_name):
            if index.column.lower() == column.lower():
                return index
        return None

    # -- DDL / DML ----------------------------------------------------------------

    def create_table(
        self, name: str, schema: Schema, temporary: bool = False
    ) -> Table:
        if self.has_table(name):
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, schema, self.block_size, temporary)
        table.changes = self._dropped_changes.pop(name.lower(), 0)
        self._tables[name.lower()] = table
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"no such table {name!r}")
        table = self._tables.pop(key)
        self._dropped_changes[key] = table.changes + 1
        if self._statistics.pop(key, None) is not None:
            self.statistics_version = next(self._versions)
        self._dml.pop(key, None)
        for index_name in [
            index_name
            for index_name, index in self._indexes.items()
            if index.table is table
        ]:
            del self._indexes[index_name]

    def insert_rows(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        """Conventional-path insert; rebuilds indexes; returns rows inserted."""
        table = self.table(name)
        first = table.cardinality
        for row in rows:
            table.append(row)
            self.meter.charge_cpu(5)
        # Logged only once every row is in: a failed insert leaves
        # ``changes`` ahead of the log, so the next ANALYZE scans.
        self._tracker(table).inserted.extend(table.rows[first:])
        inserted = table.cardinality - first
        self.meter.charge_io(max(1, inserted // table.rows_per_block()))
        self.rebuild_indexes(table)
        return inserted

    def delete_rows(self, name: str, rows: Iterable[Sequence[object]]) -> list[tuple]:
        """Delete specific rows (multiset semantics); returns them as stored.

        Each requested row must match a stored row exactly (a row present
        twice must be requested twice to remove both copies).  The call is
        atomic: if any requested row is absent, nothing is deleted and a
        :class:`~repro.errors.DatabaseError` is raised — an update stream
        that has drifted from the table must fail loudly, not corrupt the
        statistics delta.
        """
        table = self.table(name)
        wanted = Counter(map(tuple, rows))
        if not wanted:
            return []
        # The rows nothing deletes — nearly all of them — cost one C-level
        # membership test each.
        stored = table.rows
        found: list[int] = []
        for index in compress(count(), map(wanted.__contains__, stored)):
            row = stored[index]
            if wanted[row]:
                wanted[row] -= 1
                found.append(index)
        missing = +wanted
        if missing:
            row, _count = next(iter(missing.items()))
            raise DatabaseError(
                f"DELETE of {len(missing)} distinct row(s) absent from "
                f"{table.name!r} (e.g. {row!r})"
            )
        removed = [stored[index] for index in found]
        kept: list[tuple] = []
        previous = 0
        for index in found:
            kept += stored[previous:index]
            previous = index + 1
        kept += stored[previous:]
        table.replace_rows(kept, changed=len(removed))
        self._tracker(table).deleted.extend(removed)
        self.meter.charge_io(table.blocks)
        self.meter.charge_cpu(table.cardinality + len(removed))
        self.rebuild_indexes(table)
        return removed

    def _tracker(self, table: Table) -> DmlTracker:
        return self._dml.setdefault(table.name.lower(), DmlTracker())

    def analyze(
        self,
        name: str,
        histogram_columns: tuple[str, ...] | str = "auto",
        histogram_buckets: int = 10,
    ) -> TableStatistics:
        """Oracle's ``ANALYZE TABLE ... COMPUTE STATISTICS``.

        A table that takes row-level DML is analyzed from its delta when
        every change since the last ANALYZE came through ``insert_rows`` /
        ``delete_rows`` and that is the cheaper way (DESIGN.md §20) — the
        statistics are ``==`` a scan's either way, and the meter is charged
        for the work done (``scan_charge`` / ``fold_charge``).
        """
        table = self.table(name)
        tracker = self._dml.get(name.lower())
        if tracker is None:
            statistics = analyze_table(table, histogram_columns, histogram_buckets)
            charge = scan_charge(table)
        else:
            statistics, charge = tracker.analyze(
                table, histogram_columns, histogram_buckets
            )
        for index in self.indexes_on(name):
            column = statistics.column(index.column)
            column.has_index = True
            column.index_clustered = index.clustered
        # Stored first: a planner that sees the new version reads them.
        replaced = name.lower() in self._statistics
        self._statistics[name.lower()] = statistics
        if replaced:
            self.statistics_version = next(self._versions)
        self.meter.charge_io(charge.io)
        self.meter.charge_cpu(charge.cpu)
        return statistics

    def create_index(
        self, index_name: str, table_name: str, column: str, clustered: bool = False
    ) -> Index:
        if index_name.lower() in self._indexes:
            raise CatalogError(f"index {index_name!r} already exists")
        table = self.table(table_name)
        index = Index(index_name, table, column, clustered)
        self._indexes[index_name.lower()] = index
        self.meter.charge_io(table.blocks)
        return index

    def rebuild_indexes(self, table: Table) -> None:
        for index in self._indexes.values():
            if index.table is table:
                index.rebuild()

    # -- statement execution ----------------------------------------------------------

    def execute(self, sql: str, binds: Sequence[object] = ()) -> ResultSet | int:
        """Execute one SQL statement, its ``?`` markers bound to *binds* in
        text order.

        A SELECT's plan is kept in :attr:`prepared` under the text and the
        binds' types, and taken from there, unparsed, while every table it
        reads has the schema and indexes it was prepared against; its
        :class:`ResultSet` says whether it was (``prepared``).  Any other
        statement is parsed and run once.  Neither parsing, preparing nor
        finding a plan charges a tick.  SELECTs return a result set;
        everything else returns an affected-row count (0 for DDL).
        """
        key = (sql, tuple(map(type, binds)))
        plan = self.prepared.get(key, partial(PreparedSelect.valid, db=self))
        if plan is not None:
            result = plan.execute(self, self.meter, binds)  # type: ignore[attr-defined]
            result.prepared = True
            return result
        statement = parse_statement(sql)
        if isinstance(statement, SelectStmt):
            plan = prepare_select(self, statement, bind_types(binds))
            self.prepared.put(key, plan)
            return plan.execute(self, self.meter, binds)
        if binds:
            raise DatabaseError("only a SELECT takes bind values")
        if isinstance(statement, CreateTableStmt):
            schema = Schema(
                Attribute(column.name, column.type, column.width)
                for column in statement.columns
            )
            self.create_table(statement.table, schema, statement.temporary)
            return 0
        if isinstance(statement, CreateIndexStmt):
            self.create_index(
                statement.index, statement.table, statement.column, statement.clustered
            )
            return 0
        if isinstance(statement, InsertValuesStmt):
            table = self.table(statement.table)
            rows = []
            empty = Schema([])
            for value_exprs in statement.rows:
                if len(value_exprs) != len(table.schema):
                    raise DatabaseError(
                        f"INSERT arity {len(value_exprs)} does not match "
                        f"{table.name}'s {len(table.schema)} columns"
                    )
                if all(isinstance(e, Literal) for e in value_exprs):
                    rows.append(tuple(e.value for e in value_exprs))
                else:
                    rows.append(compile_row(value_exprs, empty)(()))
            return self.insert_rows(statement.table, rows)
        if isinstance(statement, InsertSelectStmt):
            result = plan_select(self, statement.select, self.meter)
            return self.insert_rows(statement.table, result.fetchall())
        if isinstance(statement, DeleteStmt):
            table = self.table(statement.table)
            if statement.where is None:
                removed = table.cardinality
                table.truncate()
            else:
                predicate = statement.where.compile(table.schema)
                kept = [row for row in table.rows if not predicate(row)]
                removed = table.cardinality - len(kept)
                table.replace_rows(kept, changed=removed)
            self.meter.charge_io(table.blocks)
            self.meter.charge_cpu(table.cardinality + removed)
            self.rebuild_indexes(table)
            return removed
        if isinstance(statement, DropTableStmt):
            self.drop_table(statement.table, statement.if_exists)
            return 0
        if isinstance(statement, AnalyzeStmt):
            self.analyze(statement.table, statement.histogram_columns)
            return 0
        raise DatabaseError(f"unsupported statement {type(statement).__name__}")

    def query(self, sql: str) -> list[tuple]:
        """Convenience: execute a SELECT and return all rows."""
        result = self.execute(sql)
        if not isinstance(result, ResultSet):
            raise DatabaseError("query() requires a SELECT statement")
        return result.fetchall()
