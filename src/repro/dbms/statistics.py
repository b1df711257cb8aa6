"""Catalog statistics: what ``ANALYZE`` computes and the optimizer consumes.

The middleware "uses standard statistics: block counts, numbers of tuples,
and average tuple sizes for relations; minimum values, maximum values,
numbers of distinct values, histograms, and index availability for
attributes; and clusterings for indexes" (Section 3).  This module stores
exactly those, per table, inside MiniDB's catalog.

There is one derivation (DESIGN.md §20): a column's statistics are read
off the ascending list of its non-null values — :class:`SortedColumns`.
A full scan builds that form (:func:`analyze_table`); for a table that
takes row-level DML the catalog keeps it and folds the changed rows in
(:class:`DmlTracker`), so re-ANALYZE costs what the delta costs and yields
statistics ``==`` those a scan would have produced.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

from repro.dbms.costmodel import CostSnapshot
from repro.dbms.table import Table
from repro.errors import StatisticsError
from repro.stats.histogram import Histogram, build_height_balanced


@dataclass
class ColumnStatistics:
    """Per-attribute statistics."""

    name: str
    min_value: object | None = None
    max_value: object | None = None
    num_distinct: int = 0
    num_nulls: int = 0
    histogram: Histogram | None = None
    has_index: bool = False
    index_clustered: bool = False


@dataclass
class TableStatistics:
    """Per-relation statistics."""

    table: str
    cardinality: int = 0
    blocks: int = 0
    avg_row_size: int = 0
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    @property
    def size_bytes(self) -> int:
        """The paper's ``size(r)`` = cardinality × average tuple size."""
        return self.cardinality * self.avg_row_size

    def column(self, name: str) -> ColumnStatistics:
        try:
            return self.columns[name.lower()]
        except KeyError:
            raise StatisticsError(
                f"no statistics for column {name!r} of {self.table}; run ANALYZE"
            ) from None


class SortedColumns:
    """A table's columns in the form statistics are read off: per column
    (schema order) the ascending list of its non-null values, and how many
    distinct values that list holds.

    Minimum and maximum are the list's ends, the NULL count is the table's
    cardinality minus its length, and a height-balanced histogram is
    boundary arithmetic over its positions.  The distinct count is kept
    beside the list because a sorted list answers "does this value have an
    equal neighbour?" in one comparison — which is all an insert or a
    delete needs to keep the count exact.
    """

    def __init__(self, values: list[list], distinct: list[int]):
        self.values = values
        self.distinct = distinct

    @classmethod
    def scan(cls, table: Table) -> "SortedColumns":
        """Build the sorted form from a full scan of *table*."""
        values: list[list] = []
        distinct: list[int] = []
        for attribute in table.schema:
            present = [
                value
                for value in table.column_values(attribute.name)
                if value is not None
            ]
            try:
                present.sort()
            except TypeError as error:
                raise StatisticsError(
                    f"cannot ANALYZE {table.name}.{attribute.name}: its values "
                    f"are not mutually comparable ({error})"
                ) from None
            values.append(present)
            distinct.append(len(set(present)))
        return cls(values, distinct)

    def fold(self, inserted: Sequence[tuple], deleted: Sequence[tuple]) -> None:
        """Bring the sorted form up to date with rows *inserted* into and
        *deleted* from the table since it was built (multiset semantics).

        Inserts go first, so every delete finds its value whatever order
        the two happened in.  Raises :class:`TypeError` (a value that does
        not compare with the column's) or :class:`LookupError` (a deleted
        value the column does not hold) part-way through; the caller must
        then discard this object and rebuild from a scan.
        """
        for position, ordered in enumerate(self.values):
            distinct = self.distinct[position]
            for row in inserted:
                value = row[position]
                if value is None:
                    continue
                at = bisect_left(ordered, value)
                if at == len(ordered) or ordered[at] != value:
                    distinct += 1
                ordered.insert(at, value)
            for row in deleted:
                value = row[position]
                if value is None:
                    continue
                at = bisect_left(ordered, value)
                if at == len(ordered) or ordered[at] != value:
                    raise LookupError(f"deleted value {value!r} is not in the column")
                del ordered[at]
                # bisect_left found the first copy: what precedes is smaller.
                if at == len(ordered) or ordered[at] != value:
                    distinct -= 1
            self.distinct[position] = distinct

    def statistics(
        self, table: Table, wanted: set[str], histogram_buckets: int
    ) -> TableStatistics:
        """Derive *table*'s statistics; *wanted* names (lower-case) the
        columns that get a histogram if they are numeric."""
        stats = TableStatistics(
            table=table.name,
            cardinality=table.cardinality,
            blocks=table.blocks,
            avg_row_size=table.avg_row_size,
        )
        for attribute, ordered, distinct in zip(
            table.schema, self.values, self.distinct
        ):
            column = ColumnStatistics(
                name=attribute.name, num_nulls=table.cardinality - len(ordered)
            )
            if ordered:
                column.min_value = ordered[0]
                column.max_value = ordered[-1]
                column.num_distinct = distinct
                if (
                    attribute.type.is_numeric
                    and attribute.name.lower() in wanted
                    and len(ordered) > 1
                ):
                    column.histogram = build_height_balanced(
                        ordered, histogram_buckets, presorted=True
                    )
            stats.columns[attribute.name.lower()] = column
        return stats


def _histogram_selection(
    table: Table, histogram_columns: tuple[str, ...] | str
) -> set[str]:
    """Lower-case names of the columns ``histogram_columns`` selects."""
    if not isinstance(histogram_columns, str):
        return {name.lower() for name in histogram_columns}
    if histogram_columns == "auto":
        return {
            attribute.name.lower()
            for attribute in table.schema
            if attribute.type.is_numeric
        }
    if histogram_columns == "none":
        return set()
    raise StatisticsError(
        "histogram_columns must be 'auto', 'none', or a tuple of names"
    )


def analyze_table(
    table: Table,
    histogram_columns: tuple[str, ...] | str = "auto",
    histogram_buckets: int = 10,
) -> TableStatistics:
    """Compute :class:`TableStatistics` for *table* from a full scan.

    ``histogram_columns`` selects which columns get histograms:

    * ``"auto"`` — every numeric column (Oracle's ``FOR ALL COLUMNS``);
    * ``"none"`` — no histograms (the ablation the paper runs on Query 2);
    * a tuple of names — exactly those columns.
    """
    wanted = _histogram_selection(table, histogram_columns)
    return SortedColumns.scan(table).statistics(table, wanted, histogram_buckets)


def scan_charge(table: Table) -> CostSnapshot:
    """What the meter is charged for an ANALYZE fed by a scan: every block
    read, every value touched."""
    return CostSnapshot(table.blocks, table.cardinality * len(table.schema))


def fold_charge(table: Table, changed: int) -> CostSnapshot:
    """What the meter is charged for an ANALYZE folded from *changed* rows:
    each of their values placed by binary search, one catalog block written."""
    steps = math.ceil(math.log2(max(2, table.cardinality)))
    return CostSnapshot(1, changed * len(table.schema) * steps)


class DmlTracker:
    """What the catalog keeps for a table that takes row-level DML: its
    :class:`SortedColumns` as of the last ANALYZE, and the rows
    ``insert_rows`` / ``delete_rows`` changed since.

    The log covers the table's changes exactly when it is as long as the
    rows ``Table.changes`` advanced by since the last ANALYZE (``since``):
    every writer advances that counter, only those two log.  :meth:`analyze`
    folds only then; any disagreement (a bulk load, a truncate, SQL
    ``DELETE``, a view splice, an insert that failed half-way) means a
    rebuild from a scan, as does a fold that raises.  Of the two exact paths
    it takes the one the meter prices lower, so a delta that rivals the
    table in size (each folded value shifts the list it lands in) is
    scanned as well.
    """

    def __init__(self) -> None:
        self.columns: SortedColumns | None = None
        self.inserted: list[tuple] = []
        self.deleted: list[tuple] = []
        #: ``Table.changes`` as of the last ANALYZE (meaningless while
        #: ``columns`` is None: the next ANALYZE scans anyway).
        self.since = 0

    def analyze(
        self,
        table: Table,
        histogram_columns: tuple[str, ...] | str,
        histogram_buckets: int,
    ) -> tuple[TableStatistics, CostSnapshot]:
        """*table*'s statistics and what the meter owes for them.  On
        return the sorted columns match the table, the log is empty and
        ``since`` is the table's ``changes``; if this raises, the next call
        scans (the log then trails the counter, or the copy is gone).
        """
        wanted = _histogram_selection(table, histogram_columns)
        logged = len(self.inserted) + len(self.deleted)
        charge = fold_charge(table, logged)
        folded = False
        if (
            self.columns is not None
            and logged == table.changes - self.since
            and charge.ticks < scan_charge(table).ticks
        ):
            try:
                self.columns.fold(self.inserted, self.deleted)
                folded = True
            except (TypeError, LookupError):
                self.columns = None  # half-folded: never read again
        if not folded:
            self.columns = SortedColumns.scan(table)
            charge = scan_charge(table)
        self.inserted.clear()
        self.deleted.clear()
        statistics = self.columns.statistics(table, wanted, histogram_buckets)
        self.since = table.changes
        return statistics, charge
