"""Unit tests for ANALYZE-style catalog statistics."""

import pytest

from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.statistics import (
    DmlTracker,
    SortedColumns,
    analyze_table,
    fold_charge,
    scan_charge,
)
from repro.dbms.table import Table
from repro.errors import StatisticsError

SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("Name", AttrType.STR, 16),
        Attribute("T1", AttrType.DATE),
    ]
)


def loaded_table() -> Table:
    table = Table("T", SCHEMA)
    table.bulk_load([(i % 10, f"N{i % 3}", 100 + i) for i in range(50)])
    return table


class TestTableLevel:
    def test_cardinality_and_blocks(self):
        stats = analyze_table(loaded_table())
        assert stats.cardinality == 50
        assert stats.blocks >= 1
        assert stats.avg_row_size == SCHEMA.row_width

    def test_size_bytes_is_cardinality_times_width(self):
        stats = analyze_table(loaded_table())
        assert stats.size_bytes == 50 * SCHEMA.row_width


class TestColumnLevel:
    def test_min_max(self):
        stats = analyze_table(loaded_table())
        column = stats.column("T1")
        assert column.min_value == 100
        assert column.max_value == 149

    def test_distinct_counts(self):
        stats = analyze_table(loaded_table())
        assert stats.column("K").num_distinct == 10
        assert stats.column("Name").num_distinct == 3

    def test_case_insensitive_lookup(self):
        stats = analyze_table(loaded_table())
        assert stats.column("t1").name == "T1"

    def test_missing_column_raises(self):
        stats = analyze_table(loaded_table())
        with pytest.raises(StatisticsError):
            stats.column("Nope")


class TestHistogramSelection:
    def test_auto_builds_numeric_histograms(self):
        stats = analyze_table(loaded_table(), histogram_columns="auto")
        assert stats.column("K").histogram is not None
        assert stats.column("T1").histogram is not None
        assert stats.column("Name").histogram is None  # strings never

    def test_none_builds_no_histograms(self):
        stats = analyze_table(loaded_table(), histogram_columns="none")
        assert stats.column("K").histogram is None
        assert stats.column("T1").histogram is None

    def test_explicit_columns(self):
        stats = analyze_table(loaded_table(), histogram_columns=("T1",))
        assert stats.column("T1").histogram is not None
        assert stats.column("K").histogram is None

    def test_bad_mode_rejected(self):
        with pytest.raises(StatisticsError):
            analyze_table(loaded_table(), histogram_columns="some")

    def test_bucket_count_respected(self):
        stats = analyze_table(loaded_table(), histogram_buckets=5)
        assert stats.column("T1").histogram.num_buckets <= 5


class TestNulls:
    def test_null_counting(self):
        table = Table("T", SCHEMA)
        table.bulk_load([(1, "a", None), (2, "b", 5)])
        stats = analyze_table(table)
        column = stats.column("T1")
        assert column.num_nulls == 1
        assert column.min_value == 5

    def test_all_null_column(self):
        table = Table("T", SCHEMA)
        table.bulk_load([(1, "a", None)])
        stats = analyze_table(table)
        assert stats.column("T1").min_value is None
        assert stats.column("T1").num_distinct == 0


class TestIncomparableValues:
    def test_analyze_names_the_table_and_the_column(self):
        table = Table("T", SCHEMA)
        table.bulk_load([(1, "a", 5), ("x", "b", 6)])
        with pytest.raises(StatisticsError, match=r"T\.K\b.*comparable"):
            analyze_table(table)


def sorted_columns(rows) -> tuple[Table, SortedColumns]:
    table = Table("T", SCHEMA)
    table.bulk_load(rows)
    return table, SortedColumns.scan(table)


class TestSortedColumns:
    """The one form statistics are derived from, and its fold."""

    def test_scan_sorts_non_nulls_and_counts_distinct(self):
        _, columns = sorted_columns([(3, "b", None), (1, "a", 7), (3, None, 7)])
        assert columns.values == [[1, 3, 3], ["a", "b"], [7, 7]]
        assert columns.distinct == [2, 2, 1]

    def test_fold_equals_a_rescan(self):
        rows = [(i % 4, f"N{i % 3}", 100 + i // 2) for i in range(20)]
        table, columns = sorted_columns(rows)
        inserted = [(9, "N0", 100), (2, None, None), (2, "zz", 300)]
        deleted = [rows[0], rows[5], rows[5 + 12]]
        table.replace_rows(
            [row for row in rows if row not in deleted] + inserted, changed=6
        )
        columns.fold(inserted, deleted)
        rescanned = SortedColumns.scan(table)
        assert columns.values == rescanned.values
        assert columns.distinct == rescanned.distinct

    def test_distinct_moves_only_with_the_first_and_last_copy(self):
        _, columns = sorted_columns([(1, "a", 5), (1, "a", 5)])
        columns.fold([(1, "a", 5)], [])
        assert columns.distinct == [1, 1, 1]
        columns.fold([], [(1, "a", 5), (1, "a", 5)])
        assert columns.distinct == [1, 1, 1]
        columns.fold([(2, "b", 6)], [(1, "a", 5)])
        assert columns.values == [[2], ["b"], [6]]
        assert columns.distinct == [1, 1, 1]

    def test_a_row_deleted_before_it_was_inserted_folds(self):
        # delete_rows then insert_rows of the same row between two
        # ANALYZEs: inserts are folded first, so the order cannot matter.
        _, columns = sorted_columns([(1, "a", 5)])
        columns.fold([(2, "b", 6)], [(2, "b", 6)])
        assert columns.values == [[1], ["a"], [5]]

    def test_equal_int_and_float_are_one_value(self):
        _, columns = sorted_columns([(2, "a", 1)])
        columns.fold([(2.0, "a", 1)], [])
        assert columns.distinct[0] == 1
        columns.fold([], [(2, "a", 1)])
        assert columns.values[0] == [2] or columns.values[0] == [2.0]
        assert columns.distinct[0] == 1

    def test_deleting_an_absent_value_raises(self):
        _, columns = sorted_columns([(1, "a", 5)])
        with pytest.raises(LookupError):
            columns.fold([], [(2, "a", 5)])

    def test_an_incomparable_insert_raises(self):
        _, columns = sorted_columns([(1, "a", 5)])
        with pytest.raises(TypeError):
            columns.fold([("x", "a", 5)], [])


class TestDmlTracker:
    @staticmethod
    def tracked(rows: int) -> tuple[Table, DmlTracker]:
        table = Table("T", SCHEMA)
        table.bulk_load([(i, "a", i) for i in range(rows)])
        tracker = DmlTracker()
        stats, charge = tracker.analyze(table, "auto", 10)
        assert charge == scan_charge(table) and stats == analyze_table(table)
        assert tracker.since == table.changes
        return table, tracker

    def test_folds_only_when_the_log_covers_pending_delta(self, monkeypatch):
        table, tracker = self.tracked(10)
        table.append((10, "b", 10))
        tracker.inserted.append((10, "b", 10))
        monkeypatch.setattr(Table, "column_values", None)  # a scan would fail
        stats, charge = tracker.analyze(table, "auto", 10)
        assert charge == fold_charge(table, 1)
        monkeypatch.undo()
        assert stats == analyze_table(table)

        table.append((11, "c", 11))  # a writer that does not log
        stats, charge = tracker.analyze(table, "auto", 10)
        assert charge == scan_charge(table) and stats == analyze_table(table)

    def test_takes_the_path_the_meter_prices_lower(self):
        # 100 rows x 3 columns in one block: a scan is 1,300 ticks; a fold
        # is 1,000 + 21 per changed row, so 14 rows fold and 15 do not.
        for changed, folds in ((14, True), (15, False)):
            table, tracker = self.tracked(100 - changed)
            rows = [(-i, "b", -i) for i in range(changed)]
            for row in rows:
                table.append(row)
            tracker.inserted.extend(rows)
            assert (scan_charge(table).ticks, fold_charge(table, 1).ticks) == (1300, 1021)
            stats, charge = tracker.analyze(table, "auto", 10)
            assert (charge == fold_charge(table, changed)) == folds
            assert stats == analyze_table(table)

    def test_a_bad_histogram_mode_is_rejected_before_the_fold(self):
        table, tracker = self.tracked(10)
        table.append((2, "b", 2))
        tracker.inserted.append((2, "b", 2))
        with pytest.raises(StatisticsError):
            tracker.analyze(table, "some", 10)
        assert tracker.inserted == [(2, "b", 2)]
        stats, charge = tracker.analyze(table, "none", 10)
        assert charge == fold_charge(table, 1)
        assert stats == analyze_table(table, "none")
