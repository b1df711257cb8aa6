"""Unit tests for heap-table storage and block accounting."""

import pytest

from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.costmodel import CostMeter
from repro.dbms.table import Table
from repro.errors import DatabaseError

SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)


def make_table(rows: int = 0) -> Table:
    table = Table("T", SCHEMA)
    table.bulk_load([(i, i, i + 10) for i in range(rows)])
    return table


class TestSizes:
    def test_empty_table_occupies_a_block(self):
        assert make_table().blocks == 1

    def test_cardinality(self):
        assert make_table(100).cardinality == 100

    def test_avg_row_size_from_schema(self):
        assert make_table().avg_row_size == 24

    def test_blocks_grow_with_rows(self):
        small = make_table(10)
        large = make_table(10_000)
        assert large.blocks > small.blocks

    def test_size_bytes(self):
        assert make_table(100).size_bytes == 100 * 24

    def test_rows_per_block_positive(self):
        assert make_table().rows_per_block() >= 1


class TestMutation:
    def test_append_checks_arity(self):
        with pytest.raises(DatabaseError):
            make_table().append((1, 2))

    def test_append_clears_clustered_order(self):
        table = Table("T", SCHEMA)
        table.bulk_load([(1, 1, 2)], order=("K",))
        assert table.clustered_order == ("K",)
        table.append((2, 3, 4))
        assert table.clustered_order == ()

    def test_bulk_load_returns_count(self):
        table = Table("T", SCHEMA)
        assert table.bulk_load([(1, 1, 2), (2, 2, 3)]) == 2

    def test_bulk_load_records_order(self):
        table = Table("T", SCHEMA)
        table.bulk_load([(1, 1, 2)], order=("K", "T1"))
        assert table.clustered_order == ("K", "T1")

    def test_bulk_load_checks_arity(self):
        table = Table("T", SCHEMA)
        with pytest.raises(DatabaseError):
            table.bulk_load([(1,)])

    def test_truncate(self):
        table = make_table(5)
        before = table.changes
        table.truncate()
        assert table.cardinality == 0
        assert table.changes - before == 5

    def test_replace_rows_is_a_counted_unordered_write(self):
        table = Table("T", SCHEMA)
        table.bulk_load([(1, 1, 2), (2, 2, 3)], order=("K",))
        before = table.changes
        rows = table.rows
        table.replace_rows([(2, 2, 3), (3, 3, 4)], changed=2)
        assert table.rows is rows  # in place, like the writers it replaced
        assert table.rows == [(2, 2, 3), (3, 3, 4)]
        assert table.clustered_order == ()
        assert table.changes - before == 2


class TestScan:
    def test_scan_yields_rows(self):
        table = make_table(3)
        assert list(table.scan()) == [(0, 0, 10), (1, 1, 11), (2, 2, 12)]

    def test_scan_charges_meter(self):
        table = make_table(1000)
        meter = CostMeter()
        list(table.scan(meter))
        assert meter.io == table.blocks
        assert meter.cpu == 1000

    def test_column_values(self):
        table = make_table(3)
        assert table.column_values("T1") == [0, 1, 2]
