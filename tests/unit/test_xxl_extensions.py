"""Unit tests for the Section 7 extension operators: duplicate
elimination, coalescing, and difference — plus TRANSFER^D."""

import pytest

from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection
from repro.errors import ExecutionError
from repro.xxl.coalesce import CoalesceCursor
from repro.xxl.cursor import materialize
from repro.xxl.dedup import DedupCursor
from repro.xxl.difference import DifferenceCursor
from repro.xxl.sources import RelationCursor
from repro.xxl.transfer import TransferDCursor, unique_temp_name

SCHEMA = Schema([Attribute("K"), Attribute("V")])

TEMPORAL = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)


class TestDedup:
    def test_hash_dedup_keeps_first(self):
        rows = [(1, "a"), (2, "b"), (1, "a")]
        assert materialize(DedupCursor(RelationCursor(SCHEMA, rows))) == [
            (1, "a"), (2, "b"),
        ]

    def test_order_preserved(self):
        rows = [(3, "x"), (1, "y"), (3, "x"), (2, "z")]
        assert materialize(DedupCursor(RelationCursor(SCHEMA, rows))) == [
            (3, "x"), (1, "y"), (2, "z"),
        ]


class TestCoalesce:
    def run(self, rows):
        return materialize(CoalesceCursor(RelationCursor(TEMPORAL, rows)))

    def test_merges_overlapping(self):
        assert self.run([(1, 0, 5), (1, 3, 9)]) == [(1, 0, 9)]

    def test_merges_adjacent(self):
        assert self.run([(1, 0, 5), (1, 5, 9)]) == [(1, 0, 9)]

    def test_keeps_gaps(self):
        assert self.run([(1, 0, 3), (1, 5, 9)]) == [(1, 0, 3), (1, 5, 9)]

    def test_respects_value_equivalence(self):
        assert self.run([(1, 0, 5), (2, 3, 9)]) == [(1, 0, 5), (2, 3, 9)]

    def test_chain_of_three(self):
        assert self.run([(1, 0, 4), (1, 4, 8), (1, 8, 12)]) == [(1, 0, 12)]

    def test_contained_period_absorbed(self):
        assert self.run([(1, 0, 10), (1, 2, 5)]) == [(1, 0, 10)]


class TestDifference:
    def run(self, left_rows, right_rows):
        return materialize(
            DifferenceCursor(
                RelationCursor(SCHEMA, left_rows), RelationCursor(SCHEMA, right_rows)
            )
        )

    def test_multiset_semantics(self):
        left = [(1, "a"), (1, "a"), (2, "b")]
        right = [(1, "a")]
        assert self.run(left, right) == [(1, "a"), (2, "b")]

    def test_removes_all_matching_copies(self):
        left = [(1, "a"), (1, "a")]
        right = [(1, "a"), (1, "a"), (1, "a")]
        assert self.run(left, right) == []

    def test_left_order_preserved(self):
        left = [(3, "c"), (1, "a"), (2, "b")]
        assert self.run(left, [(1, "a")]) == [(3, "c"), (2, "b")]

    def test_arity_mismatch_rejected(self):
        narrow = Schema([Attribute("K")])
        cursor = DifferenceCursor(
            RelationCursor(SCHEMA, []), RelationCursor(narrow, [])
        )
        with pytest.raises(ExecutionError):
            cursor.init()


class TestTransferD:
    def test_loads_on_init_and_produces_no_rows(self):
        db = MiniDB()
        connection = Connection(db)
        cursor = TransferDCursor(
            RelationCursor(SCHEMA, [(1, "a"), (2, "b")]), connection, "TMP_X"
        )
        assert materialize(cursor) == []
        assert db.table("TMP_X").cardinality == 2
        assert cursor.rows_loaded == 2

    def test_clustered_order_recorded(self):
        db = MiniDB()
        connection = Connection(db)
        cursor = TransferDCursor(
            RelationCursor(SCHEMA, [(1, "a")]), connection, "TMP_Y", order=("K",)
        )
        cursor.init()
        assert db.table("TMP_Y").clustered_order == ("K",)

    def test_drop(self):
        db = MiniDB()
        connection = Connection(db)
        cursor = TransferDCursor(RelationCursor(SCHEMA, []), connection, "TMP_Z")
        cursor.init()
        cursor.drop()
        assert not db.has_table("TMP_Z")

    def test_unique_temp_names(self):
        assert unique_temp_name() != unique_temp_name()
