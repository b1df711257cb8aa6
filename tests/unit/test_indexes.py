"""Unit tests for MiniDB's ordered indexes."""

import pytest

from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.indexes import Index
from repro.dbms.table import Table
from repro.errors import DatabaseError

SCHEMA = Schema([Attribute("K", AttrType.INT), Attribute("V", AttrType.INT)])


def make_index(rows, clustered=False):
    table = Table("T", SCHEMA)
    table.bulk_load(rows)
    return Index("IX", table, "K", clustered)


class TestConstruction:
    def test_unknown_column_rejected(self):
        table = Table("T", SCHEMA)
        with pytest.raises(DatabaseError):
            Index("IX", table, "Missing")

    def test_len(self):
        assert len(make_index([(1, 0), (2, 0)])) == 2

    def test_height_grows_slowly(self):
        small = make_index([(i, 0) for i in range(10)])
        large = make_index([(i, 0) for i in range(100_000)])
        assert small.height == 1
        assert large.height >= 2


class TestLookup:
    """A probe: the rows ``matches`` finds, priced by ``probe_charge``."""

    def test_equality(self):
        index = make_index([(3, 30), (1, 10), (3, 31), (2, 20)])
        assert sorted(index.matches(3)) == [(3, 30), (3, 31)]

    def test_miss(self):
        index = make_index([(1, 10)])
        assert index.matches(99) == []

    def test_charges_meter(self):
        index = make_index([(i % 5, i) for i in range(100)])
        io, cpu = index.probe_charge(len(index.matches(2)))
        assert io >= 1
        assert cpu == 20

    def test_clustered_charges_less_io(self):
        rows = [(i % 5, i) for i in range(5000)]
        unclustered, clustered = make_index(rows), make_index(rows, clustered=True)
        unclustered_io, _ = unclustered.probe_charge(len(unclustered.matches(2)))
        clustered_io, _ = clustered.probe_charge(len(clustered.matches(2)))
        assert clustered_io < unclustered_io


class TestRebuild:
    def test_rebuild_after_mutation(self):
        table = Table("T", SCHEMA)
        table.bulk_load([(1, 10)])
        index = Index("IX", table, "K")
        table.append((0, 0))
        index.rebuild()
        assert [index.matches(key) for key in (0, 1)] == [[(0, 0)], [(1, 10)]]
