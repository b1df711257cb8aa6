"""Unit tests for the Statistics Collector and middleware stats records."""

import pytest

from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection
from repro.stats.collector import AttributeStats, RelationStats, StatisticsCollector


@pytest.fixture
def connection():
    db = MiniDB()
    db.execute("CREATE TABLE T (K INT, Name VARCHAR(8), T1 DATE)")
    db.execute("INSERT INTO T VALUES (1, 'a', 100), (2, 'b', 200), (2, 'c', 300)")
    return Connection(db)


class TestRelationStats:
    def make(self) -> RelationStats:
        return RelationStats(
            cardinality=100,
            avg_row_size=40,
            blocks=1,
            attributes={
                "k": AttributeStats("K", 0, 9, 10),
            },
        )

    def test_size_is_cardinality_times_width(self):
        assert self.make().size == 4000

    def test_attribute_lookup(self):
        assert self.make().attribute("K").distinct == 10

    def test_unknown_attribute_pessimistic_default(self):
        stats = self.make().attribute("mystery")
        assert stats.distinct == 100  # assume all distinct

    def test_with_cardinality_scales_distinct(self):
        scaled = self.make().with_cardinality(5)
        assert scaled.cardinality == 5
        assert scaled.attribute("K").distinct == 5

    def test_with_cardinality_never_negative(self):
        assert self.make().with_cardinality(-3).cardinality == 0


class TestAttributeStats:
    def test_scaled_to_floor_of_one(self):
        scaled = AttributeStats("X", 0, 9, 10).scaled_to(3)
        assert scaled.distinct == 3


class TestCollector:
    def test_collects_from_analyzed_catalog(self, connection):
        connection.db.analyze("T")
        stats = StatisticsCollector(connection).collect("T")
        assert stats.cardinality == 3
        assert stats.attribute("K").distinct == 2
        assert stats.attribute("T1").min_value == 100

    def test_auto_analyze(self, connection):
        stats = StatisticsCollector(connection).collect("T")
        assert stats.cardinality == 3

    def test_caching(self, connection):
        collector = StatisticsCollector(connection)
        first = collector.collect("T")
        connection.db.execute("INSERT INTO T VALUES (9, 'z', 900)")
        assert collector.collect("T") is first  # stale by design

    def test_a_reanalyze_is_seen_without_a_refresh(self, connection):
        collector = StatisticsCollector(connection)
        collector.collect("T")
        connection.db.execute("INSERT INTO T VALUES (9, 'z', 900)")
        connection.db.analyze("T")
        assert collector.collect("T").cardinality == 4

    def test_string_minmax_not_numeric(self, connection):
        stats = StatisticsCollector(connection).collect("T")
        assert stats.attribute("Name").min_value is None

    def test_histogram_carried(self, connection):
        connection.db.analyze("T")
        stats = StatisticsCollector(connection).collect("T")
        assert stats.attribute("T1").histogram is not None
