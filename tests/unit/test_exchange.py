"""Unit tests for the partition-parallel exchange layer: range partition
specs, cut-point selection, the exchange cursor's concat reassembly,
backpressure, failure propagation, and the temp-name/drop races the
parallel engine depends on."""

import threading

import pytest

from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection
from repro.errors import ExecutionError
from repro.stats.collector import AttributeStats, RelationStats
from repro.stats.histogram import Histogram
from repro.xxl.cursor import GeneratorCursor, materialize
from repro.xxl.exchange import (
    ExchangeCursor,
    PartitionSpec,
    equal_count_cut_points,
    range_partition_spec,
)
from repro.xxl.sources import RelationCursor
from repro.xxl.transfer import TransferDCursor, unique_temp_name
from tests.conftest import IterableCursor

SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("V", AttrType.INT),
    ]
)


def rows_for(keys):
    return [(key, key * 10) for key in keys]


class TestPartitionSpec:
    def test_rejects_wrong_cut_point_count(self):
        with pytest.raises(ExecutionError):
            PartitionSpec("K", 3, (5.0,))

    def test_rejects_non_increasing_cut_points(self):
        with pytest.raises(ExecutionError):
            PartitionSpec("K", 3, (5.0, 5.0))

    def test_range_assign_uses_half_open_intervals(self):
        # A value belongs to the one partition whose predicate it passes.
        spec = PartitionSpec("K", 3, (10.0, 20.0))
        tests = [p.compile(Schema([Attribute("K")])) for p in spec.predicates()]

        def assign(value):
            (index,) = [i for i, test in enumerate(tests) if test((value,))]
            return index

        assert assign(9) == 0
        assert assign(10) == 1  # cut point belongs to the upper side
        assert assign(19) == 1
        assert assign(20) == 2
        assert assign(-100) == 0
        assert assign(10_000) == 2

    def test_bounds_open_at_the_extremes(self):
        spec = PartitionSpec("K", 3, (10.0, 20.0))
        assert spec.bounds(0) == (None, 10.0)
        assert spec.bounds(1) == (10.0, 20.0)
        assert spec.bounds(2) == (20.0, None)

    def test_predicates_cover_the_whole_value_space(self):
        spec = PartitionSpec("K", 3, (10.0, 20.0))

        def at_least(value):
            return Comparison(">=", col("K"), lit(value))

        def below(value):
            return Comparison("<", col("K"), lit(value))

        assert spec.predicates() == [
            below(10),
            at_least(10) & below(20),
            at_least(20),
        ]
        assert [p.to_sql() for p in spec.predicates()] == [
            "K < 10",
            "K >= 10 AND K < 20",
            "K >= 20",
        ]

    def test_single_partition_predicate_is_unbounded(self):
        spec = PartitionSpec("K", 1, ())
        assert spec.predicates() == [None]


class TestCutPoints:
    def test_uniform_histogram_splits_evenly(self):
        histogram = Histogram(bounds=(0.0, 10.0, 20.0, 30.0, 40.0),
                              counts=(10, 10, 10, 10))
        assert equal_count_cut_points(histogram, 4) == [10.0, 20.0, 30.0]

    def test_skewed_histogram_interpolates_within_buckets(self):
        # 90 of 100 values in [0, 10): the median lands inside bucket 0.
        histogram = Histogram(bounds=(0.0, 10.0, 20.0), counts=(90, 10))
        (point,) = equal_count_cut_points(histogram, 2)
        assert 0.0 < point < 10.0
        assert point == pytest.approx(50 / 90 * 10)

    def test_degenerate_inputs_yield_no_points(self):
        histogram = Histogram(bounds=(0.0, 1.0), counts=(0,))
        assert equal_count_cut_points(histogram, 4) == []


def stats_for(cardinality, distinct=100, histogram=None, bounds=(0.0, 100.0)):
    return RelationStats(
        cardinality=cardinality,
        avg_row_size=16,
        attributes={
            "k": AttributeStats(
                name="K",
                min_value=bounds[0],
                max_value=bounds[1],
                distinct=distinct,
                histogram=histogram,
            )
        },
    )


class TestRangePartitionSpec:
    def test_uniform_split_from_min_max(self):
        spec = range_partition_spec("K", stats_for(10_000), 4)
        assert spec is not None
        assert spec.degree == 4
        assert spec.cut_points == (25.0, 50.0, 75.0)

    def test_histogram_beats_min_max(self):
        histogram = Histogram(bounds=(0.0, 10.0, 100.0), counts=(900, 100))
        spec = range_partition_spec("K", stats_for(10_000, histogram=histogram), 2)
        assert spec is not None
        # The equal-count point sits in the dense low bucket, not at 50.
        assert spec.cut_points[0] < 10.0

    def test_small_inputs_stay_serial(self):
        assert range_partition_spec("K", stats_for(100), 4) is None

    def test_degree_capped_by_cardinality(self):
        spec = range_partition_spec("K", stats_for(300), 4, min_rows=128)
        assert spec is not None
        assert spec.degree == 2

    def test_degree_capped_by_distinct_values(self):
        spec = range_partition_spec("K", stats_for(10_000, distinct=2), 4)
        assert spec is not None and spec.degree == 2
        assert range_partition_spec("K", stats_for(10_000, distinct=1), 4) is None

    def test_constant_attribute_not_partitionable(self):
        assert (
            range_partition_spec("K", stats_for(10_000, bounds=(5.0, 5.0)), 4)
            is None
        )


class ClosableCursor(IterableCursor):
    """An IterableCursor that records whether it was closed."""

    def __init__(self, schema, rows):
        super().__init__(schema, rows)
        self.closed_count = 0

    def _close(self):
        self.closed_count += 1


class FailingCursor(GeneratorCursor):
    """Produces a few rows, then raises."""

    def __init__(self, schema, rows, error):
        super().__init__(schema)
        self._rows = list(rows)
        self._error = error

    def _generate(self):
        yield from self._rows
        raise self._error


class TestExchangeCursor:
    def test_concat_preserves_partition_order(self):
        pipelines = [
            IterableCursor(SCHEMA, rows_for(range(0, 10))),
            IterableCursor(SCHEMA, rows_for(range(10, 20))),
            IterableCursor(SCHEMA, rows_for(range(20, 30))),
        ]
        exchange = ExchangeCursor(pipelines, workers=2)
        assert materialize(exchange) == rows_for(range(30))

    def test_empty_partitions_still_publish_schema(self):
        exchange = ExchangeCursor(
            [IterableCursor(SCHEMA, []), IterableCursor(SCHEMA, [])],
            workers=2,
        )
        assert materialize(exchange) == []
        assert exchange.schema.names == ("K", "V")

    def test_fewer_workers_than_partitions_drains_in_order(self):
        # Two partitions that each outgrow a one-batch queue, one worker:
        # the consumer drains partition 0 before it asks for partition 1,
        # so the partition waiting for the thread blocks nobody.
        exchange = ExchangeCursor(
            [
                IterableCursor(SCHEMA, rows_for(range(0, 2000))),
                IterableCursor(SCHEMA, rows_for(range(2000, 4000))),
            ],
            workers=1,
            queue_batches=1,
        )
        assert materialize(exchange) == rows_for(range(4000))
        assert exchange.queue_full_stalls > 0

    def test_workers_capped_by_partitions(self):
        exchange = ExchangeCursor([IterableCursor(SCHEMA, [])], workers=8)
        assert exchange.workers == 1

    def test_needs_at_least_one_partition(self):
        with pytest.raises(ExecutionError):
            ExchangeCursor([], workers=2)

    def test_partition_error_reaches_the_consumer(self):
        boom = ValueError("partition exploded")
        pipelines = [
            IterableCursor(SCHEMA, rows_for(range(1000))),
            FailingCursor(SCHEMA, rows_for(range(3)), boom),
        ]
        exchange = ExchangeCursor(pipelines, workers=2)
        with pytest.raises(ValueError, match="partition exploded"):
            materialize(exchange)

    def test_failed_partition_cancels_siblings(self):
        # The sibling is unbounded; only cancellation lets close() return.
        def endless():
            value = 0
            while True:
                yield (value, value)
                value += 1

        pipelines = [
            IterableCursor(SCHEMA, endless()),
            FailingCursor(SCHEMA, [], RuntimeError("dead partition")),
        ]
        exchange = ExchangeCursor(pipelines, workers=2, queue_batches=1)
        exchange.init()
        with pytest.raises(RuntimeError, match="dead partition"):
            while exchange.next_batch():
                pass
        exchange.close()  # must join the endless producer, not hang

    def test_close_without_init_closes_pipelines(self):
        sources = [ClosableCursor(SCHEMA, []), ClosableCursor(SCHEMA, [])]
        exchange = ExchangeCursor(list(sources), workers=2)
        exchange.close()
        assert [source.closed_count for source in sources] == [1, 1]

    def test_efficiency_computed_at_close(self):
        exchange = ExchangeCursor(
            [IterableCursor(SCHEMA, rows_for(range(100)))], workers=1
        )
        materialize(exchange)
        assert 0.0 <= exchange.parallel_efficiency <= 1.0


class TestUniqueTempName:
    def test_contains_pid(self):
        import os

        assert f"_{os.getpid()}_" in unique_temp_name()

    def test_unique_across_threads(self):
        names: list[str] = []
        lock = threading.Lock()

        def grab():
            for _ in range(200):
                name = unique_temp_name()
                with lock:
                    names.append(name)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(names) == len(set(names))


class TestTempNameReuse:
    """A dropped temp table's name is issued again, so a rerun query sends
    the statements it sent before; a name whose drop failed never is."""

    def load(self, connection, prefix):
        source = RelationCursor(SCHEMA, rows_for(range(3)))
        return TransferDCursor(source, connection, unique_temp_name(prefix)).init()

    def test_a_dropped_name_is_issued_again(self):
        connection = Connection(MiniDB())
        first, second = self.load(connection, "REUSE"), self.load(connection, "REUSE")
        assert first.table_name != second.table_name  # both live: no collision
        first.drop()
        assert unique_temp_name("REUSE") == first.table_name  # the lowest free slot
        assert unique_temp_name("REUSE") not in (first.table_name, second.table_name)

    def test_a_name_whose_drop_failed_is_not_issued_again(self):
        class FailingDrop(Connection):
            def drop_temp(self, table_name):
                raise RuntimeError("lost connection")

        transfer = self.load(FailingDrop(MiniDB()), "FAILED_DROP")
        with pytest.raises(RuntimeError):
            transfer.drop()
        later = [unique_temp_name("FAILED_DROP") for _ in range(3)]
        assert transfer.table_name not in later
        assert len(set(later)) == 3


class TestDropRace:
    def make_transfer(self, connection):
        source = RelationCursor(SCHEMA, rows_for(range(10)))
        return TransferDCursor(source, connection, unique_temp_name())

    def test_drop_is_idempotent(self):
        connection = Connection(MiniDB())
        transfer = self.make_transfer(connection).init()
        transfer.drop()
        transfer.drop()  # second drop is a no-op, not an error
        assert transfer.table_name not in connection.db.list_tables()

    def test_concurrent_drops_drop_exactly_once(self):
        connection = Connection(MiniDB())
        transfer = self.make_transfer(connection).init()
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def race():
            barrier.wait()
            try:
                transfer.drop()
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=race) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert transfer.table_name not in connection.db.list_tables()
