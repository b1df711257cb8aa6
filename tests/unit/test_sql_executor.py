"""Unit tests for MiniDB's physical stages and their bills."""

from functools import partial

import pytest

from repro.algebra.expressions import Comparison, col, compile_block, lit
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.costmodel import CostMeter
from repro.dbms.sql.executor import (
    Concatenated,
    Distinct,
    Filtered,
    Limited,
    Listed,
    MergeJoined,
    NestedLooped,
    ResultSet,
    hash_group,
    sort_rows,
)
from repro.errors import ExecutionError

ONE = Schema([Attribute("X")])
PAIR = Schema([Attribute("K"), Attribute("V", AttrType.STR)])
OTHER = Schema([Attribute("K2"), Attribute("W", AttrType.STR)])


@pytest.fixture
def meter():
    return CostMeter()


def drained(stage, meter):
    return ResultSet(ONE, stage, meter).fetchall()


def merge(left, right, residual=None, output=None):
    output = output or [col("K"), col("V"), col("K2"), col("W")]
    conditions = [] if residual is None else [residual]
    kernel = compile_block("merge", output, conditions, PAIR, OTHER)
    return MergeJoined(left, right, 0, 0, kernel, projects=False)


class TestResultSet:
    def test_fetchall(self):
        schema = Schema([Attribute("X")])
        assert ResultSet(schema, [(1,), (2,)]).fetchall() == [(1,), (2,)]

    def test_generator_consumed_once(self, meter):
        schema = Schema([Attribute("X")])
        result = ResultSet(schema, iter([(1,)]))
        assert list(result) == [(1,)]
        with pytest.raises(ExecutionError):
            list(result)

    def test_column_names(self):
        schema = Schema([Attribute("A"), Attribute("B")])
        assert ResultSet(schema, []).column_names == ("A", "B")

    def test_the_whole_stage_is_billed_at_the_first_fetch(self, meter):
        rows = [(1,), (5,), (2,), (3,)]
        kernel = compile_block("rows", None, [Comparison(">", col("X"), lit(1))], ONE)
        test = Comparison(">", col("X"), lit(1)).compile
        result = ResultSet(ONE, Filtered(Listed(rows), kernel, [lambda: test(ONE)], False), meter)
        assert result.fetchmany(1) == [(5,)]
        assert meter.cpu == 4  # every row was offered to the filter
        assert result.fetchmany(2) == [(2,), (3,)]
        assert meter.cpu == 4
        assert result.fetchmany(1) == []
        assert meter.cpu == 4


def filtered(rows, kernel=None):
    """``SELECT X FROM rows WHERE X > 1``, projected: 1 per row offered to
    the filter and 1 per row made."""
    predicate = Comparison(">", col("X"), lit(1))
    kernel = kernel or compile_block("rows", [col("X")], [predicate], ONE)
    return Filtered(Listed(rows), kernel, [lambda: predicate.compile(ONE)], True)


#: Each a generator of the batches a fetch sequence returns, one fetch per
#: batch pulled, so the meter can be read between fetches.
FETCH_SEQUENCES = {
    "fetchmany(0) first": lambda r: (r.fetchmany(n) for n in (0, 1, 9)),
    "fetchall after a partial fetchmany": lambda r: (
        fetch() for fetch in (partial(r.fetchmany, 2), r.fetchall)
    ),
    "a fetch after the end": lambda r: (
        fetch() for fetch in (r.fetchall, partial(r.fetchmany, 1), r.fetchall)
    ),
    "iteration": lambda r: ([row] for row in r),
}


class TestBilledOnce:
    """A statement is billed exactly once, at its first fetch, whatever
    fetches follow."""

    ROWS = [(1,), (5,), (2,), (3,)]

    @pytest.mark.parametrize("sequence", sorted(FETCH_SEQUENCES))
    def test_every_fetch_sequence_pays_the_stage_once(self, meter, sequence):
        meters = []

        def fetched(batch):
            meters.append((meter.io, meter.cpu))
            return batch

        result = ResultSet(ONE, filtered(self.ROWS), meter)
        batches = [fetched(batch) for batch in FETCH_SEQUENCES[sequence](result)]
        assert [row for batch in batches for row in batch] == [(5,), (2,), (3,)]
        assert meters == [(0, 4 + 3)] * len(meters)

    def test_without_a_meter_the_stage_is_never_asked_its_charge(self):
        stage = filtered(self.ROWS)
        stage.charge = None  # calling it would raise
        result = ResultSet(ONE, stage)
        assert result.fetchmany(1) + result.fetchall() == [(5,), (2,), (3,)]

    def test_a_failed_first_fetch_bills_nothing_and_fails_again(self, meter):
        def failing(rows):
            raise ExecutionError("the kernel failed")

        result = ResultSet(ONE, filtered(self.ROWS, failing), meter)
        for _ in range(2):
            with pytest.raises(ExecutionError, match="kernel failed"):
                result.fetchmany(1)
            assert (meter.io, meter.cpu) == (0, 0)


class TestScalarPrimitives:
    def test_filter(self, meter):
        rows = [(1,), (2,), (3,)]
        predicate = Comparison(">", col("X"), lit(1))
        kernel = compile_block("rows", None, [predicate], ONE)
        stage = Filtered(Listed(rows), kernel, [lambda: predicate.compile(ONE)], False)
        assert drained(stage, meter) == [(2,), (3,)]
        assert meter.cpu == 3

    def test_project(self, meter):
        rows = [(1, "a")]
        kernel = compile_block("rows", [col("V"), col("K")], [], PAIR)
        assert drained(Filtered(Listed(rows), kernel, [], True), meter) == [("a", 1)]
        assert meter.cpu == 1

    def test_limit(self):
        assert Limited(Listed([(1,), (2,), (3,)]), 2).rows() == [(1,), (2,)]

    def test_distinct_preserves_first_occurrence_order(self, meter):
        rows = [(2,), (1,), (2,), (3,), (1,)]
        assert drained(Distinct(Listed(rows)), meter) == [(2,), (1,), (3,)]
        assert meter.cpu == 5

    def test_concat(self):
        assert Concatenated([Listed([(1,)]), Listed([(2,)])]).rows() == [(1,), (2,)]


class TestSort:
    def test_sorts(self, meter):
        rows = [(3,), (1,), (2,)]
        assert sort_rows(rows, lambda r: r[0], meter) == [(1,), (2,), (3,)]

    def test_reverse(self, meter):
        rows = [(1,), (3,), (2,)]
        assert sort_rows(rows, lambda r: r[0], meter, reverse=True) == [(3,), (2,), (1,)]

    def test_charges_nlogn_cpu(self, meter):
        sort_rows([(i,) for i in range(1024)], lambda r: r[0], meter)
        assert meter.cpu == 1024 * 10

    def test_stable(self, meter):
        rows = [(1, "a"), (0, "b"), (1, "c")]
        out = sort_rows(rows, lambda r: r[0], meter)
        assert out == [(0, "b"), (1, "a"), (1, "c")]


class TestJoins:
    def test_nested_loop(self, meter):
        left, right = [(1,), (2,)], [(2, "a"), (1, "b")]
        condition = Comparison("=", col("X"), col("K"))
        kernel = compile_block("loop", [col("X"), col("K"), col("V")], [condition], ONE, PAIR)
        stage = NestedLooped(Listed(left), right, kernel, False)
        assert sorted(drained(stage, meter)) == [(1, 1, "b"), (2, 2, "a")]
        assert meter.cpu == 4  # every pair considered

    def test_nested_loop_cross_product(self, meter):
        kernel = compile_block("loop", [col("X"), col("K")], [], ONE, Schema([Attribute("K")]))
        stage = NestedLooped(Listed([(1,), (2,)]), [(3,)], kernel, False)
        assert drained(stage, meter) == [(1, 3), (2, 3)]

    def test_merge_join_basic(self, meter):
        left = [(4, "l4"), (1, "l1"), (2, "l2")]
        right = [(2, "r2"), (3, "r3"), (4, "r4")]
        assert drained(merge(left, right), meter) == [(2, "l2", 2, "r2"), (4, "l4", 4, "r4")]
        # Walk: 1 < 2 steps past l1, key 2 matches, 3 < 4 steps past r3, key
        # 4 matches; one pair each.
        assert meter.cpu == 4 + 2

    def test_merge_join_duplicate_keys_cross(self, meter):
        left = [(1, "a"), (1, "b")]
        right = [(1, "x"), (1, "y")]
        assert drained(merge(left, right), meter) == [
            (1, "a", 1, "x"), (1, "a", 1, "y"), (1, "b", 1, "x"), (1, "b", 1, "y"),
        ]
        assert meter.cpu == 1 + 4

    def test_merge_join_residual(self, meter):
        left = [(1, "m")]
        right = [(1, "c"), (1, "z")]
        residual = Comparison("<", col("V"), col("W"))
        assert drained(merge(left, right, residual), meter) == [(1, "m", 1, "z")]
        assert meter.cpu == 1 + 2  # the residual's pairs are billed before it

    def test_merge_join_empty_side(self, meter):
        assert drained(merge([], [(1, "r")]), meter) == []
        assert meter.cpu == 0

    def test_merge_join_null_keys_join_nothing(self, meter):
        left = [(None, "a"), (1, "b")]
        right = [(None, "x"), (1, "y")]
        assert drained(merge(left, right), meter) == [(1, "b", 1, "y")]
        assert meter.cpu == 1 + 1


class TestHashGroup:
    def test_count_star(self):
        rows = [(1,), (1,), (2,)]
        out = sorted(hash_group(rows, lambda r: (r[0],), [("COUNT", None, False)]))
        assert out == [(1, 2), (2, 1)]

    def test_sum_min_max_avg(self):
        rows = [(1, 10), (1, 30)]
        specs = [
            ("SUM", lambda r: r[1], False),
            ("MIN", lambda r: r[1], False),
            ("MAX", lambda r: r[1], False),
            ("AVG", lambda r: r[1], False),
        ]
        out = hash_group(rows, lambda r: (r[0],), specs)
        assert out == [(1, 40.0, 10, 30, 20.0)]

    def test_scalar_aggregate_over_empty_input(self):
        assert hash_group([], None, [("COUNT", None, False)]) == [(0,)]

    def test_grouped_aggregate_over_empty_input(self):
        assert hash_group([], lambda r: (r[0],), [("COUNT", None, False)]) == []

    def test_distinct_aggregate(self):
        rows = [(1, 5), (1, 5), (1, 7)]
        out = hash_group(rows, lambda r: (r[0],), [("COUNT", lambda r: r[1], True)])
        assert out == [(1, 2)]

    def test_nulls_ignored(self):
        rows = [(1, None), (1, 4)]
        out = hash_group(rows, lambda r: (r[0],), [("SUM", lambda r: r[1], False)])
        assert out == [(1, 4.0)]
