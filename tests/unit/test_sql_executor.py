"""Unit tests for MiniDB's physical row-stream primitives."""

import pytest

from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.costmodel import CostMeter
from repro.dbms.sql.executor import (
    ResultSet,
    concat_rows,
    distinct_rows,
    filter_rows,
    hash_group,
    limit_rows,
    merge_join,
    nested_loop_join,
    project_rows,
    sort_rows,
)
from repro.errors import ExecutionError


@pytest.fixture
def meter():
    return CostMeter()


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


class TestScalarPrimitives:
    def test_filter(self, meter):
        rows = [(1,), (2,), (3,)]
        assert list(filter_rows(rows, lambda r: r[0] > 1, meter)) == [(2,), (3,)]
        assert meter.cpu == 3

    def test_project(self, meter):
        rows = [(1, 2)]
        out = list(project_rows(rows, lambda r: (r[1], r[0] * 10), meter))
        assert out == [(2, 10)]

    def test_limit(self):
        assert list(limit_rows(iter([(1,), (2,), (3,)]), 2)) == [(1,), (2,)]

    def test_distinct_preserves_first_occurrence_order(self, meter):
        rows = [(2,), (1,), (2,), (3,), (1,)]
        assert list(distinct_rows(rows, meter)) == [(2,), (1,), (3,)]

    def test_concat(self):
        assert list(concat_rows([[(1,)], [(2,)]])) == [(1,), (2,)]


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
        left = [(1,), (2,)]
        right = [(2, "a"), (1, "b")]
        out = list(
            nested_loop_join(left, right, lambda row: row[0] == row[1], meter)
        )
        assert sorted(out) == [(1, 1, "b"), (2, 2, "a")]
        assert meter.cpu == 4  # every pair considered

    def test_nested_loop_cross_product(self, meter):
        out = list(nested_loop_join([(1,), (2,)], [(3,)], None, meter))
        assert out == [(1, 3), (2, 3)]

    def test_merge_join_basic(self, meter):
        left = [(1, "l1"), (2, "l2"), (4, "l4")]
        right = [(2, "r2"), (3, "r3"), (4, "r4")]
        out = list(
            merge_join(left, right, lambda r: r[0], lambda r: r[0], None, meter)
        )
        assert out == [(2, "l2", 2, "r2"), (4, "l4", 4, "r4")]

    def test_merge_join_duplicate_keys_cross(self, meter):
        left = [(1, "a"), (1, "b")]
        right = [(1, "x"), (1, "y")]
        out = list(
            merge_join(left, right, lambda r: r[0], lambda r: r[0], None, meter)
        )
        assert len(out) == 4

    def test_merge_join_residual(self, meter):
        left = [(1, 5)]
        right = [(1, 3), (1, 9)]
        out = list(
            merge_join(
                left, right,
                lambda r: r[0], lambda r: r[0],
                lambda row: row[1] < row[3],
                meter,
            )
        )
        assert out == [(1, 5, 1, 9)]

    def test_merge_join_empty_side(self, meter):
        assert list(merge_join([], [(1,)], lambda r: r[0], lambda r: r[0], None, meter)) == []


class TestHashGroup:
    def test_count_star(self, meter):
        rows = [(1,), (1,), (2,)]
        out = sorted(hash_group(rows, lambda r: (r[0],), [("COUNT", None, False)], meter))
        assert out == [(1, 2), (2, 1)]

    def test_sum_min_max_avg(self, meter):
        rows = [(1, 10), (1, 30)]
        specs = [
            ("SUM", lambda r: r[1], False),
            ("MIN", lambda r: r[1], False),
            ("MAX", lambda r: r[1], False),
            ("AVG", lambda r: r[1], False),
        ]
        out = list(hash_group(rows, lambda r: (r[0],), specs, meter))
        assert out == [(1, 40.0, 10, 30, 20.0)]

    def test_scalar_aggregate_over_empty_input(self, meter):
        out = list(hash_group([], None, [("COUNT", None, False)], meter))
        assert out == [(0,)]

    def test_grouped_aggregate_over_empty_input(self, meter):
        out = list(hash_group([], lambda r: (r[0],), [("COUNT", None, False)], meter))
        assert out == []

    def test_distinct_aggregate(self, meter):
        rows = [(1, 5), (1, 5), (1, 7)]
        out = list(
            hash_group(rows, lambda r: (r[0],), [("COUNT", lambda r: r[1], True)], meter)
        )
        assert out == [(1, 2)]

    def test_nulls_ignored(self, meter):
        rows = [(1, None), (1, 4)]
        out = list(
            hash_group(rows, lambda r: (r[0],), [("SUM", lambda r: r[1], False)], meter)
        )
        assert out == [(1, 4.0)]
