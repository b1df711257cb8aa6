"""Unit tests for the middleware sort-merge joins (regular and temporal)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.builder import scan
from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.operators import Location
from repro.algebra.rows import canonical_rows
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.core.tango import Tango
from repro.dbms.costmodel import CostMeter
from repro.dbms.database import MiniDB
from repro.xxl.cursor import BatchReader, materialize
from repro.xxl.merge_join import MergeJoinCursor, read_group
from repro.xxl.sources import RelationCursor
from repro.xxl.temporal_join import TemporalJoinCursor

LEFT_SCHEMA = Schema([Attribute("K"), Attribute("L")])
RIGHT_SCHEMA = Schema([Attribute("K2"), Attribute("R")])

TEMPORAL_SCHEMA = Schema(
    [
        Attribute("PosID", AttrType.INT),
        Attribute("Name", AttrType.STR),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)


def left(rows):
    return RelationCursor(LEFT_SCHEMA, rows)


def right(rows):
    return RelationCursor(RIGHT_SCHEMA, rows)


class TestReadGroup:
    def test_reads_value_pack(self):
        cursor = RelationCursor(LEFT_SCHEMA, [(1, "a"), (1, "b"), (2, "c")]).init()
        cursor.batch_size = 2  # the pack straddles a batch boundary
        reader = BatchReader(cursor)
        group, lookahead = read_group(reader, 0, reader.read())
        assert group == [(1, "a"), (1, "b")]
        assert lookahead == (2, "c")

    def test_last_group_returns_none_lookahead(self):
        reader = BatchReader(RelationCursor(LEFT_SCHEMA, [(1, "a")]).init())
        group, lookahead = read_group(reader, 0, reader.read())
        assert group == [(1, "a")]
        assert lookahead is None


class TestMergeJoin:
    def test_incomparable_key_raises_where_the_merge_reaches_it(self):
        # Matches before the mixed-type key are delivered; the TypeError
        # surfaces only when the merge compares "x" with 3.
        cursor = MergeJoinCursor(
            left([(1, "a"), (2, "b"), ("x", "c")]),
            right([(1, "p"), (2, "q"), (3, "r")]),
            "K",
            "K2",
        ).init()
        cursor.batch_size = 1
        assert cursor.next_batch() == [(1, "a", 1, "p")]
        assert cursor.next_batch() == [(2, "b", 2, "q")]
        with pytest.raises(TypeError):
            cursor.next_batch()

    def test_basic(self):
        cursor = MergeJoinCursor(
            left([(1, "a"), (2, "b"), (4, "d")]),
            right([(2, "x"), (3, "y"), (4, "z")]),
            "K",
            "K2",
        )
        assert materialize(cursor) == [(2, "b", 2, "x"), (4, "d", 4, "z")]

    def test_value_pack_cross_product(self):
        cursor = MergeJoinCursor(
            left([(1, "a"), (1, "b")]),
            right([(1, "x"), (1, "y")]),
            "K",
            "K2",
        )
        assert len(materialize(cursor)) == 4

    def test_residual_predicate(self):
        cursor = MergeJoinCursor(
            left([(1, 5), (1, 9)]),
            right([(1, 7)]),
            "K",
            "K2",
            residual=Comparison("<", col("L"), col("R")),
        )
        assert materialize(cursor) == [(1, 5, 1, 7)]

    def test_schema_concat_disambiguates(self):
        cursor = MergeJoinCursor(
            RelationCursor(LEFT_SCHEMA, []),
            RelationCursor(LEFT_SCHEMA, []),
            "K",
            "K",
        )
        cursor.init()
        assert cursor.schema.names == ("K", "L", "K_2", "L_2")

    def test_empty_sides(self):
        assert materialize(MergeJoinCursor(left([]), right([(1, "x")]), "K", "K2")) == []

    def test_output_ordered_on_join_key(self):
        cursor = MergeJoinCursor(
            left([(1, "a"), (2, "b"), (3, "c")]),
            right([(1, "x"), (2, "y"), (3, "z")]),
            "K",
            "K2",
        )
        keys = [row[0] for row in materialize(cursor)]
        assert keys == sorted(keys)


class TestTemporalJoin:
    def make(self, left_rows, right_rows, meter=None):
        return TemporalJoinCursor(
            RelationCursor(TEMPORAL_SCHEMA, left_rows),
            RelationCursor(TEMPORAL_SCHEMA, right_rows),
            "PosID",
            "PosID",
            meter=meter,
        )

    def test_overlap_and_intersection(self):
        cursor = self.make(
            [(1, "Tom", 2, 20)],
            [(1, "Jane", 5, 25)],
        )
        assert materialize(cursor) == [(1, "Tom", 1, "Jane", 5, 20)]

    def test_non_overlapping_dropped(self):
        cursor = self.make([(1, "Tom", 2, 5)], [(1, "Jane", 5, 8)])
        assert materialize(cursor) == []

    def test_key_mismatch_dropped(self):
        cursor = self.make([(1, "Tom", 2, 20)], [(2, "Jane", 5, 25)])
        assert materialize(cursor) == []

    def test_schema_single_period(self):
        cursor = self.make([], [])
        cursor.init()
        assert cursor.schema.names == (
            "PosID", "Name", "PosID_2", "Name_2", "T1", "T2",
        )

    def test_figure3_shape(self):
        # Aggregation result joined back with POSITION (Figure 3(b) counts).
        agg_schema = Schema(
            [
                Attribute("PosID", AttrType.INT),
                Attribute("T1", AttrType.DATE),
                Attribute("T2", AttrType.DATE),
                Attribute("CNT", AttrType.INT),
            ]
        )
        aggregated = RelationCursor(
            agg_schema,
            [(1, 2, 5, 1), (1, 5, 20, 2), (1, 20, 25, 1), (2, 5, 10, 1)],
        )
        position = RelationCursor(
            TEMPORAL_SCHEMA,
            [(1, "Tom", 2, 20), (1, "Jane", 5, 25), (2, "Tom", 5, 10)],
        )
        cursor = TemporalJoinCursor(aggregated, position, "PosID", "PosID")
        rows = materialize(cursor)
        assert len(rows) == 5
        # row layout: (PosID, CNT, PosID_2, Name, T1, T2)
        tom_first = [row for row in rows if row[3] == "Tom" and row[4] == 2]
        assert tom_first == [(1, 1, 1, "Tom", 2, 5)]

    def test_multiple_overlaps_per_pack(self):
        cursor = self.make(
            [(1, "A", 0, 10)],
            [(1, "B", 2, 4), (1, "C", 6, 12), (1, "D", 20, 30)],
        )
        rows = materialize(cursor)
        assert [(row[3], row[4], row[5]) for row in rows] == [
            ("B", 2, 4),
            ("C", 6, 10),
        ]

    def test_meter_charged(self):
        meter = CostMeter()
        materialize(self.make([(1, "A", 0, 10)], [(1, "B", 2, 4)], meter))
        assert meter.cpu > 0


class TestNullKeys:
    """Both inputs arrive NULLs last; a NULL key joins nothing, so the walk
    ends at the first one on either side."""

    @pytest.mark.parametrize(
        "left_rows, right_rows, expected",
        [
            (
                [(1, "a"), (2, "b"), (None, "c")],
                [(1, "p"), (2, "q"), (None, "r")],
                [(1, "a", 1, "p"), (2, "b", 2, "q")],
            ),
            ([(1, "a"), (None, "b"), (None, "c")], [(1, "p"), (2, "q")], [(1, "a", 1, "p")]),
            ([(1, "a"), (2, "b")], [(None, "p")], []),
            ([(None, "a")], [(None, "p")], []),
        ],
    )
    def test_merge_join_stops_at_the_first_null_key(self, left_rows, right_rows, expected):
        cursor = MergeJoinCursor(left(left_rows), right(right_rows), "K", "K2")
        assert materialize(cursor) == expected

    def test_temporal_join_stops_at_the_first_null_key(self):
        cursor = TemporalJoinCursor(
            RelationCursor(TEMPORAL_SCHEMA, [(1, "Tom", 2, 20), (None, "Ann", 0, 30)]),
            RelationCursor(TEMPORAL_SCHEMA, [(1, "Jane", 5, 25), (None, "Bob", 0, 30)]),
            "PosID",
            "PosID",
        )
        assert materialize(cursor) == [(1, "Tom", 1, "Jane", 5, 20)]

    def test_an_incomparable_key_that_is_not_null_still_raises(self):
        cursor = TemporalJoinCursor(
            RelationCursor(TEMPORAL_SCHEMA, [("x", "Tom", 2, 20)]),
            RelationCursor(TEMPORAL_SCHEMA, [(1, "Jane", 5, 25)]),
            "PosID",
            "PosID",
        )
        with pytest.raises(TypeError):
            materialize(cursor)


def null_key_db(a_rows, b_rows) -> MiniDB:
    db = MiniDB()
    db.execute("CREATE TABLE A (K INT, V INT, T1 DATE, T2 DATE)")
    db.execute("CREATE TABLE B (K INT, W INT, T1 DATE, T2 DATE)")
    db.table("A").bulk_load(a_rows)
    db.table("B").bulk_load(b_rows)
    return db


def middleware_and_dbms_plans(db, operator: str):
    """``JOIN^M`` / ``TJOIN^M`` over NULLs-last sorted transfers, and the
    same join as the all-DBMS plan."""
    def sorted_transfer(table):
        return scan(db, table).sort("K").to_middleware()

    join = getattr(sorted_transfer("A"), operator)
    in_middleware = join(sorted_transfer("B"), "K", "K", loc=Location.MIDDLEWARE).build()
    all_dbms = getattr(scan(db, "A"), operator)(scan(db, "B"), "K", "K").to_middleware().build()
    return in_middleware, all_dbms


A_ROWS = [(1, 5, 0, 10), (2, 7, 3, 6), (None, 4, 2, 9)]
B_ROWS = [(1, 1, 0, 20), (2, 2, 0, 20), (None, 3, 0, 20)]


@pytest.mark.parametrize("operator", ["join", "temporal_join"])
def test_null_keys_join_nothing_in_the_middleware_as_in_the_dbms(operator):
    db = null_key_db(A_ROWS, B_ROWS)
    in_middleware, all_dbms = middleware_and_dbms_plans(db, operator)
    with Tango(db) as tango:
        expected = tango.execute_plan(all_dbms).rows
        assert len(expected) == 2
        assert canonical_rows(tango.execute_plan(in_middleware).rows) == canonical_rows(expected)
        assert canonical_rows(tango.run(all_dbms).rows) == canonical_rows(expected)


def test_null_keys_through_sql():
    db = null_key_db(A_ROWS, B_ROWS)
    with Tango(db) as tango:
        result = tango.query(
            "VALIDTIME SELECT P.K, Q.W FROM A P, B Q WHERE P.K = Q.K ORDER BY P.K"
        )
    assert result.rows == [(1, 1, 0, 10), (2, 2, 3, 6)]


ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 3)),
        st.integers(0, 9),
        st.integers(0, 30),
        st.integers(1, 15),
    ).map(lambda t: (t[0], t[1], t[2], t[2] + t[3])),
    max_size=12,
)


@settings(max_examples=25, deadline=None)
@given(a_rows=ROWS, b_rows=ROWS, operator=st.sampled_from(["join", "temporal_join"]))
def test_null_keys_against_the_all_dbms_plan(a_rows, b_rows, operator):
    db = null_key_db(a_rows, b_rows)
    in_middleware, all_dbms = middleware_and_dbms_plans(db, operator)
    with Tango(db) as tango:
        expected = canonical_rows(tango.execute_plan(all_dbms).rows)
        assert canonical_rows(tango.execute_plan(in_middleware).rows) == expected
