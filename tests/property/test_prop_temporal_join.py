"""Property tests: the middleware temporal join against a nested-loop
reference, and against its DBMS SQL translation.  Join keys may be NULL,
which joins nothing."""

from hypothesis import given, settings, strategies as st

from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.sql.functions import nulls_last
from repro.temporal.period import intersect, overlaps
from repro.xxl.cursor import materialize
from repro.xxl.sources import RelationCursor
from repro.xxl.temporal_join import TemporalJoinCursor

SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("V", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)

rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=20),
    ).map(lambda t: (t[0], t[1], t[2], t[2] + t[3])),
    max_size=25,
)


def middleware_join(left_rows, right_rows):
    # Sorted as the DBMS and SORT^M deliver them: NULLs last.
    left = RelationCursor(SCHEMA, sorted(left_rows, key=lambda r: nulls_last(r[0])))
    right = RelationCursor(SCHEMA, sorted(right_rows, key=lambda r: nulls_last(r[0])))
    return materialize(TemporalJoinCursor(left, right, "K", "K"))


def reference_join(left_rows, right_rows):
    results = []
    for l in left_rows:
        for r in right_rows:
            if l[0] is None or l[0] != r[0]:
                continue
            if not overlaps(l[2], l[3], r[2], r[3]):
                continue
            start, end = intersect(l[2], l[3], r[2], r[3])
            results.append((l[0], l[1], r[0], r[1], start, end))
    return sorted(results)


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(rows_strategy, rows_strategy)
    def test_matches_nested_loop_reference(self, left_rows, right_rows):
        assert sorted(middleware_join(left_rows, right_rows)) == reference_join(
            left_rows, right_rows
        )

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy)
    def test_self_join_contains_every_tuple_paired_with_itself(self, rows):
        joined = middleware_join(rows, rows)
        keys = {(row[0], row[4], row[5]) for row in joined}
        for row in rows:
            # A NULL key equals nothing, itself included.
            assert ((row[0], row[2], row[3]) in keys) == (row[0] is not None)


class TestAgainstSQLTranslation:
    @settings(max_examples=25, deadline=None)
    @given(rows_strategy, rows_strategy)
    def test_matches_dbms_execution(self, left_rows, right_rows):
        from repro.algebra.builder import scan
        from repro.core.translator import SQLTranslator
        from repro.dbms.database import MiniDB

        db = MiniDB()
        db.create_table("L", SCHEMA)
        db.table("L").bulk_load(left_rows)
        db.create_table("R", SCHEMA)
        db.table("R").bulk_load(right_rows)
        plan = scan(db, "L").temporal_join(scan(db, "R"), "K", "K").build()
        sql = SQLTranslator().translate(plan)
        dbms_rows = sorted(db.query(sql))
        assert dbms_rows == reference_join(left_rows, right_rows)
        assert sorted(middleware_join(left_rows, right_rows)) == dbms_rows
