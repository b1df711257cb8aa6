"""Property tests for the extension operators (coalesce, dedup,
difference) and the cross-layer TAGGR equivalence (middleware algorithm vs
the SQL rewrite executed by the DBMS)."""

import math
from collections import Counter, defaultdict

from hypothesis import given, settings, strategies as st

from repro.algebra.operators import AggregateSpec
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.temporal.period import coalesce_periods
from repro.xxl.coalesce import CoalesceCursor
from repro.xxl.cursor import materialize
from repro.xxl.dedup import DedupCursor
from repro.xxl.difference import DifferenceCursor
from repro.xxl.sources import RelationCursor

SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)

temporal_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=15),
    ).map(lambda t: (t[0], t[1], t[1] + t[2])),
    max_size=25,
)

plain_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=5),
              st.integers(min_value=0, max_value=5)),
    max_size=25,
)


def run_coalesce(rows):
    ordered = sorted(rows, key=lambda row: (row[0], row[1]))
    return materialize(CoalesceCursor(RelationCursor(SCHEMA, ordered)))


class TestCoalesce:
    @settings(max_examples=60, deadline=None)
    @given(temporal_rows)
    def test_matches_per_group_reference(self, rows):
        result = run_coalesce(rows)
        by_group = defaultdict(list)
        for key, start, end in rows:
            by_group[key].append((start, end))
        expected = []
        for key in sorted(by_group):
            for start, end in coalesce_periods(by_group[key]):
                expected.append((key, start, end))
        assert result == expected

    @settings(max_examples=60, deadline=None)
    @given(temporal_rows)
    def test_idempotent(self, rows):
        once = run_coalesce(rows)
        assert run_coalesce(once) == once

    @settings(max_examples=60, deadline=None)
    @given(temporal_rows)
    def test_day_coverage_preserved(self, rows):
        covered = {
            (key, day)
            for key, start, end in run_coalesce(rows)
            for day in range(start, end)
        }
        expected = {
            (key, day)
            for key, start, end in rows
            for day in range(start, end)
        }
        assert covered == expected


class TestDedup:
    @settings(max_examples=60, deadline=None)
    @given(plain_rows)
    def test_matches_set_semantics(self, rows):
        schema = Schema([Attribute("A"), Attribute("B"), Attribute("C")])
        result = materialize(DedupCursor(RelationCursor(schema, rows)))
        assert Counter(result) == Counter(set(rows))

    @settings(max_examples=60, deadline=None)
    @given(plain_rows)
    def test_idempotent(self, rows):
        schema = Schema([Attribute("A"), Attribute("B"), Attribute("C")])
        once = materialize(DedupCursor(RelationCursor(schema, rows)))
        twice = materialize(DedupCursor(RelationCursor(schema, once)))
        assert once == twice


class TestDifference:
    @settings(max_examples=60, deadline=None)
    @given(plain_rows, plain_rows)
    def test_matches_multiset_subtraction(self, left, right):
        schema = Schema([Attribute("A"), Attribute("B"), Attribute("C")])
        result = materialize(
            DifferenceCursor(
                RelationCursor(schema, left), RelationCursor(schema, right)
            )
        )
        assert Counter(result) == Counter(left) - Counter(right)

    @settings(max_examples=40, deadline=None)
    @given(plain_rows)
    def test_self_difference_empty(self, rows):
        schema = Schema([Attribute("A"), Attribute("B"), Attribute("C")])
        result = materialize(
            DifferenceCursor(
                RelationCursor(schema, rows), RelationCursor(schema, rows)
            )
        )
        assert result == []


#: ``K, V, T1, T2`` with ``V`` a FLOAT: whole numbers, so a sliding sum and
#: a re-aggregated one round alike, and ±inf (not NaN, which equals nothing).
FLOAT_SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("V", AttrType.FLOAT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)
float_values = st.one_of(
    st.integers(min_value=-5, max_value=5).map(float),
    st.sampled_from([math.inf, -math.inf]),
)
float_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        float_values,
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=15),
    ).map(lambda t: (t[0], t[1], t[2], t[2] + t[3])),
    max_size=25,
)


def nan_as_text(rows):
    """*rows* with every NaN spelled ``"nan"``, so that two NaNs compare."""
    return [
        tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in row)
        for row in rows
    ]


class TestTaggrCrossLayer:
    @settings(max_examples=25, deadline=None)
    @given(float_rows)
    def test_middleware_equals_sql_rewrite(self, rows):
        """TAGGR^M and the Translator-To-SQL's TAGGR^D rewrite must compute
        the same relation — the equivalence the whole of Figure 8 rests on.
        ``TAGGR^M`` slides its sums; ``TAGGR^D`` re-aggregates each interval,
        so an infinity that leaves must leave no trace."""
        from repro.algebra.builder import scan
        from repro.core.translator import SQLTranslator
        from repro.dbms.database import MiniDB
        from repro.xxl.temporal_aggregate import TemporalAggregateCursor

        specs = (
            AggregateSpec("COUNT", "K", "COUNTofK"),
            AggregateSpec("SUM", "V", "SUMofV"),
            AggregateSpec("AVG", "V", "AVGofV"),
        )
        db = MiniDB()
        db.create_table("R", FLOAT_SCHEMA)
        db.table("R").bulk_load(rows)
        plan = scan(db, "R").taggr(group_by=["K"], aggregates=specs).sort("K", "T1").build()
        dbms_rows = db.query(SQLTranslator().translate(plan))

        ordered = sorted(rows, key=lambda row: (row[0], row[2]))
        middleware_rows = materialize(
            TemporalAggregateCursor(RelationCursor(FLOAT_SCHEMA, ordered), ("K",), specs)
        )
        assert nan_as_text(dbms_rows) == nan_as_text(middleware_rows)
