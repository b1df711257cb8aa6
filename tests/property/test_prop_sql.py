"""Property tests: MiniDB SQL results against Python references."""

from hypothesis import given, settings, strategies as st

from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.database import MiniDB
from repro.xxl import RelationCursor, SortCursor, materialize

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=-100, max_value=100),
    ),
    max_size=30,
)


def fresh_db(rows):
    db = MiniDB()
    db.execute("CREATE TABLE T (K INT, V INT)")
    if rows:
        values = ", ".join(f"({k}, {v})" for k, v in rows)
        db.execute(f"INSERT INTO T VALUES {values}")
    return db


class TestSelection:
    @settings(max_examples=50, deadline=None)
    @given(rows_strategy, st.integers(min_value=-100, max_value=100))
    def test_where_matches_python_filter(self, rows, threshold):
        db = fresh_db(rows)
        result = sorted(db.query(f"SELECT K, V FROM T WHERE V > {threshold}"))
        assert result == sorted(row for row in rows if row[1] > threshold)

    @settings(max_examples=50, deadline=None)
    @given(rows_strategy, st.integers(min_value=0, max_value=5))
    def test_equality(self, rows, key):
        db = fresh_db(rows)
        result = sorted(db.query(f"SELECT K, V FROM T WHERE K = {key}"))
        assert result == sorted(row for row in rows if row[0] == key)


class TestOrderBy:
    @settings(max_examples=50, deadline=None)
    @given(rows_strategy)
    def test_order_matches_python_sort(self, rows):
        db = fresh_db(rows)
        result = db.query("SELECT K, V FROM T ORDER BY K, V")
        assert result == sorted(rows)

    @settings(max_examples=50, deadline=None)
    @given(rows_strategy)
    def test_descending(self, rows):
        db = fresh_db(rows)
        result = db.query("SELECT V FROM T ORDER BY V DESC")
        assert [row[0] for row in result] == sorted(
            (row[1] for row in rows), reverse=True
        )


class TestGroupBy:
    @settings(max_examples=50, deadline=None)
    @given(rows_strategy)
    def test_count_sum_match_python(self, rows):
        db = fresh_db(rows)
        result = {
            row[0]: (row[1], row[2])
            for row in db.query("SELECT K, COUNT(*), SUM(V) FROM T GROUP BY K")
        }
        expected = {}
        for key, value in rows:
            count, total = expected.get(key, (0, 0.0))
            expected[key] = (count + 1, total + value)
        assert result == expected

    @settings(max_examples=50, deadline=None)
    @given(rows_strategy)
    def test_distinct_matches_set(self, rows):
        db = fresh_db(rows)
        result = sorted(db.query("SELECT DISTINCT K FROM T"))
        assert result == sorted({(row[0],) for row in rows})


nullable_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        st.integers(min_value=-100, max_value=100),
    ),
    max_size=30,
)


def sql_values(rows):
    return ", ".join(f"({'NULL' if k is None else k}, {v})" for k, v in rows)


class TestJoinMethodsAgree:
    @settings(max_examples=40, deadline=None)
    @given(nullable_rows, nullable_rows)
    def test_nl_and_merge_produce_identical_multisets(self, left_rows, right_rows):
        """Both join methods follow SQL: a NULL key joins nothing (the merge
        join used to raise from its sort, the nested loop matched NULL to
        NULL)."""
        db = MiniDB()
        db.execute("CREATE TABLE L (K INT, V INT)")
        db.execute("CREATE TABLE R (K INT, V INT)")
        if left_rows:
            db.execute("INSERT INTO L VALUES " + sql_values(left_rows))
        if right_rows:
            db.execute("INSERT INTO R VALUES " + sql_values(right_rows))
        query = "SELECT {hint} L.V, R.V FROM L, R WHERE L.K = R.K"
        nested = sorted(db.query(query.format(hint="/*+ USE_NL */")))
        merged = sorted(db.query(query.format(hint="/*+ USE_MERGE */")))
        reference = sorted(
            (lv, rv)
            for lk, lv in left_rows
            for rk, rv in right_rows
            if lk is not None and lk == rk
        )
        assert nested == merged == reference


class TestOrderByNulls:
    """A NULL sort key is ordered as Oracle orders it — last ascending,
    first descending — by MiniDB's ``ORDER BY`` and by ``SORT^M`` alike
    (rule T6 moves a sort between them), stably from the input order."""

    @settings(max_examples=50, deadline=None)
    @given(nullable_rows)
    def test_ascending_puts_nulls_last(self, rows):
        db = MiniDB()
        db.execute("CREATE TABLE T (K INT, V INT)")
        if rows:
            db.execute("INSERT INTO T VALUES " + sql_values(rows))
        nulls = sorted(row for row in rows if row[0] is None)
        values = sorted(row for row in rows if row[0] is not None)
        assert db.query("SELECT K, V FROM T ORDER BY K, V") == values + nulls
        assert db.query("SELECT K, V FROM T ORDER BY K DESC, V") == nulls + sorted(
            values, key=lambda row: (-row[0], row[1])
        )

    @settings(max_examples=50, deadline=None)
    @given(nullable_rows, st.sampled_from([1, 7, 100_000]))
    def test_middleware_sort_is_the_same_list(self, rows, run_size):
        db = MiniDB()
        db.execute("CREATE TABLE T (K INT, V INT)")
        if rows:
            db.execute("INSERT INTO T VALUES " + sql_values(rows))
        schema = Schema([Attribute("K", AttrType.INT), Attribute("V", AttrType.INT)])
        for keys in (["K"], ["K", "V"]):
            sort = SortCursor(RelationCursor(schema, rows), keys, run_size=run_size)
            assert materialize(sort) == db.query(f"SELECT K, V FROM T ORDER BY {', '.join(keys)}")


class TestUnion:
    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, rows_strategy)
    def test_union_all_is_concat(self, left_rows, right_rows):
        db = MiniDB()
        db.execute("CREATE TABLE L (K INT, V INT)")
        db.execute("CREATE TABLE R (K INT, V INT)")
        for table, rows in (("L", left_rows), ("R", right_rows)):
            if rows:
                db.execute(
                    f"INSERT INTO {table} VALUES "
                    + ", ".join(f"({k}, {v})" for k, v in rows)
                )
        result = sorted(db.query("SELECT K, V FROM L UNION ALL SELECT K, V FROM R"))
        assert result == sorted(left_rows + right_rows)

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy)
    def test_union_is_set_union(self, rows):
        db = fresh_db(rows)
        result = sorted(db.query("SELECT K, V FROM T UNION SELECT K, V FROM T"))
        assert result == sorted(set(rows))
