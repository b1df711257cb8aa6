"""Unit tests for MiniDB DDL/DML and SQL query execution (planner included)."""

import pytest

from repro.dbms.database import MiniDB
from repro.dbms.loader import DirectPathLoader
from repro.dbms.statistics import analyze_table
from repro.errors import CatalogError, DatabaseError, SQLSyntaxError, StatisticsError
from tests.conftest import pending_delta


@pytest.fixture
def db():
    instance = MiniDB()
    instance.execute("CREATE TABLE T (K INT, V INT, Name VARCHAR(8))")
    instance.execute(
        "INSERT INTO T VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c'), (2, 25, 'd')"
    )
    return instance


class TestDDL:
    def test_create_and_list(self, db):
        assert db.list_tables() == ["T"]

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE T (X INT)")

    def test_drop(self, db):
        db.execute("DROP TABLE T")
        assert db.list_tables() == []

    def test_drop_missing_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE NOPE")

    def test_drop_if_exists(self, db):
        assert db.execute("DROP TABLE IF EXISTS NOPE") == 0

    def test_create_index_and_find(self, db):
        db.execute("CREATE INDEX IX ON T (K)")
        assert db.find_index("T", "K") is not None
        assert db.find_index("T", "V") is None

    def test_analyze_populates_catalog(self, db):
        db.execute("ANALYZE TABLE T COMPUTE STATISTICS")
        stats = db.statistics_of("T")
        assert stats.cardinality == 4
        assert stats.column("K").num_distinct == 3

    def test_analyze_records_index_availability(self, db):
        db.execute("CREATE INDEX IX ON T (K)")
        db.execute("ANALYZE TABLE T COMPUTE STATISTICS")
        assert db.statistics_of("T").column("K").has_index


class TestDML:
    def test_insert_returns_count(self, db):
        assert db.execute("INSERT INTO T VALUES (9, 90, 'z')") == 1

    def test_insert_arity_checked(self, db):
        with pytest.raises(DatabaseError):
            db.execute("INSERT INTO T VALUES (1, 2)")

    def test_insert_select(self, db):
        db.execute("CREATE TABLE U (K INT, V INT, Name VARCHAR(8))")
        moved = db.execute("INSERT INTO U SELECT K, V, Name FROM T WHERE K = 2")
        assert moved == 2
        assert len(db.query("SELECT * FROM U")) == 2

    def test_delete_with_predicate(self, db):
        removed = db.execute("DELETE FROM T WHERE K = 2")
        assert removed == 2
        assert len(db.query("SELECT * FROM T")) == 2

    def test_delete_all(self, db):
        assert db.execute("DELETE FROM T") == 4

    def test_delete_rows_takes_copies_as_requested_and_returns_them_as_stored(self, db):
        db.insert_rows("T", [(2, 20, "b"), (2, 20, "b")])  # three copies now
        pending = pending_delta(db, "T")
        removed = db.delete_rows("T", [(2, 20.0, "b"), (1, 10, "a"), (2, 20, "b")])
        assert removed == [(1, 10, "a"), (2, 20, "b"), (2, 20, "b")]
        assert [type(row[1]) for row in removed] == [int, int, int]
        assert list(db.table("T").rows) == [(3, 30, "c"), (2, 25, "d"), (2, 20, "b")]
        assert pending_delta(db, "T") == pending + 3

    def test_a_delete_rows_that_misses_a_copy_changes_nothing(self, db):
        db.insert_rows("T", [(2, 20, "b")])
        rows, pending = list(db.table("T").rows), pending_delta(db, "T")
        with pytest.raises(DatabaseError, match="absent"):
            db.delete_rows("T", [(1, 10, "a")] + [(2, 20, "b")] * 3)
        assert list(db.table("T").rows) == rows
        assert pending_delta(db, "T") == pending

    def test_delete_rebuilds_indexes(self, db):
        db.execute("CREATE INDEX IX ON T (K)")
        db.execute("DELETE FROM T WHERE K = 2")
        assert db.find_index("T", "K").matches(2) == []


class TestQueries:
    def test_projection_and_alias(self, db):
        rows = db.query("SELECT V AS Value FROM T WHERE K = 1")
        assert rows == [(10,)]

    def test_where_and(self, db):
        rows = db.query("SELECT Name FROM T WHERE K = 2 AND V > 21")
        assert rows == [("d",)]

    def test_order_by_multiple_keys(self, db):
        rows = db.query("SELECT K, V FROM T ORDER BY K DESC, V ASC")
        assert rows == [(3, 30), (2, 20), (2, 25), (1, 10)]

    def test_order_by_unprojected_column(self, db):
        rows = db.query("SELECT Name FROM T ORDER BY V DESC")
        assert rows == [("c",), ("d",), ("b",), ("a",)]

    def test_group_by(self, db):
        rows = db.query("SELECT K, COUNT(*), SUM(V) FROM T GROUP BY K ORDER BY K")
        assert rows == [(1, 1, 10.0), (2, 2, 45.0), (3, 1, 30.0)]

    def test_group_by_having(self, db):
        rows = db.query("SELECT K FROM T GROUP BY K HAVING COUNT(*) > 1")
        assert rows == [(2,)]

    def test_scalar_aggregate(self, db):
        assert db.query("SELECT COUNT(*), MAX(V) FROM T") == [(4, 30)]

    def test_distinct(self, db):
        rows = db.query("SELECT DISTINCT K FROM T ORDER BY K")
        assert rows == [(1,), (2,), (3,)]

    def test_expression_in_select(self, db):
        rows = db.query("SELECT K + 100 FROM T WHERE Name = 'a'")
        assert rows == [(101,)]

    def test_aggregate_in_expression(self, db):
        rows = db.query("SELECT COUNT(*) * 2 FROM T")
        assert rows == [(8,)]

    def test_self_join_with_aliases(self, db):
        rows = db.query(
            "SELECT A.Name, B.Name FROM T A, T B "
            "WHERE A.K = B.K AND A.V < B.V ORDER BY A.Name"
        )
        assert rows == [("b", "d")]

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(SQLSyntaxError):
            db.query("SELECT K FROM T A, T B WHERE A.K = B.K")

    def test_duplicate_binding_rejected(self, db):
        with pytest.raises(SQLSyntaxError):
            db.query("SELECT 1 FROM T, T")

    def test_unknown_column_rejected(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT Bogus FROM T")

    def test_unknown_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT 1 FROM MISSING")

    def test_star_expansion_disambiguates(self, db):
        rows = db.query("SELECT * FROM T A, T B WHERE A.K = B.K AND A.K = 1")
        assert len(rows) == 1
        assert len(rows[0]) == 6

    def test_derived_table(self, db):
        rows = db.query(
            "SELECT D.K FROM (SELECT K FROM T WHERE V > 15) D ORDER BY D.K"
        )
        assert rows == [(2,), (2,), (3,)]

    def test_union_dedups(self, db):
        rows = db.query("SELECT K FROM T UNION SELECT K FROM T ORDER BY K")
        assert rows == [(1,), (2,), (3,)]

    def test_union_all_keeps_duplicates(self, db):
        rows = db.query("SELECT K FROM T UNION ALL SELECT K FROM T")
        assert len(rows) == 8

    def test_limit(self, db):
        assert len(db.query("SELECT K FROM T ORDER BY K LIMIT 2")) == 2

    def test_query_requires_select(self, db):
        with pytest.raises(DatabaseError):
            db.query("DROP TABLE T")

    def test_hints_change_method_not_result(self, db):
        baseline = sorted(db.query(
            "SELECT A.V, B.V FROM T A, T B WHERE A.K = B.K"
        ))
        nested = sorted(db.query(
            "SELECT /*+ USE_NL */ A.V, B.V FROM T A, T B WHERE A.K = B.K"
        ))
        merged = sorted(db.query(
            "SELECT /*+ USE_MERGE */ A.V, B.V FROM T A, T B WHERE A.K = B.K"
        ))
        assert baseline == nested == merged

    def test_nested_loop_charges_quadratic_cpu(self, db):
        db.meter.reset()
        db.query("SELECT /*+ USE_NL */ A.V FROM T A, T B WHERE A.K = B.K")
        nested_cpu = db.meter.cpu
        db.meter.reset()
        db.query("SELECT /*+ USE_MERGE */ A.V FROM T A, T B WHERE A.K = B.K")
        merged_cpu = db.meter.cpu
        assert nested_cpu > merged_cpu or nested_cpu >= 16

    def test_index_equality_pushdown(self, db):
        db.execute("CREATE INDEX IX ON T (K)")
        rows = db.query("SELECT Name FROM T WHERE K = 2 ORDER BY Name")
        assert rows == [("b",), ("d",)]

    def test_non_equi_join_falls_back_to_nested_loop(self, db):
        rows = db.query(
            "SELECT A.K, B.K FROM T A, T B WHERE A.K < B.K AND A.K = 1 AND B.K = 3"
        )
        assert rows == [(1, 3)]

    def test_three_way_join(self, db):
        rows = db.query(
            "SELECT A.K FROM T A, T B, T C "
            "WHERE A.K = B.K AND B.K = C.K AND A.K = 3"
        )
        assert rows == [(3,)]


def _sql_delete(db):
    db.execute("DELETE FROM T WHERE K = 2")


def _bulk_load(db):
    db.table("T").bulk_load([(7, 70, "g")])


def _truncate(db):
    db.table("T").truncate()


def _splice(db):
    table = db.table("T")
    table.replace_rows(table.rows[1:] + [(8, 80, "h")], changed=2)


def _append(db):
    db.table("T").append((9, 90, "i"))


def _failed_insert(db):
    with pytest.raises(DatabaseError):
        db.insert_rows("T", [(5, 50, "e"), (6, 60)])


def _loader_rollback(db):
    def poisoned():
        yield (5, 50, "e")
        raise RuntimeError("source died mid-chunk")

    with pytest.raises(RuntimeError):
        DirectPathLoader(db).append("T", db.schema_of("T"), poisoned())


@pytest.fixture
def grown(db):
    """``db`` with T at 64 rows — a fold of a few rows is priced under a
    scan from there — and analyzed, so the catalog holds its sorted copy."""
    db.insert_rows("T", [(10 + i, i, f"n{i % 5}") for i in range(60)])
    db.analyze("T")
    return db


UNTRACKED_WRITERS = [
    _sql_delete, _bulk_load, _truncate, _splice, _append, _failed_insert,
    _loader_rollback,
]


class TestAnalyzeFromTheDelta:
    """DESIGN.md §20: after ``insert_rows`` / ``delete_rows`` ANALYZE folds
    the changed rows into the catalog's sorted columns; after any other
    writer it scans.  Either way the statistics equal a scratch scan's."""

    def test_tracked_dml_is_folded_not_scanned(self, db, scans):
        # T is tracked since the fixture's INSERT; its first ANALYZE scans
        # and keeps the sorted copy.
        db.insert_rows("T", [(10 + i, i, f"n{i % 5}") for i in range(60)])
        db.analyze("T")
        assert scans == [db.table("T")] * 3
        del scans[:]
        db.insert_rows("T", [(5, 50, "e"), (2, None, "f")])
        db.delete_rows("T", [(2, 20, "b"), (3, 30, "c")])
        db.execute("INSERT INTO T VALUES (6, 60, 'g')")
        assert pending_delta(db, "T") == 5
        folded = db.analyze("T")
        assert scans == []
        assert folded == analyze_table(db.table("T"))
        assert db.statistics_of("T") is folded
        assert pending_delta(db, "T") == 0

    def test_a_fold_charges_for_the_delta_only(self, db):
        db.insert_rows("T", [(i, i, "x") for i in range(996)])  # 1,000 rows
        table = db.table("T")
        before = db.meter.snapshot()
        db.analyze("T")
        scan = db.meter.snapshot() - before
        assert (scan.io, scan.cpu) == (table.blocks, 1000 * 3)
        db.insert_rows("T", [(5, 5, "y"), (6, 6, "y")])
        db.delete_rows("T", [(5, 5, "y")])
        before = db.meter.snapshot()
        db.analyze("T")
        fold = db.meter.snapshot() - before
        # 3 changed rows x 3 columns x ceil(log2(1,001)) + the catalog block
        assert (fold.io, fold.cpu) == (1, 3 * 3 * 10)

    def test_a_delta_that_rivals_the_table_is_scanned(self, grown, scans):
        grown.insert_rows("T", [(i, i, "x") for i in range(64)])
        before = grown.meter.snapshot()
        scanned = grown.analyze("T")
        window = grown.meter.snapshot() - before
        assert scans == [grown.table("T")] * 3
        assert (window.io, window.cpu) == (1, 128 * 3)
        assert scanned == analyze_table(grown.table("T"))

    def test_an_unchanged_table_folds_nothing(self, db, scans):
        first = db.analyze("T")
        del scans[:]
        again = db.analyze("T", histogram_columns="none", histogram_buckets=3)
        assert scans == []
        assert again == analyze_table(db.table("T"), "none", 3)
        assert first == analyze_table(db.table("T"))  # a fresh object each time

    @pytest.mark.parametrize("writer", UNTRACKED_WRITERS, ids=lambda w: w.__name__)
    def test_any_other_writer_forces_a_scan(self, grown, scans, writer):
        db = grown
        db.insert_rows("T", [(5, 50, "e")])  # logged, then overtaken
        writer(db)
        scanned = db.analyze("T")
        assert scans == [db.table("T")] * 3
        assert scanned == analyze_table(db.table("T"))
        # ... and the rebuilt copy serves the next tracked change.
        db.insert_rows("T", [(100 + i, i, "t") for i in range(64)])
        db.analyze("T")
        db.insert_rows("T", [(4, 40, "d")])
        del scans[:]
        folded = db.analyze("T")
        assert scans == []
        assert folded == analyze_table(db.table("T"))

    def test_a_fold_that_raises_leaves_the_catalog_and_rebuilds_next(self, grown, scans):
        db = grown
        before = db.statistics_of("T")
        db.insert_rows("T", [("x", 1, "e")])  # K holds ints: the fold cannot place it
        with pytest.raises(StatisticsError, match=r"T\.K\b"):
            db.analyze("T")  # ... and neither can the scan it falls back to
        assert db.statistics_of("T") is before
        assert pending_delta(db, "T") == 1
        db.delete_rows("T", [("x", 1, "e")])
        del scans[:]
        rebuilt = db.analyze("T")
        assert scans == [db.table("T")] * 3
        assert rebuilt == analyze_table(db.table("T"))

    def test_index_flags_survive_a_fold(self, grown, scans):
        db = grown
        db.execute("CREATE INDEX IX ON T (K)")
        db.analyze("T")
        db.insert_rows("T", [(5, 50, "e")])
        del scans[:]
        column = db.analyze("T").column("K")
        assert scans == [] and column.has_index and not column.index_clustered

    def test_only_tables_that_took_row_dml_keep_a_sorted_copy(self, db):
        db.execute("CREATE TABLE LOADED (K INT)")
        db.table("LOADED").bulk_load([(1,), (2,)])
        db.analyze("LOADED")
        db.execute("DELETE FROM LOADED WHERE K = 1")
        db.analyze("LOADED")
        assert set(db._dml) == {"t"}

    def test_drop_table_frees_the_sorted_copy(self, db):
        db.analyze("T")
        db.drop_table("T")
        assert db._dml == {}
