"""Unit tests for MiniDB save/load."""

import pytest

from repro.dbms.database import MiniDB
from repro.dbms.persistence import load_database, save_database
from repro.errors import DatabaseError


@pytest.fixture
def db():
    instance = MiniDB()
    instance.execute(
        "CREATE TABLE POSITION (PosID INT, EmpName VARCHAR(16), "
        "PayRate FLOAT, T1 DATE, T2 DATE)"
    )
    instance.execute(
        "INSERT INTO POSITION VALUES "
        "(1, 'Tom', 12.5, 2, 20), (2, 'O''Brien', 9.0, 5, 10)"
    )
    instance.execute("CREATE INDEX POS_IX ON POSITION (PosID)")
    return instance


class TestRoundTrip:
    def test_rows_survive(self, db, tmp_path):
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert sorted(restored.table("POSITION").rows) == sorted(
            db.table("POSITION").rows
        )

    def test_schema_types_survive(self, db, tmp_path):
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        schema = restored.schema_of("POSITION")
        assert schema.type_of("PayRate").value == "float"
        assert schema.type_of("T1").value == "date"
        assert schema["EmpName"].width == 16

    def test_indexes_recreated(self, db, tmp_path):
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert restored.find_index("POSITION", "PosID") is not None

    def test_quotes_in_strings(self, db, tmp_path):
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        names = {row[1] for row in restored.table("POSITION").rows}
        assert "O'Brien" in names

    def test_nulls_roundtrip(self, tmp_path):
        db = MiniDB()
        db.execute("CREATE TABLE N (K INT, V INT)")
        db.table("N").bulk_load([(1, None), (2, 5)])
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert sorted(restored.table("N").rows, key=lambda r: r[0]) == [
            (1, None), (2, 5),
        ]

    def test_clustered_order_preserved(self, tmp_path):
        db = MiniDB()
        db.execute("CREATE TABLE S (K INT)")
        db.table("S").bulk_load([(1,), (2,)], order=("K",))
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert restored.clustered_order_of("S") == ("K",)

    def test_temporary_tables_skipped(self, db, tmp_path):
        db.create_table("TMP_X", db.schema_of("POSITION"), temporary=True)
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert "TMP_X" not in restored.list_tables()

    def test_load_into_existing_db(self, db, tmp_path):
        save_database(db, tmp_path / "snap")
        target = MiniDB()
        target.execute("CREATE TABLE OTHER (X INT)")
        load_database(tmp_path / "snap", target)
        assert set(target.list_tables()) == {"OTHER", "POSITION"}

    def test_missing_catalog_rejected(self, tmp_path):
        with pytest.raises(DatabaseError):
            load_database(tmp_path)

    def test_queries_work_after_reload(self, db, tmp_path):
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        rows = restored.query("SELECT EmpName FROM POSITION WHERE PosID = 1")
        assert rows == [("Tom",)]

    def test_tango_on_restored_db(self, db, tmp_path):
        from repro.core.tango import Tango

        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        tango = Tango(restored)
        result = tango.query(
            "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION "
            "GROUP BY PosID ORDER BY PosID"
        )
        assert len(result.rows) > 0

    def test_no_sorted_copy_is_carried_and_the_first_analyze_scans(
        self, db, tmp_path, scans
    ):
        db.analyze("POSITION")  # the fixture's INSERT made it tracked
        assert db._dml["position"].columns is not None
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert restored._dml == {}
        del scans[:]
        assert restored.analyze("POSITION") == db.statistics_of("POSITION")
        assert scans == [restored.table("POSITION")] * 5
