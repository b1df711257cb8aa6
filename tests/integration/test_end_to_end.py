"""Integration: end-to-end middleware scenarios beyond the paper's four
queries — DDL + temporal queries + statistics lifecycle + extension
operators."""

import pytest

from repro.core.tango import Tango
from repro.dbms.database import MiniDB
from repro.temporal.timestamps import day_of


@pytest.fixture
def tango():
    db = MiniDB()
    db.execute(
        "CREATE TABLE ASSIGNMENT (ProjID INT, Engineer VARCHAR(12), "
        "Rate FLOAT, T1 DATE, T2 DATE)"
    )
    rows = [
        (1, "Ada", 95.0, day_of("1995-01-01"), day_of("1995-07-01")),
        (1, "Grace", 90.0, day_of("1995-03-01"), day_of("1995-09-01")),
        (1, "Edsger", 85.0, day_of("1995-06-01"), day_of("1996-01-01")),
        (2, "Ada", 95.0, day_of("1995-08-01"), day_of("1996-02-01")),
        (2, "Barbara", 88.0, day_of("1995-01-01"), day_of("1995-04-01")),
    ]
    values = ", ".join(
        f"({p}, '{e}', {r}, {t1}, {t2})" for p, e, r, t1, t2 in rows
    )
    db.execute(f"INSERT INTO ASSIGNMENT VALUES {values}")
    return Tango(db)


class TestStaffingScenario:
    def test_headcount_over_time(self, tango):
        result = tango.query(
            "VALIDTIME SELECT ProjID, COUNT(Engineer) AS Heads "
            "FROM ASSIGNMENT GROUP BY ProjID ORDER BY ProjID"
        )
        project1 = [row for row in result.rows if row[0] == 1]
        # Staffing of project 1: 1 (Jan-Mar), 2 (Mar-Jun), 3 (Jun-Jul),
        # 2 (Jul-Sep), 1 (Sep-Jan).
        assert [row[3] for row in project1] == [1, 2, 3, 2, 1]

    def test_peak_rate_over_time(self, tango):
        result = tango.query(
            "VALIDTIME SELECT ProjID, MAX(Rate) AS Peak FROM ASSIGNMENT "
            "GROUP BY ProjID ORDER BY ProjID"
        )
        project2 = [row for row in result.rows if row[0] == 2]
        assert [row[3] for row in project2] == [88.0, 95.0]

    def test_concurrent_pairs(self, tango):
        result = tango.query(
            "VALIDTIME SELECT A.ProjID, A.Engineer, B.Engineer "
            "FROM ASSIGNMENT A, ASSIGNMENT B "
            "WHERE A.ProjID = B.ProjID AND A.Rate < B.Rate ORDER BY ProjID"
        )
        pairs = {(row[1], row[2]) for row in result.rows}
        assert ("Grace", "Ada") in pairs        # overlapped on project 1
        assert ("Barbara", "Ada") not in pairs  # disjoint on project 2

    def test_timeslice_via_selection(self, tango):
        instant = day_of("1995-06-15")
        result = tango.query(
            f"VALIDTIME SELECT Engineer FROM ASSIGNMENT "
            f"WHERE T1 <= {instant} AND T2 > {instant} ORDER BY Engineer"
        )
        assert [row[0] for row in result.rows] == ["Ada", "Edsger", "Grace"]


class TestLifecycle:
    def test_statistics_refresh_changes_estimates(self, tango):
        plan = tango.parse("VALIDTIME SELECT ProjID FROM ASSIGNMENT")
        before = tango.planner.estimator.estimate(plan).cardinality
        values = ", ".join(
            f"(3, 'X{i}', 50.0, {i}, {i + 10})" for i in range(500)
        )
        tango.db.execute(f"INSERT INTO ASSIGNMENT VALUES {values}")
        tango.refresh_statistics()
        after = tango.planner.estimator.estimate(
            tango.parse("VALIDTIME SELECT ProjID FROM ASSIGNMENT")
        ).cardinality
        assert after > before

    def test_calibration_then_query(self, tango):
        tango.calibrate(sizes=(100,))
        result = tango.query(
            "VALIDTIME SELECT ProjID, COUNT(ProjID) FROM ASSIGNMENT "
            "GROUP BY ProjID ORDER BY ProjID"
        )
        assert len(result.rows) > 0

    def test_repeated_queries_leave_no_temp_tables(self, tango):
        before = set(tango.db.list_tables())
        for _ in range(3):
            tango.query(
                "VALIDTIME SELECT ProjID, COUNT(ProjID) FROM ASSIGNMENT "
                "GROUP BY ProjID ORDER BY ProjID"
            )
        assert set(tango.db.list_tables()) == before

    def test_mixed_temporal_and_regular_statements(self, tango):
        tango.query("CREATE TABLE NOTES (ProjID INT, Note VARCHAR(20))")
        tango.query("INSERT INTO NOTES VALUES (1, 'on track')")
        regular = tango.query("SELECT Note FROM NOTES WHERE ProjID = 1")
        assert regular.rows == [("on track",)]
        temporal = tango.query(
            "VALIDTIME SELECT ProjID FROM ASSIGNMENT ORDER BY ProjID"
        )
        assert len(temporal.rows) == 5


class TestExtensionOperators:
    def test_coalescing_after_projection(self, tango):
        """Project to (ProjID) then coalesce: maximal employment periods per
        project — the Section 7 extension path."""
        from repro.algebra.builder import scan

        plan = (
            scan(tango.db, "ASSIGNMENT")
            .project("ProjID", "T1", "T2")
            .sort("ProjID", "T1")
            .to_middleware()
            .coalesce()
            .build()
        )
        rows = tango.execute_plan(plan).rows
        project1 = [row for row in rows if row[0] == 1]
        assert project1 == [(1, day_of("1995-01-01"), day_of("1996-01-01"))]

    def test_dedup_in_middleware(self, tango):
        from repro.algebra.builder import scan

        plan = (
            scan(tango.db, "ASSIGNMENT")
            .project("Engineer")
            .to_middleware()
            .dedup()
            .build()
        )
        rows = tango.execute_plan(plan).rows
        assert sorted(row[0] for row in rows) == [
            "Ada", "Barbara", "Edsger", "Grace",
        ]


class TestNullArguments:
    """``TAGGR^D``, ``TAGGR^M`` and MiniDB's ``GROUP BY`` agree on NULL
    aggregate arguments: every constant interval with a valid tuple is a
    row, ``COUNT(V)`` counts the non-NULL values and ``SUM(V)`` is NULL
    when all of them are."""

    ROWS = [(1, 5, 0, 10), (1, None, 2, 12), (2, None, 1, 4), (1, 7, 3, 6)]
    EXPECTED = [
        (1, 0, 2, 1, 5.0),
        (1, 2, 3, 1, 5.0),
        (1, 3, 6, 2, 12.0),
        (1, 6, 10, 1, 5.0),
        (1, 10, 12, 0, None),
        (2, 1, 4, 0, None),
    ]

    @pytest.fixture
    def nullable(self):
        db = MiniDB()
        db.execute("CREATE TABLE R (G INT, V INT, T1 DATE, T2 DATE)")
        db.insert_rows("R", self.ROWS)
        with Tango(db) as tango:
            yield tango

    @staticmethod
    def plans(db):
        from repro.algebra.builder import scan
        from repro.algebra.operators import AggregateSpec

        specs = [AggregateSpec("COUNT", "V"), AggregateSpec("SUM", "V")]
        in_dbms = scan(db, "R").taggr(["G"], aggregates=specs).sort("G", "T1")
        in_middleware = scan(db, "R").sort("G", "T1").to_middleware()
        return (
            in_dbms.to_middleware().build(),
            in_middleware.taggr(["G"], aggregates=specs).build(),
        )

    def test_both_locations_agree_with_sql(self, nullable):
        dbms, middleware = self.plans(nullable.db)
        assert nullable.execute_plan(dbms).rows == self.EXPECTED
        assert nullable.execute_plan(middleware).rows == self.EXPECTED
        assert nullable.db.query(
            "SELECT G, COUNT(V), SUM(V) FROM R WHERE G = 2 GROUP BY G"
        ) == [(2, 0, None)]

    def test_a_null_group_sorts_last_and_only_the_dbms_drops_it(self, nullable):
        # The middleware plan's Sort^D used to raise on the NULL key.  The
        # instant self-join of TAGGR^D still joins a NULL group to nothing.
        nullable.db.insert_rows("R", [(None, 3, 0, 5)])
        dbms, middleware = self.plans(nullable.db)
        assert nullable.execute_plan(middleware).rows == self.EXPECTED + [(None, 0, 5, 1, 3.0)]
        assert nullable.execute_plan(dbms).rows == self.EXPECTED
