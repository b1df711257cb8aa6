"""Unit tests for the VALIDTIME temporal SQL parser."""

import pytest

from repro.algebra.operators import (
    Location,
    Project,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferM,
)
from repro.core.parser import is_temporal_query, parse_temporal_query
from repro.errors import SQLSyntaxError


def nodes(plan, node_type):
    return [node for node in plan.walk() if isinstance(node, node_type)]


class TestDetection:
    def test_validtime_prefix(self):
        assert is_temporal_query("VALIDTIME SELECT * FROM T")
        assert is_temporal_query("  validtime select * from t")

    def test_regular_sql_not_temporal(self):
        assert not is_temporal_query("SELECT * FROM T")

    def test_missing_prefix_rejected(self, figure3_db):
        with pytest.raises(SQLSyntaxError):
            parse_temporal_query("SELECT * FROM POSITION", figure3_db)


class TestInitialPlanShape:
    def test_transfer_m_on_top(self, figure3_db):
        plan = parse_temporal_query("VALIDTIME SELECT * FROM POSITION", figure3_db)
        assert isinstance(plan, TransferM)

    def test_all_processing_in_dbms(self, figure3_db):
        plan = parse_temporal_query(
            "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION "
            "GROUP BY PosID ORDER BY PosID",
            figure3_db,
        )
        below = plan.input
        assert all(node.location is Location.DBMS for node in below.walk())

    def test_group_by_becomes_temporal_aggregate(self, figure3_db):
        plan = parse_temporal_query(
            "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID",
            figure3_db,
        )
        assert len(nodes(plan, TemporalAggregate)) == 1

    def test_aggregate_alias_names_output(self, figure3_db):
        plan = parse_temporal_query(
            "VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION GROUP BY PosID",
            figure3_db,
        )
        taggr = nodes(plan, TemporalAggregate)[0]
        assert taggr.schema.has("Cnt")

    def test_join_becomes_temporal_join(self, figure3_db):
        plan = parse_temporal_query(
            "VALIDTIME SELECT A.PosID, B.EmpName FROM POSITION A, POSITION B "
            "WHERE A.PosID = B.PosID",
            figure3_db,
        )
        assert len(nodes(plan, TemporalJoin)) == 1

    def test_single_table_predicates_pushed_to_scans(self, figure3_db):
        plan = parse_temporal_query(
            "VALIDTIME SELECT A.PosID, B.EmpName FROM POSITION A, POSITION B "
            "WHERE A.PosID = B.PosID AND A.T1 < 5",
            figure3_db,
        )
        join = nodes(plan, TemporalJoin)[0]
        assert isinstance(join.left, Select)

    def test_missing_join_condition_rejected(self, figure3_db):
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            parse_temporal_query(
                "VALIDTIME SELECT A.PosID FROM POSITION A, POSITION B",
                figure3_db,
            )

    def test_order_by_becomes_sort(self, figure3_db):
        plan = parse_temporal_query(
            "VALIDTIME SELECT PosID, EmpName FROM POSITION ORDER BY PosID",
            figure3_db,
        )
        assert isinstance(plan.input, Sort)

    def test_period_attributes_appended_implicitly(self, figure3_db):
        plan = parse_temporal_query(
            "VALIDTIME SELECT PosID FROM POSITION", figure3_db
        )
        project = nodes(plan, Project)[0]
        assert project.schema.names == ("PosID", "T1", "T2")

    def test_explicit_period_attributes_not_duplicated(self, figure3_db):
        plan = parse_temporal_query(
            "VALIDTIME SELECT PosID, T1, T2 FROM POSITION", figure3_db
        )
        project = nodes(plan, Project)[0]
        assert project.schema.names == ("PosID", "T1", "T2")


class TestResolution:
    def test_disambiguated_join_columns(self, figure3_db):
        plan = parse_temporal_query(
            "VALIDTIME SELECT A.EmpName, B.EmpName FROM POSITION A, POSITION B "
            "WHERE A.PosID = B.PosID",
            figure3_db,
        )
        project = nodes(plan, Project)[0]
        assert "EmpName" in project.schema.names
        assert "EmpName_2" in project.schema.names

    def test_unknown_column_rejected(self, figure3_db):
        with pytest.raises(SQLSyntaxError):
            parse_temporal_query(
                "VALIDTIME SELECT Bogus FROM POSITION", figure3_db
            )

    def test_ambiguous_column_rejected(self, figure3_db):
        with pytest.raises(SQLSyntaxError):
            parse_temporal_query(
                "VALIDTIME SELECT EmpName FROM POSITION A, POSITION B "
                "WHERE A.PosID = B.PosID",
                figure3_db,
            )

    def test_unknown_alias_rejected(self, figure3_db):
        with pytest.raises(SQLSyntaxError):
            parse_temporal_query(
                "VALIDTIME SELECT Z.PosID FROM POSITION A", figure3_db
            )

    STARRED = (
        "VALIDTIME SELECT {}.* FROM POSITION p, POSITION q "
        "WHERE p.PosID = q.PosID AND q.T1 < 6"
    )

    @pytest.mark.parametrize("qualifier", ["P", "p"])
    def test_qualified_star_matches_its_alias_in_any_case(self, figure3_db, qualifier):
        # ``p.*`` used to match no binding and select only the period.
        plan = parse_temporal_query(self.STARRED.format(qualifier), figure3_db)
        assert plan.schema.names == ("PosID", "EmpName", "T1", "T2")
        other = parse_temporal_query(self.STARRED.format("q"), figure3_db)
        assert other.schema.names == ("PosID_2", "EmpName_2", "T1", "T2")

    def test_qualified_star_of_an_unknown_alias_rejected(self, figure3_db):
        with pytest.raises(SQLSyntaxError, match="unknown table alias 'x'"):
            parse_temporal_query(self.STARRED.format("x"), figure3_db)

    def test_lower_case_star_does_not_poison_the_plan_cache(self, figure3_db):
        # The cache key once folded case, so within one epoch ``P.*`` was
        # served the plan ``p.*`` was given: two columns before the fix.
        # It keeps spellings now, and the two are planned apart.
        from repro.core.tango import Tango

        with Tango(figure3_db) as tango:
            lower = tango.query(self.STARRED.format("p"))
            upper = tango.query(self.STARRED.format("P"))
            assert tango.planner.cache.hits == 0
        assert lower.schema.names == upper.schema.names == ("PosID", "EmpName", "T1", "T2")
        assert lower.rows == upper.rows and len(lower.rows) == 5


class TestRestrictions:
    def test_derived_tables_rejected(self, figure3_db):
        with pytest.raises(SQLSyntaxError):
            parse_temporal_query(
                "VALIDTIME SELECT X FROM (SELECT 1 FROM POSITION) D", figure3_db
            )

    def test_union_rejected(self, figure3_db):
        with pytest.raises(SQLSyntaxError):
            parse_temporal_query(
                "VALIDTIME SELECT PosID FROM POSITION UNION "
                "SELECT PosID FROM POSITION",
                figure3_db,
            )

    @pytest.mark.parametrize(
        "sql, clause",
        [
            (
                "VALIDTIME SELECT PosID, COUNT(*) AS N FROM POSITION GROUP BY PosID "
                "HAVING COUNT(*) > 1",
                "HAVING",
            ),
            ("VALIDTIME SELECT DISTINCT PosID FROM POSITION", "SELECT DISTINCT"),
            ("VALIDTIME SELECT PosID FROM POSITION LIMIT 3", "LIMIT"),
            (
                "VALIDTIME SELECT PosID, COUNT(DISTINCT EmpName) FROM POSITION "
                "GROUP BY PosID",
                "DISTINCT inside a temporal aggregate",
            ),
        ],
    )
    def test_clauses_the_front_end_cannot_honour_are_refused(self, figure3_db, sql, clause):
        # Each was once parsed and silently dropped: the plan answered the
        # query without it.
        with pytest.raises(SQLSyntaxError, match=clause):
            parse_temporal_query(sql, figure3_db)

    def test_group_by_expression_rejected(self, figure3_db):
        with pytest.raises(SQLSyntaxError):
            parse_temporal_query(
                "VALIDTIME SELECT COUNT(PosID) FROM POSITION GROUP BY PosID + 1",
                figure3_db,
            )

    def test_bare_column_with_group_by_must_be_grouped(self, figure3_db):
        with pytest.raises(SQLSyntaxError):
            parse_temporal_query(
                "VALIDTIME SELECT EmpName, COUNT(PosID) FROM POSITION "
                "GROUP BY PosID",
                figure3_db,
            )

    def test_desc_order_rejected(self, figure3_db):
        with pytest.raises(SQLSyntaxError):
            parse_temporal_query(
                "VALIDTIME SELECT PosID FROM POSITION ORDER BY PosID DESC",
                figure3_db,
            )
