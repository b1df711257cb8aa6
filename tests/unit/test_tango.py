"""Unit tests for the Tango facade."""

import pytest

from repro.core.tango import QueryResult, Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import ConnectionPool
from repro.errors import DatabaseError, PlanError
from repro.resilience import FaultInjector, FaultPolicy


@pytest.fixture
def tango(figure3_db):
    return Tango(figure3_db)


class TestQueryPath:
    def test_temporal_aggregation_query(self, tango):
        result = tango.query(
            "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION "
            "GROUP BY PosID ORDER BY PosID"
        )
        assert result.rows == [
            (1, 2, 5, 1),
            (1, 5, 20, 2),
            (1, 20, 25, 1),
            (2, 5, 10, 1),
        ]

    def test_result_metadata(self, tango):
        result = tango.query(
            "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID"
        )
        assert result.schema.has("COUNTofPosID")
        assert result.estimated_cost is not None
        assert result.class_count > 0
        assert result.element_count > 0
        assert result.plan is not None

    def test_temporal_join_query(self, tango):
        result = tango.query(
            "VALIDTIME SELECT A.PosID, A.EmpName, B.EmpName FROM POSITION A, "
            "POSITION B WHERE A.PosID = B.PosID ORDER BY PosID"
        )
        assert len(result.rows) == 5

    def test_passthrough_regular_sql(self, tango):
        result = tango.query("SELECT COUNT(*) FROM POSITION")
        assert result.rows == [(3,)]
        assert result.plan is None

    def test_passthrough_ddl(self, tango):
        result = tango.query("CREATE TABLE SIDE (X INT)")
        assert result.rows == []
        assert tango.db.has_table("SIDE")

    def test_result_is_iterable_sized(self, tango):
        result = tango.query("VALIDTIME SELECT PosID FROM POSITION")
        assert len(result) == 3
        assert len(list(result)) == 3


class TestPlanAPI:
    def test_parse_returns_initial_plan(self, tango):
        plan = tango.parse("VALIDTIME SELECT PosID FROM POSITION")
        assert plan.location.value == "middleware"

    def test_optimize_accepts_sql_or_plan(self, tango):
        sql = (
            "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID"
        )
        from_sql = tango.optimize(sql)
        from_plan = tango.optimize(tango.parse(sql))
        assert from_sql.cost == from_plan.cost

    def test_execute_plan_validates(self, tango):
        from repro.algebra.builder import scan

        invalid = (
            scan(tango.db, "POSITION")
            .to_middleware()
            .taggr(group_by=["PosID"], count="PosID")  # missing sort
            .build()
        )
        with pytest.raises(PlanError):
            tango.execute_plan(invalid)

    def test_explain_contains_plan_and_costs(self, tango):
        text = tango.explain(
            "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID"
        )
        assert "cost breakdown" in text
        assert "Scan(POSITION)" in text

    def test_plan_cost_positive(self, tango):
        plan = tango.parse("VALIDTIME SELECT PosID FROM POSITION")
        assert tango.plan_cost(plan) > 0


class TestStatisticsLifecycle:
    def test_refresh_statistics(self, tango):
        tango.db.execute("INSERT INTO POSITION VALUES (3, 'Ann', 1, 9)")
        tango.refresh_statistics()
        stats = tango.planner.collector.collect("POSITION")
        assert stats.cardinality == 4

    def test_histogram_toggle(self, figure3_db):
        with_hist = Tango(figure3_db, config=TangoConfig(use_histograms=True))
        without = Tango(figure3_db, config=TangoConfig(use_histograms=False))
        assert with_hist.planner.predicate_estimator.use_histograms
        assert not without.planner.predicate_estimator.use_histograms

    def test_calibrate_returns_factors(self, tango):
        factors = tango.calibrate(sizes=(50,))
        # The two-term transfer fit may attribute everything to the
        # per-tuple share in-process; the combined cost is always positive.
        assert factors.p_tmr + factors.p_tm > 0
        assert tango.planner.factors is factors


class TestTangoConfig:
    def test_defaults(self):
        config = TangoConfig()
        assert config.use_histograms is True
        assert config.adaptive is False
        assert config.tracing is False

    def test_frozen(self):
        with pytest.raises(Exception):
            TangoConfig().adaptive = True

    def test_config_kwargs_carry_through(self, figure3_db):
        tango = Tango(
            figure3_db,
            config=TangoConfig(use_histograms=False, adaptive=True),
        )
        assert tango.config.adaptive is True
        assert not tango.planner.predicate_estimator.use_histograms

    def test_config_is_read_only(self, figure3_db):
        tango = Tango(figure3_db)
        with pytest.raises(AttributeError):
            tango.config = TangoConfig(use_histograms=False)

    def test_unknown_kwargs_error_too(self, figure3_db):
        with pytest.raises(TypeError):
            Tango(figure3_db, no_such_option=1)

    def test_a_settings_keyword_is_pythons_own_type_error(self, figure3_db):
        """No bespoke door: a settings keyword (they live in TangoConfig)
        gets the error any unexpected argument gets."""
        with pytest.raises(TypeError, match="unexpected keyword argument 'adaptive'"):
            Tango(figure3_db, adaptive=True)


class TestLifecycle:
    def test_context_manager_closes_connection(self, figure3_db):
        with Tango(figure3_db) as tango:
            tango.query("VALIDTIME SELECT PosID FROM POSITION")
            assert not tango.closed
        assert tango.closed
        assert tango.connection.closed
        with pytest.raises(DatabaseError):
            tango.connection.cursor()
        with pytest.raises(DatabaseError):
            tango.query("SELECT PosID FROM POSITION")  # passthrough too

    def test_close_is_idempotent_and_keeps_metrics_readable(self, figure3_db):
        tango = Tango(figure3_db)
        tango.query("VALIDTIME SELECT PosID FROM POSITION")
        tango.close()
        tango.close()
        assert tango.metrics.value("queries_total") == 1


class TestSuppliedPool:
    """A caller's pool brings its own injector: every leased connection
    runs under it, so it is the instance's."""

    @staticmethod
    def spiking_pool(db) -> ConnectionPool:
        policy = FaultPolicy(latency_p=1.0, latency_seconds=0.0)
        return ConnectionPool(db, size=2, injector=FaultInjector(policy, seed=0))

    def test_a_second_injector_beside_the_pool_is_refused(self, figure3_db):
        pool = self.spiking_pool(figure3_db)
        injector = FaultInjector(FaultPolicy(), seed=0)
        with pytest.raises(ValueError, match="not both"):
            Tango(figure3_db, fault_injector=injector, pool=pool)
        assert pool.in_use == 0
        pool.close()

    def test_the_pools_injector_reports_to_the_instances_metrics(self, figure3_db):
        pool = self.spiking_pool(figure3_db)
        with Tango(figure3_db, pool=pool) as tango:
            tango.query("VALIDTIME SELECT PosID FROM POSITION")
            assert tango.fault_injector is pool.injector
            assert tango.metrics.value("latency_spikes") > 0
        pool.close()


class TestTimingFields:
    def test_elapsed_covers_execution(self, tango):
        result = tango.query(
            "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID"
        )
        assert result.execution_seconds is not None
        assert result.execution_seconds > 0.0
        # Total query time includes parse/optimize/translate on top of the
        # engine share (this was conflated before the observability layer).
        assert result.elapsed_seconds >= result.execution_seconds

    def test_passthrough_sets_both(self, tango):
        result = tango.query("SELECT COUNT(*) FROM POSITION")
        assert result.execution_seconds == result.elapsed_seconds


class TestQueryResultToDict:
    def test_round_trip_shape(self, figure3_db):
        tango = Tango(figure3_db, config=TangoConfig(tracing=True))
        result = tango.query(
            "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID"
        )
        exported = result.to_dict()
        assert exported["columns"] == list(result.schema.names)
        assert exported["rows"] == [list(row) for row in result.rows]
        assert exported["trace"]["name"] == "query"
        assert exported["execution_seconds"] <= exported["elapsed_seconds"]

    def test_trace_none_without_tracing(self, tango):
        result = tango.query("VALIDTIME SELECT PosID FROM POSITION")
        assert result.to_dict()["trace"] is None
