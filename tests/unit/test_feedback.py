"""Unit tests for the performance-feedback loop (Section 7, and the
abstract's "uses performance feedback from the DBMS to adapt its
partitioning of subsequent queries")."""

import pytest

from repro.core.engine import TransferObservation
from repro.core.learner import FeedbackAdapter
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.optimizer.costs import CostFactors


def obs(direction="up", tuples=1000, width=50, seconds=0.01):
    return TransferObservation(
        direction=direction,
        tuples=tuples,
        bytes=tuples * width,
        seconds=seconds,
    )


class TestTransferObservation:
    def test_per_tuple_microseconds(self):
        assert obs(tuples=1000, seconds=0.001).per_tuple_us == pytest.approx(1.0)

    def test_zero_tuples_safe(self):
        assert obs(tuples=0).per_tuple_us == 0.0


class TestFeedbackAdapter:
    def test_moves_toward_observation(self):
        factors = CostFactors(p_tmr=1.0, p_tm=0.0)
        adapter = FeedbackAdapter(smoothing=0.5)
        # Observed 10 us/tuple, current estimate 1: EMA midpoint is 5.5.
        updated = adapter.apply(factors, [obs(seconds=0.01, tuples=1000)])
        assert updated.p_tmr == pytest.approx(5.5)

    def test_down_direction_updates_p_tdr(self):
        factors = CostFactors(p_tdr=1.0, p_td=0.0)
        adapter = FeedbackAdapter(smoothing=1.0)
        updated = adapter.apply(
            factors, [obs(direction="down", seconds=0.004, tuples=1000)]
        )
        assert updated.p_tdr == pytest.approx(4.0)

    def test_per_byte_share_subtracted(self):
        # 10 us/tuple observed, 0.1 us/B * 50 B = 5 us already explained.
        factors = CostFactors(p_tmr=0.0, p_tm=0.1)
        adapter = FeedbackAdapter(smoothing=1.0)
        updated = adapter.apply(factors, [obs(seconds=0.01, tuples=1000, width=50)])
        assert updated.p_tmr == pytest.approx(5.0)

    def test_small_transfers_ignored(self):
        factors = CostFactors(p_tmr=1.0)
        adapter = FeedbackAdapter(min_tuples=100)
        updated = adapter.apply(factors, [obs(tuples=5, seconds=1.0)])
        assert updated is factors
        assert adapter.observations_applied == 0

    def test_no_observations_returns_same_object(self):
        factors = CostFactors()
        assert FeedbackAdapter().apply(factors, []) is factors

    def test_counts_applications(self):
        adapter = FeedbackAdapter()
        adapter.apply(CostFactors(), [obs(), obs(direction="down")])
        assert adapter.observations_applied == 2

    def test_unknown_direction_skipped_and_not_counted(self):
        factors = CostFactors(p_tmr=1.0, p_tdr=1.0)
        adapter = FeedbackAdapter(smoothing=1.0)
        updated = adapter.apply(factors, [obs(direction="sideways")])
        assert updated is factors
        assert adapter.observations_applied == 0

    def test_nonpositive_seconds_skipped(self):
        # A zero/negative timing would drag the EMA toward zero.
        factors = CostFactors(p_tmr=5.0, p_tm=0.0)
        adapter = FeedbackAdapter(smoothing=1.0)
        updated = adapter.apply(
            factors, [obs(seconds=0.0), obs(seconds=-0.001)]
        )
        assert updated is factors
        assert adapter.observations_applied == 0

    def test_valid_observation_still_applies_among_skipped(self):
        factors = CostFactors(p_tmr=1.0, p_tm=0.0)
        adapter = FeedbackAdapter(smoothing=1.0)
        updated = adapter.apply(
            factors,
            [obs(seconds=0.0), obs(direction="bogus"), obs(seconds=0.01, tuples=1000)],
        )
        assert updated.p_tmr == pytest.approx(10.0)
        assert adapter.observations_applied == 1

    def test_smoothing_bounds(self):
        with pytest.raises(ValueError):
            FeedbackAdapter(smoothing=0.0)
        with pytest.raises(ValueError):
            FeedbackAdapter(smoothing=1.5)

    def test_converges_under_repetition(self):
        factors = CostFactors(p_tmr=100.0, p_tm=0.0)
        adapter = FeedbackAdapter(smoothing=0.3)
        for _ in range(30):
            factors = adapter.apply(factors, [obs(seconds=0.002, tuples=1000)])
        assert factors.p_tmr == pytest.approx(2.0, rel=0.05)


class TestTangoIntegration:
    @pytest.fixture
    def db(self):
        instance = MiniDB()
        instance.execute("CREATE TABLE R (K INT, T1 DATE, T2 DATE)")
        rows = ", ".join(f"({i % 10}, {i % 50}, {i % 50 + 10})" for i in range(400))
        instance.execute(f"INSERT INTO R VALUES {rows}")
        return instance

    def temporal_query(self):
        return (
            "VALIDTIME SELECT K, COUNT(K) FROM R GROUP BY K ORDER BY K"
        )

    def test_adaptive_updates_factors(self, db):
        tango = Tango(db, config=TangoConfig(adaptive=True), factors=CostFactors(p_tmr=1e6))
        before = tango.planner.factors.p_tmr
        tango.query(self.temporal_query())
        assert tango.planner.factors.p_tmr < before  # moved toward reality

    def test_non_adaptive_keeps_factors(self, db):
        tango = Tango(db, config=TangoConfig(adaptive=False))
        before = tango.planner.factors
        tango.query(self.temporal_query())
        assert tango.planner.factors is before

    def test_observations_collected_even_when_not_adaptive(self, db):
        from repro.core.plans import compile_plan

        tango = Tango(db)
        optimization = tango.optimize(self.temporal_query())
        execution = compile_plan(optimization.plan, tango.connection)
        outcome = tango.executor.engine.execute(execution)
        ups = [o for o in outcome.observations if o.direction == "up"]
        assert ups
        assert all(o.seconds >= 0 for o in ups)
        assert ups[0].tuples > 0

    def test_adaptation_is_used_by_next_optimization(self, db):
        tango = Tango(db, config=TangoConfig(adaptive=True), factors=CostFactors(p_tmr=1e6))
        first_optimizer = tango.planner.optimizer
        tango.query(self.temporal_query())
        assert tango.planner.optimizer is not first_optimizer  # rebuilt on update
