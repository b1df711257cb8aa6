"""Unit tests for materialized views: the refresh chooser's decision
boundary, the delta algebra's edges, and the update-path plumbing."""

from __future__ import annotations

import pytest

from repro.algebra import builder
from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.operators import AggregateSpec
from repro.core.learner import CardinalityFeedbackStore, plan_fingerprint
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.dbms.loader import DirectPathLoader
from repro.errors import CatalogError, DatabaseError, ViewError
from repro.views.delta import (
    Delta,
    DeltaState,
    DeltaUnsupported,
    apply_delta_rows,
    compute_delta,
    net_delta,
)
from repro.workloads.generator import (
    ColumnSpec,
    RandomRelationSpec,
    generate_relation_rows,
)
from repro.algebra.schema import AttrType


def uis_relation(name: str = "BASE", cardinality: int = 400) -> RandomRelationSpec:
    return RandomRelationSpec(
        name=name,
        columns=(ColumnSpec("K0", AttrType.INT, distinct=8),),
        cardinality=cardinality,
        window_start=0,
        window_end=365,
        max_duration=30,
        skew=0.5,
        seed=7,
    )


@pytest.fixture()
def tango():
    spec = uis_relation()
    db = MiniDB()
    DirectPathLoader(db).load(
        spec.name, spec.schema, generate_relation_rows(spec), temporary=False
    )
    db.analyze(spec.name)
    with Tango(db, TangoConfig(learn_cardinalities=True)) as instance:
        yield instance


def taggr_plan(db):
    return (
        builder.scan(db, "BASE")
        .taggr(group_by=("K0",), aggregates=(AggregateSpec("COUNT", "K0"),))
        .to_middleware()
        .build()
    )


def sample_rows(db, count: int) -> list[tuple]:
    return list(db.table("BASE").rows[:count])


class TestRefreshChooser:
    def test_tiny_delta_chooses_incremental(self, tango):
        tango.create_view("V", taggr_plan(tango.db))
        doomed = sample_rows(tango.db, 2)
        tango.apply_updates("BASE", deletes=doomed)
        decision = tango.views.choose("V")
        assert decision.strategy == "incremental"
        assert decision.delta_rows == 2
        assert decision.estimated_incremental_us < decision.estimated_full_us

    def test_delta_rivaling_table_chooses_full(self, tango):
        tango.create_view("V", taggr_plan(tango.db))
        everything = list(tango.db.table("BASE").rows)
        # Replace every row with a shifted copy: churn ≈ 2 — the delta
        # alone is twice the table, so recomputing must win.  (Deleting
        # and reinserting *identical* rows would net to an empty delta.)
        shifted = [(k, t1 + 1000, t2 + 1000) for k, t1, t2 in everything]
        tango.apply_updates("BASE", inserts=shifted, deletes=everything)
        decision = tango.views.choose("V")
        assert decision.strategy == "full"
        assert decision.churn == pytest.approx(2.0, rel=0.01)

    def test_corrupted_feedback_estimate_flips_the_decision(self, tango):
        view = tango.create_view("V", taggr_plan(tango.db))
        tango.apply_updates("BASE", deletes=sample_rows(tango.db, 2))
        assert tango.views.choose("V").strategy == "incremental"
        # Poison the learned cardinality for the view's fingerprint: the
        # chooser prices the re-merge at the estimate it believes, so a
        # wildly inflated entry makes incremental look ruinous.
        fingerprint = plan_fingerprint(view.plan)
        assert fingerprint is not None
        tango.learner.store.observe(fingerprint, 1e9)
        decision = tango.views.choose("V")
        assert decision.strategy == "full"
        assert "feedback" in decision.reason

    def test_honest_feedback_keeps_incremental(self, tango):
        view = tango.create_view("V", taggr_plan(tango.db))
        fingerprint = plan_fingerprint(view.plan)
        tango.apply_updates("BASE", deletes=sample_rows(tango.db, 2))
        # An accurate learned cardinality (the actual view size) must not
        # disturb the low-churn decision.  (Observed after the update —
        # apply_updates rightly invalidates entries that read BASE.)
        tango.learner.store.observe(
            fingerprint, tango.db.table("V").cardinality
        )
        decision = tango.views.choose("V")
        assert decision.strategy == "incremental"
        assert "feedback" in decision.reason

    def test_forced_strategy_bypasses_the_cost_model(self, tango):
        tango.create_view("V", taggr_plan(tango.db))
        everything = list(tango.db.table("BASE").rows)
        shifted = [(k, t1 + 1000, t2 + 1000) for k, t1, t2 in everything]
        tango.apply_updates("BASE", inserts=shifted, deletes=everything)
        outcome = tango.refresh_view("V", strategy="incremental")
        assert outcome.decision.forced
        assert outcome.strategy == "incremental"

    def test_unknown_strategy_rejected(self, tango):
        tango.create_view("V", taggr_plan(tango.db))
        with pytest.raises(ViewError):
            tango.refresh_view("V", strategy="sideways")


class TestRefreshExecution:
    def test_refresh_clears_pending_and_counts(self, tango):
        tango.create_view("V", taggr_plan(tango.db))
        tango.apply_updates("BASE", deletes=sample_rows(tango.db, 3))
        view = tango.views.get("V")
        assert view.pending_rows == 3
        outcome = tango.refresh_view("V")
        assert view.pending_rows == 0
        assert view.refreshes == 1
        assert outcome.rows == tango.db.table("V").cardinality
        assert tango.metrics.counter("view_refreshes").value == 1
        if outcome.strategy == "incremental":
            assert tango.metrics.counter("view_refresh_incremental").value == 1

    def test_unsupported_shape_falls_back_to_full(self, tango):
        plan = (
            builder.scan(tango.db, "BASE")
            .project("K0")
            .dedup()
            .to_middleware()
            .build()
        )
        tango.create_view("V", plan)
        tango.apply_updates("BASE", deletes=sample_rows(tango.db, 1))
        outcome = tango.refresh_view("V", strategy="incremental")
        assert outcome.strategy == "full"
        assert tango.metrics.counter("view_refresh_fallbacks").value == 1

    def test_drifted_view_contents_fall_back_to_full(self, tango):
        plan = (
            builder.scan(tango.db, "BASE")
            .select(Comparison("<=", col("K0"), lit(50)))
            .to_middleware()
            .build()
        )
        tango.create_view("V", plan)
        # Tamper with the materialization: strip every stored copy of one
        # row, then delete that row from the base — the delta's delete no
        # longer reconciles, and the refresh must notice rather than
        # corrupt the view.
        doomed = tango.db.table("BASE").rows[0]
        view_table = tango.db.table("V")
        view_table.rows[:] = [row for row in view_table.rows if row != doomed]
        tango.apply_updates("BASE", deletes=[doomed])
        outcome = tango.refresh_view("V", strategy="incremental")
        assert outcome.strategy == "full"
        assert tango.metrics.counter("view_refresh_fallbacks").value == 1
        # The fallback healed the drift.
        oracle = tango.execute_plan(tango.optimize(plan).plan)
        assert tango.db.table("V").cardinality == len(oracle.rows)

    def test_explain_banner_records_the_decision(self, tango):
        tango.create_view("V", taggr_plan(tango.db))
        tango.apply_updates("BASE", deletes=sample_rows(tango.db, 2))
        outcome = tango.refresh_view("V", explain=True)
        assert outcome.report is not None
        assert outcome.report.banner.startswith("view refresh:")
        assert "churn" in str(outcome.report)
        assert outcome.report.to_dict()["banner"] == outcome.report.banner


class TestViewLifecycle:
    def test_create_collision_raises(self, tango):
        tango.create_view("V", taggr_plan(tango.db))
        with pytest.raises(ViewError):
            tango.create_view("V", taggr_plan(tango.db))
        with pytest.raises(ViewError):
            tango.create_view("BASE", taggr_plan(tango.db))

    def test_drop_view_removes_table_and_registration(self, tango):
        tango.create_view("V", taggr_plan(tango.db))
        assert tango.list_views() == ["V"]
        tango.drop_view("V")
        assert tango.list_views() == []
        assert not tango.db.has_table("V")
        with pytest.raises(ViewError):
            tango.views.get("V")

    def test_view_is_queryable_as_a_table(self, tango):
        tango.create_view("V", taggr_plan(tango.db))
        result = tango.db.execute("SELECT COUNT(*) FROM V")
        assert result.fetchall()[0][0] == tango.db.table("V").cardinality


class TestUpdatePath:
    def test_unknown_table_raises(self, tango):
        with pytest.raises(CatalogError):
            tango.apply_updates("NOPE", inserts=[(1, 0, 1)])

    def test_missing_delete_row_aborts_atomically(self, tango):
        before = list(tango.db.table("BASE").rows)
        with pytest.raises(DatabaseError):
            tango.apply_updates(
                "BASE", deletes=[before[0], ("no-such", -1, -2)]
            )
        assert tango.db.table("BASE").rows == before

    def test_updates_move_the_stats_delta_until_analyze(self, tango):
        assert tango.db.stats_delta_of("BASE") == 0
        tango.apply_updates("BASE", deletes=sample_rows(tango.db, 2))
        # apply_updates re-ANALYZEs, so the delta is consumed already.
        assert tango.db.stats_delta_of("BASE") == 0
        tango.db.table("BASE").append((1, 0, 5))
        assert tango.db.stats_delta_of("BASE") == 1
        tango.db.analyze("BASE")
        assert tango.db.stats_delta_of("BASE") == 0


class TestDeltaAlgebra:
    def test_net_delta_cancels_matching_rows(self):
        inserts, deletes = net_delta([(1,), (2,), (2,)], [(2,), (3,)])
        assert sorted(inserts) == [(1,), (2,)]
        assert deletes == [(3,)]

    def test_select_distributes_over_the_delta(self, tango):
        plan = (
            builder.scan(tango.db, "BASE")
            .select(Comparison("<=", col("K0"), lit(1)))
            .build()
        )
        passing = (0, 10, 20)
        failing = (5, 10, 20)
        state = DeltaState(
            tango.db, {"base": ([passing, failing], [])}
        )
        delta = compute_delta(plan, state)
        assert delta.inserts == [passing]
        assert delta.deletes == []

    def test_unsupported_operator_raises(self, tango):
        plan = builder.scan(tango.db, "BASE").project("K0").dedup().build()
        state = DeltaState(tango.db, {"base": ([(1, 0, 1)], [])})
        with pytest.raises(DeltaUnsupported):
            compute_delta(plan, state)

    def test_apply_delta_rows_round_trips(self):
        stored = [(1, 5), (2, 7)]
        updated = apply_delta_rows(stored, Delta([(3, 9)], [(1, 5)]))
        assert updated == [(2, 7), (3, 9)]


class TestFeedbackInvalidation:
    def test_invalidate_table_drops_matching_entries(self):
        store = CardinalityFeedbackStore()
        store.observe("scan:base", 10)
        store.observe("select[K0 <= 1](scan:base)", 4)
        store.observe("scan:other", 9)
        assert store.invalidate_table("BASE") == 2
        assert store.learned_cardinality("scan:other") == 9
        assert store.learned_cardinality("scan:base") is None

    def test_invalidate_table_matches_whole_table_names(self):
        """The UIS names collide by prefix; a substring match dropped the
        variants' entries on every POSITION update."""
        store = CardinalityFeedbackStore()
        store.observe("select[PayRate > 9](scan:position_17000)", 3)
        store.observe("scan:position", 10)
        store.observe("scan:employee", 7)
        assert store.invalidate_table("POSITION") == 1
        assert store.learned_cardinality("select[PayRate > 9](scan:position_17000)") == 3
        assert store.learned_cardinality("scan:employee") == 7
        # Never too few: the table anywhere in a join still goes.
        joined = "join[](empid=scan:employee;empid=select[T1 < 5](scan:position))"
        store.observe(joined, 4)
        store.observe("temporaljoin[t1,t2](posid=scan:position_8000;posid=scan:position)", 5)
        assert store.invalidate_table("position") == 2
        assert store.invalidate_table("POSITION_8000") == 0
        assert store.invalidate_table("EMPLOYEE") == 1
        assert store.learned_cardinality(joined) is None

    def test_invalidate_table_without_matches_keeps_epoch(self):
        store = CardinalityFeedbackStore()
        store.observe("scan:other", 9)
        assert store.invalidate_table("BASE") == 0
        assert store.learned_cardinality("scan:other") == 9
