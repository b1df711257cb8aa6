"""Unit tests for materialized views: the refresh chooser's decision
boundary, the delta algebra's edges, and the update-path plumbing."""

from __future__ import annotations

import json
import math

import pytest

from repro.algebra import builder
from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.operators import AggregateSpec
from repro.algebra.rows import canonical_rows
from repro.core.learner import CardinalityFeedbackStore, plan_fingerprint
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.dbms.loader import DirectPathLoader
from repro.errors import CatalogError, DatabaseError, ViewError
from repro.views import delta as delta_module
from repro.views.delta import (
    Delta,
    DeltaMismatch,
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
from repro.algebra.schema import Attribute, AttrType, Schema
from tests.conftest import pending_delta


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

    def fresh_rows(self, tango, plan):
        return canonical_rows(tango.execute_plan(tango.optimize(plan).plan).rows)

    def test_another_tangos_updates_force_a_recompute(self, tango):
        """Only this Tango's ``apply_updates`` feeds its views' delta logs;
        a write by another composition root over the same database must
        not leave an "incremental" refresh answering from stale rows."""
        plan = taggr_plan(tango.db)
        tango.create_view("V", plan)
        with Tango(tango.db) as other:
            other.apply_updates("BASE", deletes=sample_rows(tango.db, 50))
        outcome = tango.refresh_view("V")
        assert outcome.decision.strategy == "incremental"  # the log is empty
        assert outcome.strategy == "full"
        assert tango.db.table("V").rows == self.fresh_rows(tango, plan)
        # Up to date again: the next logged batch refreshes incrementally.
        tango.apply_updates("BASE", deletes=sample_rows(tango.db, 1))
        assert tango.refresh_view("V").strategy == "incremental"
        assert tango.db.table("V").rows == self.fresh_rows(tango, plan)

    def test_writes_straight_on_the_database_force_a_recompute(self, tango):
        plan = taggr_plan(tango.db)
        tango.create_view("V", plan)
        tango.db.insert_rows("BASE", sample_rows(tango.db, 50))
        outcome = tango.refresh_view("V", strategy="incremental")
        assert outcome.strategy == "full"
        assert tango.metrics.counter("view_refresh_fallbacks").value == 1
        assert tango.db.table("V").rows == self.fresh_rows(tango, plan)

    def test_a_type_error_in_the_splice_is_not_a_fallback(self, tango, monkeypatch):
        """Only the three named errors mean "recompute"; a ``TypeError`` is a
        defect and propagates, uncounted.  (A root ``TAGGR`` view would take
        the window rule, which never splices a delta: the view is a filter.)"""
        plan = (
            builder.scan(tango.db, "BASE")
            .select(Comparison("<=", col("K0"), lit(50)))
            .to_middleware()
            .build()
        )
        tango.create_view("V", plan)
        tango.apply_updates("BASE", deletes=sample_rows(tango.db, 2))

        def broken(stored, delta):
            raise TypeError("a bug in the splice")

        monkeypatch.setattr("repro.views.manager.apply_delta_rows", broken)
        with pytest.raises(TypeError, match="a bug in the splice"):
            tango.refresh_view("V", strategy="incremental")
        assert tango.metrics.counter("view_refresh_fallbacks").value == 0

    def test_non_finite_sums_refresh(self):
        """``inf`` is not an integral float: normalizing it must not call
        ``int()`` on it."""
        schema = Schema(
            [
                Attribute("K", AttrType.INT),
                Attribute("X", AttrType.FLOAT),
                Attribute("T1", AttrType.DATE),
                Attribute("T2", AttrType.DATE),
            ]
        )
        sql = "VALIDTIME SELECT K, SUM(X) FROM F GROUP BY K ORDER BY K"
        twins = []
        for strategy in ("incremental", "full"):
            db = MiniDB()
            DirectPathLoader(db).load(
                "F", schema, [(1, 0.5, 0, 10), (2, 1.25, 2, 5)], temporary=False
            )
            db.analyze("F")
            with Tango(db) as tango:
                tango.create_view("V", sql)
                tango.apply_updates("F", inserts=[(3, math.inf, 1, 3), (4, -math.inf, 0, 2)])
                assert tango.refresh_view("V", strategy).strategy == strategy
                assert tango.metrics.counter("view_refresh_fallbacks").value == 0
            twins.append(list(db.table("V").rows))
        assert twins[0] == twins[1]
        assert (3, 1, 3, math.inf) in twins[0] and (4, 0, 2, -math.inf) in twins[0]

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
        assert tango.views.names() == ["V"]
        tango.views.drop("V")
        assert tango.views.names() == []
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

    def test_bad_insert_row_aborts_before_anything_is_applied(self, tango):
        # Was: the delete and the first insert applied, the batch never
        # reached the view log, no ANALYZE ran, and an "incremental"
        # refresh then reported success over a stale view.
        tango.create_view("V", taggr_plan(tango.db))
        before = list(tango.db.table("BASE").rows)
        changes = tango.db.table("BASE").changes
        statistics = tango.db.statistics_of("BASE")
        with pytest.raises(DatabaseError):
            tango.apply_updates(
                "BASE", inserts=[(9, 0, 1), (7, 0)], deletes=[before[0]]
            )
        assert tango.db.table("BASE").rows == before
        assert tango.views.get("V").pending_rows == 0
        assert tango.db.statistics_of("BASE") is statistics
        assert tango.db.table("BASE").changes == changes

    def test_updates_move_the_stats_delta_until_analyze(self, tango):
        assert pending_delta(tango.db, "BASE") is None  # bulk-loaded: untracked
        tango.apply_updates("BASE", deletes=sample_rows(tango.db, 2))
        # apply_updates re-ANALYZEs, so the delta is consumed already.
        assert pending_delta(tango.db, "BASE") == 0
        tango.db.table("BASE").append((1, 0, 5))
        assert pending_delta(tango.db, "BASE") == 1
        tango.db.analyze("BASE")
        assert pending_delta(tango.db, "BASE") == 0


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


EVENT_SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("V", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)

#: A second group no case touches: its rows must come through untouched.
BYSTANDERS = [(9, 1, 0, 50), (9, 2, 20, 30)]

#: name → (rows of group 1 before, inserts, deletes): the edges the window
#: rule's exactness argument rests on.
WINDOW_EDGES = {
    # [0,5) [5,10) [10,12) → [0,10): two result rows merge across instant 5,
    # so the window must reach back to 0, an instant of the unchanged row.
    "delete_removes_unshared_breakpoint": (
        [(1, 7, 0, 10), (1, 8, 5, 12)], [], [(1, 8, 5, 12)],
    ),
    # Instant 5 survives in (1, 9, 5, 8): the window starts there.
    "delete_leaves_shared_breakpoint": (
        [(1, 7, 0, 10), (1, 8, 5, 12), (1, 9, 5, 8)], [], [(1, 8, 5, 12)],
    ),
    # TAGGR does not coalesce: [0,5) and [5,9) stay two rows.
    "insert_meets_a_neighbours_end": (
        [(1, 7, 0, 5), (1, 6, 20, 25)], [(1, 8, 5, 9)], [],
    ),
    "change_at_first_and_last_instant": (
        [(1, 7, 0, 5), (1, 8, 3, 9), (1, 9, 8, 14)],
        [(1, 5, 14, 16), (1, 4, 0, 2)],
        [(1, 7, 0, 5), (1, 9, 8, 14)],
    ),
    "whole_group_deleted": (
        [(1, 7, 0, 5), (1, 8, 3, 9)], [], [(1, 7, 0, 5), (1, 8, 3, 9)],
    ),
    "new_group_inserted": ([], [(1, 7, 0, 5), (1, 8, 3, 9)], []),
    "duplicate_rows_one_deleted": (
        [(1, 7, 0, 5), (1, 7, 0, 5), (1, 8, 3, 9)], [(1, 7, 0, 5)], [(1, 7, 0, 5)] * 2,
    ),
    # Changes at both ends of a long group: one hull, hence one wide window.
    "changes_far_apart": (
        [(1, v, 10 * v, 10 * v + 15) for v in range(12)],
        [(1, 3, 1, 4)],
        [(1, 11, 110, 125)],
    ),
}


def event_tango(
    rows,
    aggregates=tuple(AggregateSpec(func, "V") for func in ("COUNT", "SUM", "MIN", "MAX")),
) -> Tango:
    """A Tango over an EVENT table holding *rows*, with two views: a grouped
    and an ungrouped TAGGR, by default with every aggregate function."""
    db = MiniDB()
    DirectPathLoader(db).load("EVENT", EVENT_SCHEMA, rows, temporary=False)
    db.analyze("EVENT")
    tango = Tango(db)
    for name, group_by in (("GROUPED", ("K",)), ("UNGROUPED", ())):
        tango.create_view(
            name,
            builder.scan(db, "EVENT")
            .taggr(group_by=group_by, aggregates=aggregates)
            .to_middleware()
            .build(),
        )
    return tango


class TestWindowRule:
    @pytest.mark.parametrize("case", sorted(WINDOW_EDGES))
    def test_edge_case_matches_a_forced_full_twin(self, case):
        before, inserts, deletes = WINDOW_EDGES[case]
        rows = before + BYSTANDERS
        with event_tango(rows) as incremental, event_tango(rows) as full:
            for tango in (incremental, full):
                tango.apply_updates("EVENT", inserts, deletes)
            for view in ("GROUPED", "UNGROUPED"):
                assert incremental.refresh_view(view, "incremental").strategy == "incremental"
                assert full.refresh_view(view, "full").strategy == "full"
                assert list(incremental.db.table(view).rows) == list(
                    full.db.table(view).rows
                )
            assert incremental.metrics.counter("view_refresh_fallbacks").value == 0

    def test_merge_across_a_removed_breakpoint_is_in_the_delta(self):
        """The first case, as the delta itself: the old rows on both sides of
        the removed instant go, the one merged row comes."""
        before, inserts, deletes = WINDOW_EDGES["delete_removes_unshared_breakpoint"]
        with event_tango(before + BYSTANDERS) as tango:
            tango.apply_updates("EVENT", inserts, deletes)
            view = tango.views.get("GROUPED")
            delta = compute_delta(view.plan, DeltaState(tango.db, view.pending))
        assert sorted(delta.deletes) == [
            (1, 0, 5, 1, 7, 7, 7), (1, 5, 10, 2, 15, 7, 8), (1, 10, 12, 1, 8, 8, 8),
        ]
        assert delta.inserts == [(1, 0, 10, 1, 7, 7, 7)]

    def test_refresh_work_follows_the_delta_not_the_group(self, monkeypatch):
        """One changed row in a 500-row group: TAGGR^M is handed the few rows
        around it, once — the new window; the old one is read from the view.
        A silent fallback, or a return to whole-group recompute, fails here
        rather than in the benchmark."""
        rows = [(1, index % 10, 7 * index, 7 * index + 20) for index in range(500)]
        handed = []
        run_sorted = delta_module._run_sorted

        def counting(node, *inputs):
            handed.extend(len(rows) for rows in inputs)
            return run_sorted(node, *inputs)

        with event_tango(rows) as tango:
            tango.apply_updates("EVENT", [(1, 3, 1751, 1760)], [rows[250]])
            monkeypatch.setattr(delta_module, "_run_sorted", counting)
            for view in ("GROUPED", "UNGROUPED"):
                handed.clear()
                outcome = tango.refresh_view(view, strategy="incremental")
                assert outcome.strategy == "incremental"
                assert len(handed) == 1 and 0 < max(handed) < 0.2 * len(rows)
            assert tango.metrics.counter("view_refresh_fallbacks").value == 0

    @pytest.mark.parametrize("func, column", [("MAX", "T1"), ("MIN", "T2"), ("SUM", "T1")])
    def test_aggregate_over_a_period_column_falls_back_to_full(self, func, column):
        """Deleting [20, 50) leaves the window [20, 50) holding the long row
        clipped to it: MAX(T1) would read 20 there and net to an empty delta
        where a recompute says 0.  No rule, so the view is recomputed."""
        rows = [(1, 0, 0, 100), (1, 0, 10, 20), (1, 0, 50, 60), (1, 0, 20, 50)]
        aggregates = (AggregateSpec(func, column),)
        with event_tango(rows, aggregates) as refreshed, event_tango(rows, aggregates) as full:
            for tango in (refreshed, full):
                tango.apply_updates("EVENT", deletes=[rows[3]])
            view = refreshed.views.get("GROUPED")
            with pytest.raises(DeltaUnsupported):
                compute_delta(view.plan, DeltaState(refreshed.db, view.pending))
            for name in ("GROUPED", "UNGROUPED"):
                assert refreshed.refresh_view(name, "incremental").strategy == "full"
                full.refresh_view(name, "full")
                assert list(refreshed.db.table(name).rows) == list(full.db.table(name).rows)
            assert (1, 20, 50, 0 if column == "T1" else 100) in refreshed.db.table("GROUPED").rows
            assert refreshed.metrics.counter("view_refresh_fallbacks").value == 2

    def test_pending_insert_gone_from_the_table_falls_back_to_full(self, tango):
        """The window rule rebuilds a group's old state as its current rows
        minus the pending inserts; an insert the table no longer holds is
        drift, whatever group it is in."""
        tango.create_view("V", taggr_plan(tango.db))
        ghost = (1, 10, 20)
        tango.apply_updates("BASE", inserts=[ghost])
        tango.db.table("BASE").rows.remove(ghost)
        view = tango.views.get("V")
        with pytest.raises(DeltaMismatch):
            compute_delta(view.plan, DeltaState(tango.db, view.pending))
        assert tango.refresh_view("V", "incremental").strategy == "full"
        assert tango.metrics.counter("view_refresh_fallbacks").value == 1

    def test_a_recreated_base_is_recomputed_not_taken_for_the_old_one(self):
        """A base dropped and created again under its name, then given as
        many rows as the view's log counted, is another table: refresh
        recomputes instead of applying an empty delta to the old contents."""
        sql = "VALIDTIME SELECT K, COUNT(V) FROM EVENT GROUP BY K ORDER BY K"
        ddl = "CREATE TABLE EVENT (K INT, V INT, T1 DATE, T2 DATE)"
        db = MiniDB()
        db.execute(ddl)
        db.execute("INSERT INTO EVENT VALUES (1, 1, 2, 20), (1, 2, 5, 25), (2, 3, 5, 10)")
        with Tango(db) as tango:
            tango.create_view("V", sql)
            db.execute("DROP TABLE EVENT")
            db.execute(ddl)
            db.execute("INSERT INTO EVENT VALUES (3, 1, 1, 4), (3, 2, 2, 6), (4, 3, 7, 9)")
            db.analyze("EVENT")
            assert tango.refresh_view("V", "incremental").strategy == "full"
            assert sorted(db.table("V").rows) == sorted(tango.query(sql).rows)

    def test_null_period_has_no_rule(self, tango):
        """A NULL instant is no more a period the window rule can clip than
        one that ends before it starts: ``DeltaUnsupported``, not a bare
        ``TypeError``."""
        tango.create_view("V", taggr_plan(tango.db))
        tango.apply_updates("BASE", inserts=[(1, None, 20)])
        view = tango.views.get("V")
        with pytest.raises(DeltaUnsupported, match="NULL"):
            compute_delta(view.plan, DeltaState(tango.db, view.pending))

    def test_backwards_period_falls_back_to_full(self, tango):
        """The rule's argument needs T1 <= T2; a group holding a row that
        breaks it is recomputed instead."""
        tango.apply_updates("BASE", inserts=[(1, 40, 30)])
        tango.create_view("V", taggr_plan(tango.db))
        tango.apply_updates("BASE", inserts=[(1, 10, 20)])
        assert tango.refresh_view("V", "incremental").strategy == "full"
        assert tango.metrics.counter("view_refresh_fallbacks").value == 1


def store_over(*tables: str) -> tuple[MiniDB, CardinalityFeedbackStore]:
    """A feedback store over a database of one-column *tables*."""
    db = MiniDB()
    for table in tables:
        db.execute(f"CREATE TABLE {table} (K INT)")
        db.insert_rows(table, [(1,)])
    return db, CardinalityFeedbackStore(db)


class TestFeedbackInvalidation:
    """A learned cardinality is trusted while every table it reads holds
    the contents it was learned over, whoever writes them."""

    def test_a_write_stales_the_entries_that_read_the_table(self):
        db, store = store_over("BASE", "OTHER")
        store.observe("scan:base", 10)
        store.observe("select[K0 <= 1](scan:base)", 4)
        store.observe("scan:other", 9)
        db.insert_rows("BASE", [(2,)])
        assert store.learned_cardinality("scan:other") == 9
        assert store.learned_cardinality("scan:base") is None
        assert store.learned_cardinality("select[K0 <= 1](scan:base)") is None

    def test_whole_table_names_are_matched(self):
        """The UIS names collide by prefix; a substring match staled the
        variants' entries on every POSITION update."""
        db, store = store_over("POSITION", "POSITION_8000", "POSITION_17000", "EMPLOYEE")
        store.observe("select[PayRate > 9](scan:position_17000)", 3)
        store.observe("scan:position_8000", 8)
        store.observe("scan:position", 10)
        store.observe("scan:employee", 7)
        joined = "join[](empid=scan:employee;empid=select[T1 < 5](scan:position))"
        store.observe(joined, 4)
        mixed = "temporaljoin[t1,t2](posid=scan:position_8000;posid=scan:position)"
        store.observe(mixed, 5)
        db.insert_rows("POSITION", [(2,)])
        assert store.learned_cardinality("select[PayRate > 9](scan:position_17000)") == 3
        assert store.learned_cardinality("scan:position_8000") == 8
        assert store.learned_cardinality("scan:employee") == 7
        # Never too few: the table anywhere in a join still goes.
        assert store.learned_cardinality("scan:position") is None
        assert store.learned_cardinality(joined) is None
        assert store.learned_cardinality(mixed) is None
        db.insert_rows("EMPLOYEE", [(2,)])
        assert store.learned_cardinality("scan:employee") is None
        assert store.learned_cardinality("scan:position_8000") == 8

    def test_a_write_elsewhere_keeps_entries_and_epoch(self):
        db, store = store_over("BASE", "OTHER")
        store.observe("scan:other", 9)
        db.insert_rows("BASE", [(2,)])
        assert store.learned_cardinality("scan:other") == 9
        assert store.observe("scan:other", 9) is False  # immaterial

    def test_an_observation_of_a_stale_entry_starts_a_new_average(self):
        db, store = store_over("BASE")
        for _ in range(3):
            store.observe("scan:base", 10)
        db.insert_rows("BASE", [(2,)])
        assert store.observations("scan:base") == 0
        assert store.observe("scan:base", 1000) is True  # material, as a new entry
        assert store.learned_cardinality("scan:base") == 1000
        assert store.observations("scan:base") == 1

    def test_a_dropped_tables_entries_read_as_unknown(self):
        db, store = store_over("BASE", "OTHER")
        store.observe("scan:base", 10)
        store.observe("join[](k=scan:base;k=scan:other)", 5)
        db.drop_table("BASE")
        assert store.learned_cardinality("scan:base") is None
        assert store.learned_cardinality("join[](k=scan:base;k=scan:other)") is None

    def test_a_recreated_tables_count_never_repeats_a_remembered_one(self):
        # The new T reaches the row count the old one was learned at.
        db, store = store_over("T")
        db.insert_rows("T", [(2,), (3,)])
        store.observe("scan:t", 3)
        db.drop_table("T")
        db.execute("CREATE TABLE T (K INT)")
        db.insert_rows("T", [(4,), (5,), (6,)])
        assert store.learned_cardinality("scan:t") is None

    def test_close_after_a_write_persists_no_stale_entry(self, tango, tmp_path):
        path = tmp_path / "feedback.json"
        config = TangoConfig(learn_cardinalities=True, feedback_path=str(path))
        with Tango(tango.db, config) as learning:
            learning.query(taggr_plan(learning.db))
            learning.learner.store.observe("fp", 5)  # reads no table
            assert len(learning.learner.store) > 1
            learning.apply_updates("BASE", deletes=sample_rows(learning.db, 1))
        assert list(json.loads(path.read_text())["entries"]) == ["fp"]
