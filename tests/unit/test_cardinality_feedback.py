"""Unit tests for the persistent cardinality feedback store.

Covers the q-error metric, fingerprint invariances (predicate
reordering, commuted joins, cardinality-preserving wrappers), EMA
convergence with tolerance-gated materiality, persistence round-trips
across Tango sessions, and the planning epoch following material changes.
"""

import pytest

from repro.algebra.expressions import And, ColumnRef, Comparison, Literal
from repro.algebra.operators import (
    Join,
    Location,
    Project,
    Scan,
    Select,
    Sort,
    TransferD,
    TransferM,
)
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.core.learner import (
    CardinalityFeedbackStore,
    plan_fingerprint,
    qerror,
    trusted_nodes,
)
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from tests.conftest import learn

R_SCHEMA = Schema(
    [Attribute("RA", AttrType.INT), Attribute("RB", AttrType.INT)]
)
S_SCHEMA = Schema(
    [Attribute("SA", AttrType.INT), Attribute("SC", AttrType.INT)]
)


def lt(column, value):
    return Comparison("<", ColumnRef(column), Literal(value))


def gt(column, value):
    return Comparison(">", ColumnRef(column), Literal(value))


class TestQError:
    def test_exact_estimate_is_one(self):
        assert qerror(100, 100) == 1.0

    def test_symmetric(self):
        assert qerror(10, 1000) == qerror(1000, 10) == 100.0

    def test_clamps_empty_results(self):
        assert qerror(0, 0) == 1.0
        assert qerror(0, 50) == 50.0
        assert qerror(0.2, 5) == 5.0


class TestFingerprint:
    def test_conjunct_order_normalizes(self):
        scan = Scan("R", R_SCHEMA)
        forward = Select(scan, Location.DBMS, And((lt("RA", 5), gt("RB", 2))))
        reversed_ = Select(scan, Location.DBMS, And((gt("RB", 2), lt("RA", 5))))
        assert plan_fingerprint(forward) == plan_fingerprint(reversed_)

    def test_different_predicates_differ(self):
        scan = Scan("R", R_SCHEMA)
        one = Select(scan, Location.DBMS, lt("RA", 5))
        other = Select(scan, Location.DBMS, lt("RA", 7))
        assert plan_fingerprint(one) != plan_fingerprint(other)

    def test_cardinality_preserving_wrappers_are_transparent(self):
        scan = Scan("R", R_SCHEMA)
        base = plan_fingerprint(scan)
        assert plan_fingerprint(TransferM(scan)) == base
        assert plan_fingerprint(Sort(TransferM(scan), Location.MIDDLEWARE, ("RA",))) == base
        assert (
            plan_fingerprint(
                Project.of_columns(TransferM(scan), ["RA"], Location.MIDDLEWARE)
            )
            == base
        )
        assert plan_fingerprint(TransferD(TransferM(scan))) == base

    def test_commuted_join_sides_share_fingerprint(self):
        r, s = Scan("R", R_SCHEMA), Scan("S", S_SCHEMA)
        left = Join(TransferM(r), TransferM(s), Location.MIDDLEWARE, "RA", "SA")
        right = Join(TransferM(s), TransferM(r), Location.MIDDLEWARE, "SA", "RA")
        fp = plan_fingerprint(left)
        assert fp is not None
        assert fp == plan_fingerprint(right)

    def test_temp_table_subtree_is_unlearnable(self):
        temp = Scan("TANGO_TMP_1_2", R_SCHEMA)
        assert plan_fingerprint(temp) is None
        assert plan_fingerprint(Select(temp, Location.DBMS, lt("RA", 5))) is None
        # A join with one unlearnable side is itself unlearnable.
        join = Join(
            TransferM(Scan("R", R_SCHEMA)),
            TransferM(temp),
            Location.MIDDLEWARE,
            "RA",
            "RA",
        )
        assert plan_fingerprint(join) is None

    def test_fingerprint_is_a_session_stable_string(self):
        # Raw strings, never hash() values: Python string hashing is
        # per-process seeded, which would break persistence.
        scan = Scan("R", R_SCHEMA)
        assert plan_fingerprint(scan) == "scan:r"


class TestTrustedNodes:
    def test_join_inputs_are_untrusted(self):
        r, s = Scan("R", R_SCHEMA), Scan("S", S_SCHEMA)
        tm_r, tm_s = TransferM(r), TransferM(s)
        join = Join(tm_r, tm_s, Location.MIDDLEWARE, "RA", "SA")
        trusted = trusted_nodes(join)
        assert id(join) in trusted
        assert id(tm_r) not in trusted
        assert id(r) not in trusted

    def test_blocking_operator_restores_trust(self):
        r, s = Scan("R", R_SCHEMA), Scan("S", S_SCHEMA)
        sorted_side = Sort(TransferM(r), Location.MIDDLEWARE, ("RA",))
        join = Join(
            sorted_side, TransferM(s), Location.MIDDLEWARE, "RA", "SA"
        )
        assert id(sorted_side.input) in trusted_nodes(join)
        # ... but not under the strict policy used for zero-row rechecks.
        assert id(sorted_side.input) not in trusted_nodes(
            join, restore_blocking=False
        )


class TestFeedbackStoreEMA:
    def test_first_observation_seeds(self):
        store = CardinalityFeedbackStore(MiniDB())
        assert store.observe("fp", 500) is True
        assert store.learned_cardinality("fp") == 500.0
        assert store.observations("fp") == 1

    def test_converges_toward_repeated_actual(self):
        store = CardinalityFeedbackStore(MiniDB(), smoothing=0.3)
        store.observe("fp", 10)
        for _ in range(40):
            store.observe("fp", 1000)
        assert store.learned_cardinality("fp") == pytest.approx(1000, rel=0.01)

    def test_epoch_stops_moving_once_converged(self):
        store = CardinalityFeedbackStore(MiniDB(), smoothing=0.3, tolerance=0.05)
        assert store.observe("fp", 1000) is True  # a new entry is material
        # Identical re-observations are immaterial: the learner leaves the
        # planning epoch alone, so a converged workload keeps its
        # plan-cache hits.
        for _ in range(5):
            assert store.observe("fp", 1000) is False
        # A genuine shift is material again.
        assert store.observe("fp", 5000) is True

    def test_unknown_fingerprint(self):
        store = CardinalityFeedbackStore(MiniDB())
        assert store.learned_cardinality("missing") is None
        assert store.observations("missing") == 0


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "feedback.json")
        store = CardinalityFeedbackStore(MiniDB())
        store.observe("scan:r", 123)
        store.observe("select[RA < 5](scan:r)", 7)
        store.save(path)
        fresh = CardinalityFeedbackStore(MiniDB())
        assert fresh.load(path) == 2
        assert fresh.learned_cardinality("scan:r") == 123.0
        assert fresh.observations("select[RA < 5](scan:r)") == 1

    def test_load_overwrites_in_memory(self, tmp_path):
        path = str(tmp_path / "feedback.json")
        store = CardinalityFeedbackStore(MiniDB())
        store.observe("fp", 100)
        store.save(path)
        other = CardinalityFeedbackStore(MiniDB())
        other.observe("fp", 999)
        other.load(path)
        assert other.learned_cardinality("fp") == 100.0

    def test_round_trip_across_tango_sessions(self, tmp_path):
        path = str(tmp_path / "feedback.json")
        config = TangoConfig(learn_cardinalities=True, feedback_path=path)
        from tests.conftest import make_figure3_db

        sql = (
            "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION "
            "GROUP BY PosID ORDER BY PosID"
        )
        with Tango(make_figure3_db(), config=config) as first:
            baseline = first.query(sql).rows
            assert len(first.learner.store) > 0
        # close() persisted the learned store ...
        assert (tmp_path / "feedback.json").exists()
        # ... and a brand-new session loads it back and answers identically.
        with Tango(make_figure3_db(), config=config) as second:
            assert len(second.learner.store) > 0
            assert second.query(sql).rows == baseline

    def test_invalidated_entries_stay_gone_across_sessions(self, tmp_path):
        """An update that stales every entry must reach the file too, or
        the next session loads the stale entries back as fresh."""
        config = TangoConfig(
            learn_cardinalities=True, feedback_path=str(tmp_path / "feedback.json")
        )
        from tests.conftest import make_figure3_db

        db = make_figure3_db()
        with Tango(db, config=config) as first:
            first.query("VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID")
            assert len(first.learner.store) > 0
        with Tango(db, config=config) as second:
            assert len(second.learner.store) > 0
            second.apply_updates("POSITION", inserts=[(3, "Ann", 1, 4)])
            assert second.learner.store.to_dict()["entries"] == {}
        with Tango(db, config=config) as third:
            assert len(third.learner.store) == 0

    def test_missing_feedback_file_is_fine(self, tmp_path):
        config = TangoConfig(
            learn_cardinalities=True,
            feedback_path=str(tmp_path / "absent.json"),
        )
        from tests.conftest import make_figure3_db

        with Tango(make_figure3_db(), config=config) as tango:
            assert len(tango.learner.store) == 0


class TestPlanCacheEpoch:
    SQL = (
        "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID"
    )

    def _counters(self, tango):
        hits = tango.metrics.counter("plan_cache_hits").value
        misses = tango.metrics.counter("plan_cache_misses").value
        return hits, misses

    def test_feedback_epoch_invalidates_cached_plans(self, figure3_db):
        tango = Tango(figure3_db)
        tango.optimize(self.SQL)
        tango.optimize(self.SQL)
        hits, misses = self._counters(tango)
        assert hits == 1 and misses == 1
        # An epoch move means the learned world changed: the cached plan
        # was costed against stale estimates and must not be reused.
        learn(tango, "scan:somewhere", 42)
        tango.optimize(self.SQL)
        hits, misses = self._counters(tango)
        assert hits == 1 and misses == 2

    def test_converged_store_keeps_cache_hits(self, figure3_db):
        tango = Tango(figure3_db)
        learn(tango, "fp", 100)
        tango.optimize(self.SQL)
        # Immaterial updates leave the epoch alone: still a cache hit.
        learn(tango, "fp", 100)
        tango.optimize(self.SQL)
        hits, misses = self._counters(tango)
        assert hits == 1 and misses == 1
