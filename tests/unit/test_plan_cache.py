"""Unit tests for the plan cache and the query fingerprint."""

from repro.core.plan_cache import PlanCache, fingerprint
from repro.workloads import queries
from tests.conftest import make_figure3_db


class TestFingerprint:
    def test_whitespace_and_case_insensitive(self):
        assert fingerprint("SELECT  *\n FROM   POSITION") == fingerprint(
            "select * from position"
        )

    def test_trailing_semicolon_ignored(self):
        assert fingerprint("SELECT 1;") == fingerprint("SELECT 1")

    def test_string_literals_preserved(self):
        a = fingerprint("SELECT * FROM T WHERE Name = 'Alice'")
        b = fingerprint("SELECT * FROM T WHERE Name = 'alice'")
        assert a != b
        # Whitespace inside literals also survives normalization.
        assert fingerprint("SELECT * FROM T WHERE Name = 'a b'") != fingerprint(
            "SELECT * FROM T WHERE Name = 'a  b'"
        )

    def test_different_queries_differ(self):
        assert fingerprint("SELECT A FROM T") != fingerprint("SELECT B FROM T")

    def test_operator_tree_fingerprint(self):
        db = make_figure3_db()
        plan_a = queries.query1_initial_plan(db)
        plan_b = queries.query1_initial_plan(db)
        assert fingerprint(plan_a) == fingerprint(plan_b)
        other = queries.query3_initial_plan(db, "1995-01-01")
        assert fingerprint(plan_a) != fingerprint(other)
        # The same shape with a different literal is a different plan.
        assert fingerprint(queries.query3_initial_plan(db, "1995-01-01")) != (
            fingerprint(queries.query3_initial_plan(db, "1996-01-01"))
        )


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache(max_size=4)
        assert cache.get("k") is None
        cache.put("k", "plan")
        assert cache.get("k") == "plan"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.evictions == 1

    def test_zero_size_disables_caching(self):
        cache = PlanCache(max_size=0)
        cache.put("k", "plan")
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_to_dict(self):
        cache = PlanCache(max_size=8)
        cache.put("k", "plan")
        cache.get("k")
        cache.get("missing")
        assert cache.to_dict() == {
            "size": 1,
            "max_size": 8,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
        }
