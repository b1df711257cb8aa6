"""Unit tests for the query fingerprint and the one LRU cache class."""

import sys
import threading

from repro.core.planner import fingerprint
from repro.core.tango import Tango
from repro.lru import LRUCache
from repro.workloads import queries
from tests.conftest import make_figure3_db


class TestFingerprint:
    def test_whitespace_insensitive_spelling_kept(self):
        assert fingerprint("SELECT  *\n FROM   POSITION") == fingerprint(
            "SELECT * FROM POSITION"
        )
        # An alias names a result column as it is spelled.
        assert fingerprint("SELECT A AS Num FROM T") != fingerprint("SELECT A AS NUM FROM T")

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


# -- the one LRU class ---------------------------------------------------------------------


class TestPlanCache:
    """The one LRU class: the planner's plans and shapes, and each
    database's prepared plans."""

    def test_miss_then_hit(self):
        cache = LRUCache(max_size=4)
        assert cache.get("k") is None
        cache.put("k", "plan")
        assert cache.get("k") == "plan"
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_order(self):
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert len(cache) == 2
        assert cache.evictions == 1
        cache.put("d", 4)  # c was put after a was refreshed: a goes
        assert list(cache._entries) == ["c", "d"]

    def test_a_value_no_longer_valid_is_dropped_and_counts_nothing(self):
        cache = LRUCache(max_size=4)
        cache.put("k", 1)
        assert cache.get("k", valid=lambda value: value == 2) is None
        assert "k" not in cache
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put("k", 2)
        assert cache.get("k", valid=lambda value: value == 2) == 2

    def test_misses_count_the_values_put(self):
        cache = LRUCache(max_size=4)
        for _ in range(3):
            assert cache.get("absent") is None
        assert cache.to_dict()["misses"] == 0
        cache.put("k", 1)
        cache.put("k", 2)
        assert (cache.misses, len(cache), cache.get("k")) == (2, 1, 2)

    def test_zero_size_disables_caching(self):
        cache = LRUCache(max_size=0)
        cache.put("k", "plan")
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_clear(self):
        cache = LRUCache(max_size=4)
        cache.put("k", 1)
        cache.clear()
        assert len(cache) == 0 and cache.get("k") is None

    def test_to_dict(self):
        cache = LRUCache(max_size=8)
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

    def test_threads_lose_no_count_and_overrun_no_bound(self):
        cache = LRUCache(max_size=2)
        gets, workers = 20_000, 12
        empty = [0] * workers

        def client(worker: int) -> None:
            for step in range(gets):
                key = (worker * 7 + step) % 24
                if cache.get(key) is None:
                    empty[worker] += 1
                    cache.put(key, step)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(w,)) for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.to_dict()
        assert stats["hits"] + sum(empty) == gets * workers
        assert stats["misses"] == sum(empty)
        assert stats["size"] == 2 == len(cache._entries)
        # Two threads may put one key: the second replaces, evicting nothing.
        assert 0 < stats["evictions"] <= stats["misses"] - stats["size"]

    def test_the_planner_and_the_database_share_the_class(self):
        db = make_figure3_db()
        with Tango(db) as tango:
            caches = (tango.planner.cache, tango.planner.shapes, db.prepared)
        assert {type(cache) for cache in caches} == {LRUCache}
        assert {cache.max_size for cache in caches} == {64}

