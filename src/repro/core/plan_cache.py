"""A planning-epoch plan cache for the Tango middleware.

"Query Optimization in the Wild" observes that industrial systems avoid
re-optimizing repeated queries by caching plans; middleware is the natural
place to do it (QueryBooster intercepts at exactly this layer), and TANGO's
Queries 1–4 workload is repetitive by construction.  The cache maps

    (normalized query fingerprint, planning epoch)

to a finished :class:`~repro.optimizer.search.OptimizationResult`.  The
epoch component makes staleness structural rather than procedural: when
anything a plan is priced with changes — statistics, cost factors, learned
cardinalities — the :class:`~repro.core.planner.Planner` advances its
epoch, every old key stops matching, and the LRU discipline ages the dead
entries out.  There is no scan-and-invalidate pass and no ``clear``.

Plans are safe to share across executions: compilation
(:func:`repro.core.plans.compile_plan`) builds fresh cursors — and fresh
``TANGO_TMP`` names — per run, and never mutates the operator tree.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable


def fingerprint(query: object) -> str:
    """A normalized cache identity for a query.

    SQL text is case-folded and whitespace-collapsed *outside* single-quoted
    string literals, so ``SELECT …`` and ``select   …`` share a plan while
    ``WHERE Name = 'Alice'`` and ``… = 'alice'`` do not.  Operator trees
    fingerprint by their structural rendering.
    """
    if isinstance(query, str):
        parts = query.strip().rstrip(";").split("'")
        normalized = [
            " ".join(part.split()).lower() if index % 2 == 0 else part
            for index, part in enumerate(parts)
        ]
        return "'".join(normalized)
    pretty = getattr(query, "pretty", None)
    if callable(pretty):
        return pretty()
    return repr(query)


class PlanCache:
    """A bounded LRU map from plan-cache keys to optimization results.

    ``max_size <= 0`` disables caching entirely (every ``get`` misses,
    ``put`` is a no-op) — the ``plan_cache_size=0`` escape hatch.

    Thread-safe: the query service's workers share one planner and so one
    cache (any tenant's optimization is every tenant's hit), and
    concurrent ``move_to_end``/``popitem`` on an OrderedDict corrupt it
    without the lock.
    """

    def __init__(self, max_size: int = 64):
        self.max_size = max_size
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable):
        """The cached value for *key* (refreshing its recency), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, value: object) -> None:
        if self.max_size <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self.evictions += 1

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "max_size": self.max_size,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
