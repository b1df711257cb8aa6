"""The bounded LRU map behind the plan, shape and prepared-plan caches (DESIGN.md §23).

The planner keeps its finished plans and its explored memos in one each
(:attr:`repro.core.planner.Planner.cache`, :attr:`~repro.core.planner.Planner.shapes`),
and each MiniDB its prepared SELECTs (:attr:`repro.dbms.database.MiniDB.prepared`).
Its own module, importing nothing of the package, so that ``dbms`` need not
import ``core``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable


class LRUCache:
    """A bounded LRU map that counts what it serves.

    ``hits`` counts the lookups a kept value answered, ``misses`` the values
    put (each built because a lookup found none), ``evictions`` the values
    aged out.  Thread-safe: the query service's workers share one planner
    and one database, and concurrent ``move_to_end``/``popitem`` corrupt an
    OrderedDict without the lock.  Nothing is built under it, so a lookup
    never waits for another thread's build.
    """

    def __init__(self, max_size: int):
        self.max_size = max_size
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, valid: Callable[[object], bool] | None = None):
        """The value kept under *key*, now the most recent, or None; a kept
        value that is no longer *valid* is dropped."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                return None
            if valid is not None and not valid(value):
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        """Keep *value* under *key* as the most recent."""
        with self._lock:
            self.misses += 1
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "max_size": self.max_size,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
