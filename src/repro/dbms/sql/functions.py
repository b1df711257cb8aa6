"""Aggregate accumulators shared by the DBMS executor and the middleware.

Both MiniDB's ``GROUP BY`` executor and the middleware's ``TAGGR^M`` need
the same five SQL aggregates.  Accumulators support *add* only; the
temporal-aggregation sweep additionally needs *remove* support, provided by
:class:`SlidingAggregate` (COUNT/SUM/AVG remove in O(1); MIN/MAX keep a
value multiset — this asymmetry is why the paper's TAGGR^M re-sorts on T2
instead of maintaining aggregation trees).
"""

from __future__ import annotations

import heapq
from collections import Counter

from repro.errors import ExecutionError


def nulls_last(value: object) -> tuple[bool, object]:
    """A sort key placing NULL after every value, as Oracle orders an
    ascending sort (a descending one then puts NULL first).

    Wherever the plain values compare, this key orders them the same way,
    so a sort may retry with it after a ``TypeError`` from a NULL.
    """
    return (value is None, value)


class Accumulator:
    """Add-only accumulator for one aggregate over one group."""

    __slots__ = ("func", "count", "total", "best", "distinct")

    def __init__(self, func: str, distinct: bool = False):
        self.func = func
        self.count = 0
        self.total = 0.0
        self.best: object | None = None
        self.distinct: set | None = set() if distinct else None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self.distinct is not None:
            if value in self.distinct:
                return
            self.distinct.add(value)
        self.count += 1
        func = self.func
        if func in ("SUM", "AVG"):
            self.total += value  # type: ignore[operator]
        elif func == "MIN":
            if self.best is None or value < self.best:  # type: ignore[operator]
                self.best = value
        elif func == "MAX":
            if self.best is None or value > self.best:  # type: ignore[operator]
                self.best = value

    def result(self) -> object:
        func = self.func
        if func == "COUNT":
            return self.count
        if self.count == 0:
            return None
        if func == "SUM":
            return self.total
        if func == "AVG":
            return self.total / self.count
        return self.best


class SlidingAggregate:
    """An aggregate supporting add *and* remove, for interval sweeps.

    COUNT/SUM/AVG maintain running totals.  MIN/MAX maintain a lazy-deletion
    heap plus a multiset of live values, giving amortized O(log n) updates.
    """

    __slots__ = ("func", "count", "total", "_heap", "_live")

    def __init__(self, func: str):
        func = func.upper()
        if func not in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            raise ExecutionError(f"unsupported aggregate {func!r}")
        self.func = func
        self.count = 0
        self.total = 0.0
        self._heap: list = []
        self._live: Counter = Counter()

    def add(self, value: object) -> None:
        if value is None:
            return
        self.count += 1
        func = self.func
        if func in ("SUM", "AVG"):
            self.total += value  # type: ignore[operator]
        elif func == "MIN":
            heapq.heappush(self._heap, value)
            self._live[value] += 1
        elif func == "MAX":
            heapq.heappush(self._heap, _Reversed(value))
            self._live[value] += 1

    def remove(self, value: object) -> None:
        if value is None:
            return
        self.count -= 1
        func = self.func
        if func in ("SUM", "AVG"):
            self.total -= value  # type: ignore[operator]
        elif func in ("MIN", "MAX"):
            if self._live[value] <= 0:
                raise ExecutionError(f"removing {value!r} that was never added")
            self._live[value] -= 1

    def result(self) -> object:
        func = self.func
        if func == "COUNT":
            return self.count
        if self.count == 0:
            return None
        if func == "SUM":
            return self.total
        if func == "AVG":
            return self.total / self.count
        # MIN / MAX: pop dead heap entries lazily.
        while self._heap:
            top = self._heap[0]
            value = top.value if isinstance(top, _Reversed) else top
            if self._live[value] > 0:
                return value
            heapq.heappop(self._heap)
        return None

    @property
    def empty(self) -> bool:
        return self.count == 0


class _Reversed:
    """Orders values descending inside a min-heap (for MAX)."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value
