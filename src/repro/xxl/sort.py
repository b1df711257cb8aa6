"""``SORT^M`` — external merge sort in the middleware.

The input is consumed in bounded runs; each run is sorted in memory and the
runs are merged with a loser-tree-equivalent k-way heap merge
(:func:`heapq.merge`).  For inputs that fit in one run this degenerates to a
plain in-memory sort.  The sort is stable, so sorting on a key refinement
preserves existing order on equal keys (relevant for rule T12).
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Sequence

from repro.dbms.costmodel import CostMeter
from repro.xxl.cursor import GeneratorCursor, Cursor

#: Rows per in-memory run before the sort goes external.
DEFAULT_RUN_SIZE = 100_000


class SortCursor(GeneratorCursor):
    """Sorts its input on an attribute list (ascending)."""

    algorithm = "SORT^M"

    def __init__(
        self,
        input: Cursor,
        keys: Sequence[str],
        meter: CostMeter | None = None,
        run_size: int = DEFAULT_RUN_SIZE,
    ):
        self._input = input
        self.keys = tuple(keys)
        self._meter = meter
        self._run_size = max(1, run_size)
        super().__init__(input.schema, (input,))

    def detail(self) -> str:
        return f"Keys: {', '.join(self.keys)}"

    def _open(self) -> None:
        self._input.init()
        self.schema = self._input.schema
        super()._open()

    def _key_func(self) -> Callable[[tuple], tuple]:
        positions = [self.schema.index_of(key) for key in self.keys]
        return lambda row: tuple(row[p] for p in positions)

    def _generate(self) -> Iterator[tuple]:
        key = self._key_func()
        runs: list[list[tuple]] = []
        current: list[tuple] = []
        count = 0
        while True:
            batch = self._input.next_batch(
                min(self.batch_size, self._run_size - len(current))
            )
            if not batch:
                break
            current.extend(batch)
            count += len(batch)
            if len(current) >= self._run_size:
                current.sort(key=key)
                runs.append(current)
                current = []
        if current:
            current.sort(key=key)
            runs.append(current)
        if self._meter is not None and count > 1:
            self._meter.charge_cpu(int(count * max(1, count.bit_length())))
        if not runs:
            return
        if len(runs) == 1:
            yield from runs[0]
            return
        yield from heapq.merge(*runs, key=key)

    def _close(self) -> None:
        super()._close()
        self._input.close()
