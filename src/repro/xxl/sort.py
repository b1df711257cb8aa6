"""``SORT^M`` — external merge sort in the middleware.

The input is consumed in bounded runs; each run is sorted in memory and the
runs are merged with a loser-tree-equivalent k-way heap merge
(:func:`heapq.merge`).  For inputs that fit in one run this degenerates to a
plain in-memory sort.  The sort is stable, so sorting on a key refinement
preserves existing order on equal keys (relevant for rule T12).
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence

from repro.dbms.costmodel import CostMeter
from repro.dbms.sql.functions import nulls_last
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

    def _generate(self) -> Iterator[tuple]:
        positions = [self.schema.index_of(key) for key in self.keys]

        def key(row: tuple) -> tuple:
            return tuple(row[p] for p in positions)

        def null_safe_key(row: tuple) -> tuple:
            return tuple(nulls_last(row[p]) for p in positions)

        def sort_run(run: list[tuple]) -> list[tuple]:
            # MiniDB's ORDER BY: NULLs last, and only a run that meets one
            # is sorted again, from its input order, on the wrapped key.
            try:
                return sorted(run, key=key)
            except TypeError:
                return sorted(run, key=null_safe_key)

        # Runs are cut at run_size rows, wherever the input's batches break.
        runs: list[list[tuple]] = []
        current: list[tuple] = []
        count = 0
        run_size = self._run_size
        while batch := self._input.next_batch():
            current.extend(batch)
            count += len(batch)
            while len(current) >= run_size:
                runs.append(sort_run(current[:run_size]))
                del current[:run_size]
        if current:
            runs.append(sort_run(current))
        if self._meter is not None and count > 1:
            self._meter.charge_cpu(int(count * max(1, count.bit_length())))
        if not runs:
            return
        if len(runs) == 1:
            yield from runs[0]
            return
        # Each run's order agrees with the wrapped key, NULLs or not.
        yield from heapq.merge(*runs, key=null_safe_key)

    def _close(self) -> None:
        super()._close()
        self._input.close()
