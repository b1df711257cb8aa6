"""Middleware sort-merge equi-join.

"Temporal join and join are implemented as sort-merge joins" (Section 4.1):
both inputs must arrive sorted on their join attributes (the optimizer's
rules T2/T3 insert the sorts).  Output order: sorted on the left join
attribute — and the algorithm is order preserving within value packs, as all
middleware algorithms are.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from typing import Iterator

from repro.algebra.expressions import Expression
from repro.dbms.costmodel import CostMeter
from repro.xxl.columnar import ColumnBatch, ColumnarUnsupported, compile_columnar
from repro.xxl.cursor import BatchReader, Cursor, GeneratorCursor


def read_group(source, position: int, first_row: tuple) -> tuple[list[tuple], tuple | None]:
    """Collect the run of rows sharing ``first_row[position]``.

    *source* is a :class:`~repro.xxl.cursor.BatchReader` (the joins' fast
    path) or a plain :class:`~repro.xxl.cursor.Cursor`.  Returns the group
    and the first row of the *next* group (or ``None``).
    """
    if isinstance(source, BatchReader):
        read = source.read
    else:
        # Plain cursor: stay row-at-a-time so no rows are left stranded in
        # a throwaway reader's batch buffer.
        def read() -> tuple | None:
            return source.next() if source.has_next() else None

    value = first_row[position]
    group = [first_row]
    while True:
        row = read()
        if row is None or row[position] != value:
            return group, row
        group.append(row)


class _ColumnSide:
    """One sorted input of the columnar merge join.

    Holds the current :class:`ColumnBatch` plus its key column and a scan
    position; advancing *gallops* — ``bisect`` over the sorted key column —
    instead of comparing row by row.
    """

    __slots__ = ("cursor", "size", "key_pos", "batch", "keys", "pos", "done")

    def __init__(self, cursor: Cursor, size: int, key_pos: int):
        self.cursor = cursor
        self.size = size
        self.key_pos = key_pos
        self.batch: ColumnBatch | None = None
        self.keys: list = []
        self.pos = 0
        self.done = False

    def ensure(self) -> bool:
        """True when a current row exists (refilling as needed)."""
        while not self.done and (self.batch is None or self.pos >= len(self.keys)):
            batch = self.cursor.next_column_batch(self.size)
            if batch is None:
                self.done = True
                self.batch = None
                return False
            self.batch = batch
            self.keys = batch.column_list(self.key_pos)
            self.pos = 0
        return self.batch is not None and self.pos < len(self.keys)

    def key(self):
        return self.keys[self.pos]

    def skip_below(self, target) -> None:
        """Gallop to the first key ``>= target`` within the current batch
        (the caller's compare loop refills across batches).  Incomparable
        keys degrade to the row path's sequential ``<`` scan, raising
        exactly where it would."""
        try:
            self.pos = bisect_left(self.keys, target, self.pos)
        except TypeError:
            keys = self.keys
            position = self.pos
            total = len(keys)
            while position < total and keys[position] < target:
                position += 1
            self.pos = position

    def take_pack(self, value) -> list[ColumnBatch]:
        """Consume the run of rows whose key equals *value* (which the
        current row is known to carry), spanning batches as needed."""
        parts: list[ColumnBatch] = []
        while True:
            keys = self.keys
            position = self.pos
            total = len(keys)
            end = _run_end(keys, position, total, value)
            if end > position:
                parts.append(self.batch.slice(position, end))
                self.pos = end
            if self.pos < total:
                return parts
            if not self.ensure():
                return parts
            if self.keys[self.pos] != value:
                return parts


def _run_end(keys: list, position: int, total: int, value) -> int:
    """End of the run of *value* at *position*: ``bisect_right`` when the
    column is genuinely sorted (verified by a uniformity count), else the
    row path's linear equality scan."""
    try:
        end = bisect_right(keys, value, position, total)
    except TypeError:
        end = -1
    if end > position and keys[position:end].count(value) == end - position:
        return end
    end = position + 1
    while end < total and keys[end] == value:
        end += 1
    return end


class MergeJoinCursor(GeneratorCursor):
    """Sort-merge equi-join of two sorted inputs."""

    def __init__(
        self,
        left: Cursor,
        right: Cursor,
        left_attr: str,
        right_attr: str,
        residual: Expression | None = None,
        meter: CostMeter | None = None,
    ):
        self._left = left
        self._right = right
        self.left_attr = left_attr
        self.right_attr = right_attr
        self._residual_expr = residual
        self._meter = meter
        self._cols_mode = False
        super().__init__(left.schema)

    def _open(self) -> None:
        self._left.init()
        self._right.init()
        self.schema = self._left.schema.concat(self._right.schema)
        self._cols_mode = self.columnar != "off"
        self._columnar_residual = None
        self._row_residual = None
        if self._cols_mode and self._residual_expr is not None:
            self._row_residual = self._residual_expr.compile(self.schema)
            try:
                self._columnar_residual = compile_columnar(
                    self._residual_expr, self.schema, self.columnar
                )
            except ColumnarUnsupported:
                self._cols_mode = False
        if self._cols_mode:
            self._column_gen: Iterator[ColumnBatch] | None = None
            self._cpending: ColumnBatch | None = None
            self._row_face = False
        super()._open()

    # -- columnar path -----------------------------------------------------

    def _next_column_batch(self, n: int) -> ColumnBatch | None:
        if not self._cols_mode or self._row_face:
            return super()._next_column_batch(n)
        return self._serve_columns(n)

    def _next_batch(self, n: int) -> list[tuple]:
        # Serve row batches straight off the column packs — one zip
        # transpose per batch instead of one generator resumption per row.
        if not self._cols_mode or self._row_face:
            return super()._next_batch(n)
        batch = self._serve_columns(n)
        return batch.to_rows() if batch is not None else []

    def _serve_columns(self, n: int) -> ColumnBatch | None:
        if self._column_gen is None:
            self._column_gen = self._column_join()
        parts: list[ColumnBatch] = []
        filled = 0
        if self._cpending is not None:
            parts.append(self._cpending)
            filled = len(self._cpending)
            self._cpending = None
        while filled < n:
            pack = next(self._column_gen, None)
            if pack is None:
                break
            parts.append(pack)
            filled += len(pack)
        if not parts:
            return None
        combined = ColumnBatch.concat(parts)
        if len(combined) > n:
            self._cpending = combined.slice(n, len(combined))
            combined = combined.slice(0, n)
        return combined

    def _column_join(self) -> Iterator[ColumnBatch]:
        """Sort-merge over key *columns*: compare one key per pack instead
        of one per row, gallop past non-matching runs, and emit each value
        pack's cross product column-wise."""
        meter = self._meter
        left = _ColumnSide(
            self._left, self.batch_size, self._left.schema.index_of(self.left_attr)
        )
        right = _ColumnSide(
            self._right,
            self.batch_size,
            self._right.schema.index_of(self.right_attr),
        )
        while left.ensure() and right.ensure():
            if meter is not None:
                meter.charge_cpu(1)
            left_value = left.key()
            right_value = right.key()
            if left_value < right_value:
                left.skip_below(right_value)
            elif left_value > right_value:
                right.skip_below(left_value)
            else:
                left_pack = ColumnBatch.concat(left.take_pack(left_value))
                right_pack = ColumnBatch.concat(right.take_pack(right_value))
                pack = self._cross_pack(left_pack, right_pack)
                if len(pack):
                    yield pack

    def _cross_pack(
        self, left_pack: ColumnBatch, right_pack: ColumnBatch
    ) -> ColumnBatch:
        """The pack cross product, column-wise: each left column repeats
        every value ``m`` times (one per right row); each right column is
        tiled ``k`` times — both C-speed list operations.  The residual,
        when present, filters via a bitmap with an exact row fallback."""
        k = len(left_pack)
        m = len(right_pack)
        if self._meter is not None:
            self._meter.charge_cpu(k * m)
        width_left = len(left_pack.columns)
        if m == 1:
            left_columns = [left_pack.column_list(i) for i in range(width_left)]
        else:
            left_columns = [
                list(chain.from_iterable(zip(*repeat(left_pack.column_list(i), m))))
                for i in range(width_left)
            ]
        width_right = len(right_pack.columns)
        if k == 1:
            right_columns = [right_pack.column_list(i) for i in range(width_right)]
        else:
            right_columns = [
                right_pack.column_list(i) * k for i in range(width_right)
            ]
        combined = ColumnBatch(
            self.schema,
            left_columns + right_columns,
            k * m,
            self._column_backend(),
        )
        if self._columnar_residual is None:
            return combined
        try:
            bitmap = self._columnar_residual(combined)
            return combined.filter(bitmap)
        except Exception:
            self.columnar_fallbacks += 1
            rows = list(filter(self._row_residual, combined.to_rows()))
            return ColumnBatch.from_rows(self.schema, rows, self._column_backend())

    def _generate(self) -> Iterator[tuple]:
        if self._cols_mode:
            self._row_face = True
            while True:
                batch = self._serve_columns(self.batch_size)
                if batch is None:
                    return
                yield from batch.to_rows()
        left_pos = self._left.schema.index_of(self.left_attr)
        right_pos = self._right.schema.index_of(self.right_attr)
        residual = (
            self._residual_expr.compile(self.schema)
            if self._residual_expr is not None
            else None
        )
        meter = self._meter

        left_reader = BatchReader(self._left, self.batch_size)
        right_reader = BatchReader(self._right, self.batch_size)
        left_row = left_reader.read()
        right_row = right_reader.read()
        while left_row is not None and right_row is not None:
            if meter is not None:
                meter.charge_cpu(1)
            left_value = left_row[left_pos]
            right_value = right_row[right_pos]
            if left_value < right_value:
                left_row = left_reader.read()
            elif left_value > right_value:
                right_row = right_reader.read()
            else:
                left_group, left_row = read_group(left_reader, left_pos, left_row)
                right_group, right_row = read_group(right_reader, right_pos, right_row)
                for l_row in left_group:
                    for r_row in right_group:
                        if meter is not None:
                            meter.charge_cpu(1)
                        combined = l_row + r_row
                        if residual is None or residual(combined):
                            yield combined

    def _close(self) -> None:
        super()._close()
        if self._cols_mode:
            self._column_gen = None
            self._cpending = None
        self._left.close()
        self._right.close()
