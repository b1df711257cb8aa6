"""``FILTER^M`` — middleware selection (Section 3.3).

Selection is implemented in the middleware "because it is sometimes needed
— for example, if there is a selection between two temporal algorithms to
be performed in the middleware, it would be inefficient to transfer the
intermediate result to the DBMS solely for the purpose of selection."
Order preserving.

With ``columnar`` enabled the predicate is evaluated column-wise into a
selection bitmap (:func:`repro.xxl.columnar.compile_columnar`) and applied
with :meth:`ColumnBatch.filter`; any exception during vectorized
evaluation falls back to the exact row-wise predicate for that batch, so
short-circuit semantics (``AND`` hiding a division by zero, incomparable
types) are preserved bit-for-bit.
"""

from __future__ import annotations

from repro.algebra.expressions import Expression
from repro.dbms.costmodel import CostMeter
from repro.xxl.columnar import ColumnBatch, ColumnarUnsupported, compile_columnar
from repro.xxl.cursor import Cursor


class FilterCursor(Cursor):
    """Pipelined selection: passes through rows satisfying the predicate."""

    def __init__(
        self,
        input: Cursor,
        predicate: Expression,
        meter: CostMeter | None = None,
    ):
        super().__init__(input.schema)
        self._input = input
        self._predicate_expr = predicate
        self._predicate = None
        self._columnar_predicate = None
        self._surplus: ColumnBatch | None = None
        self._meter = meter

    @property
    def predicate(self) -> Expression:
        return self._predicate_expr

    def _open(self) -> None:
        self._input.init()
        # The input schema may only be known after its init (SQLCursor).
        self.schema = self._input.schema
        self._predicate = self._predicate_expr.compile(self.schema)
        if self.columnar != "off":
            try:
                self._columnar_predicate = compile_columnar(
                    self._predicate_expr, self.schema, self.columnar
                )
            except ColumnarUnsupported:
                self._columnar_predicate = None

    def _next(self) -> tuple:
        assert self._predicate is not None
        surplus = self._surplus
        if surplus is not None and len(surplus):
            # Columnar overshoot parked earlier; serve it before pulling
            # the input again so protocol mixing keeps row order.
            row = surplus.slice(0, 1).to_rows()[0]
            self._surplus = surplus.slice(1, len(surplus)) if len(surplus) > 1 else None
            return row
        while self._input.has_next():
            row = self._input.next()
            if self._meter is not None:
                self._meter.charge_cpu(1)
            if self._predicate(row):
                return row
        raise StopIteration

    def _next_batch(self, n: int) -> list[tuple]:
        if self.columnar != "off" and self._columnar_predicate is not None:
            batch = self._pull_columns(n)
            return batch.to_rows() if batch is not None else []
        return self._row_next_batch(n)

    def _row_next_batch(self, n: int) -> list[tuple]:
        # Work input-batch-wise: one pull + one list comprehension per
        # input batch.  A low-selectivity predicate may need several input
        # batches to fill n rows; a high-selectivity one may overshoot, and
        # the surplus is parked in the shared look-ahead buffer.
        predicate = self._predicate
        assert predicate is not None
        meter = self._meter
        out: list[tuple] = []
        size = max(n, self.batch_size)
        while len(out) < n:
            batch = self._input.next_batch(size)
            if not batch:
                break
            if meter is not None:
                meter.charge_cpu(len(batch))
            out.extend(filter(predicate, batch))
        if len(out) > n:
            self._lookahead.extend(out[n:])
            del out[n:]
        return out

    def _next_column_batch(self, n: int) -> ColumnBatch | None:
        if self.columnar == "off" or self._columnar_predicate is None:
            # Row shim over the row implementation directly (the generic
            # shim would bounce through _next_batch and recurse).
            rows = self._row_next_batch(n)
            if not rows:
                return None
            return ColumnBatch.from_rows(self.schema, rows, self._column_backend())
        meter = self._meter
        parts: list[ColumnBatch] = []
        filled = 0
        if self._surplus is not None:
            parts.append(self._surplus)
            filled = len(self._surplus)
            self._surplus = None
        size = max(n, self.batch_size)
        while filled < n:
            batch = self._input.next_column_batch(size)
            if batch is None:
                break
            if meter is not None:
                meter.charge_cpu(len(batch))
            kept = self._apply_predicate(batch)
            if len(kept):
                parts.append(kept)
                filled += len(kept)
        if not parts:
            return None
        combined = ColumnBatch.concat(parts)
        if len(combined) > n:
            self._surplus = combined.slice(n, len(combined))
            combined = combined.slice(0, n)
        return combined

    def _apply_predicate(self, batch: ColumnBatch) -> ColumnBatch:
        """Vectorized bitmap filter with an exact row-semantics fallback.

        Any exception during column-wise evaluation — divide-by-zero that a
        short-circuiting row ``AND`` might never reach, incomparable types
        partway down a column — reruns the batch row-by-row with the
        compiled row predicate, which raises (or not) exactly where the row
        path would.
        """
        try:
            bitmap = self._columnar_predicate(batch)
            return batch.filter(bitmap)
        except Exception:
            self.columnar_fallbacks += 1
            rows = list(filter(self._predicate, batch.to_rows()))
            return ColumnBatch.from_rows(self.schema, rows, batch.backend)

    def _close(self) -> None:
        self._input.close()
