"""``FILTER^M`` — middleware selection (Section 3.3).

Selection is implemented in the middleware "because it is sometimes needed
— for example, if there is a selection between two temporal algorithms to
be performed in the middleware, it would be inefficient to transfer the
intermediate result to the DBMS solely for the purpose of selection."
Order preserving.
"""

from __future__ import annotations

from repro.algebra.expressions import Expression
from repro.dbms.costmodel import CostMeter
from repro.xxl.cursor import Cursor


class FilterCursor(Cursor):
    """Pipelined selection: passes through rows satisfying the predicate."""

    algorithm = "FILTER^M"

    def __init__(
        self,
        input: Cursor,
        predicate: Expression,
        meter: CostMeter | None = None,
    ):
        super().__init__(input.schema, (input,))
        self._input = input
        self._predicate_expr = predicate
        self._predicate = None
        self._meter = meter

    def detail(self) -> str:
        return f"Predicate: {self._predicate_expr.to_sql()}"

    def _open(self) -> None:
        self._input.init()
        # The input schema may only be known after its init (SQLCursor).
        self.schema = self._input.schema
        self._predicate = self._predicate_expr.compile(self.schema)

    def _next_batch(self, n: int) -> list[tuple]:
        # Work input-batch-wise: one pull + one C-level filter per input
        # batch.  A low-selectivity predicate may need several input
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
        return self._park_surplus(out, n)

    def _close(self) -> None:
        self._input.close()
