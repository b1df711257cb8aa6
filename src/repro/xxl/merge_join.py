"""Middleware sort-merge equi-join.

"Temporal join and join are implemented as sort-merge joins" (Section 4.1):
both inputs must arrive sorted on their join attributes (the optimizer's
rules T2/T3 insert the sorts), NULLs last as MiniDB's ``ORDER BY`` and
``SORT^M`` put them; a NULL key joins nothing.  Output order: sorted on the
left join attribute — and the algorithm is order preserving within value
packs, as all middleware algorithms are.
"""

from __future__ import annotations

from typing import Iterator

from repro.algebra.expressions import Expression
from repro.dbms.costmodel import CostMeter
from repro.xxl.cursor import BatchReader, Cursor, GeneratorCursor


def read_group(
    reader: BatchReader, position: int, first_row: tuple
) -> tuple[list[tuple], tuple | None]:
    """Collect the run of rows sharing ``first_row[position]``.

    Returns the group and the first row of the *next* group (or ``None``).
    """
    read = reader.read
    value = first_row[position]
    group = [first_row]
    while True:
        row = read()
        if row is None or row[position] != value:
            return group, row
        group.append(row)


class MergeJoinCursor(GeneratorCursor):
    """Sort-merge equi-join of two sorted inputs."""

    algorithm = "JOIN^M"

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
        super().__init__(left.schema, (left, right))

    def detail(self) -> str:
        return f"On: {self.left_attr}={self.right_attr}"

    def _open(self) -> None:
        self._left.init()
        self._right.init()
        self.schema = self._left.schema.concat(self._right.schema)
        super()._open()

    def _generate(self) -> Iterator[tuple]:
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
        try:
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
        except TypeError:
            # The inputs arrive NULLs last: from the first NULL key on either
            # side nothing is left that can join.  Anything else re-raises.
            if left_value is not None and right_value is not None:
                raise

    def _close(self) -> None:
        super()._close()
        try:
            self._left.close()
        finally:
            self._right.close()
