"""Middleware temporal join ⋈^T — sort-merge with period intersection.

Matches rows on the join attributes *and* overlapping validity periods,
producing the intersection period (the DBMS translation of the same
operator is a regular join plus ``A.T1 < B.T2 AND A.T2 > B.T1`` and
``GREATEST``/``LEAST`` projections — Figure 5).

Both inputs must be sorted on their join attributes, NULLs last; a NULL key
joins nothing, as in :mod:`repro.xxl.merge_join`.  Output schema: left
non-temporal attributes, right non-temporal attributes (disambiguated),
then ``T1``/``T2`` with the intersection.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator

from repro.algebra.expressions import col, compile_row
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.costmodel import CostMeter
from repro.xxl.cursor import BatchReader, Cursor, GeneratorCursor
from repro.xxl.merge_join import read_group


class TemporalJoinCursor(GeneratorCursor):
    """Sort-merge temporal equi-join of two sorted inputs."""

    algorithm = "TJOIN^M"

    def __init__(
        self,
        left: Cursor,
        right: Cursor,
        left_attr: str,
        right_attr: str,
        period: tuple[str, str] = ("T1", "T2"),
        meter: CostMeter | None = None,
    ):
        self._left = left
        self._right = right
        self.left_attr = left_attr
        self.right_attr = right_attr
        self.period = period
        self._meter = meter
        super().__init__(left.schema, (left, right))

    def detail(self) -> str:
        return f"On: {self.left_attr}={self.right_attr}"

    def _open(self) -> None:
        self._left.init()
        self._right.init()
        t1, t2 = self.period
        skip = {t1.lower(), t2.lower()}
        left_keep = [a for a in self._left.schema if a.name.lower() not in skip]
        right_keep = [a for a in self._right.schema if a.name.lower() not in skip]
        combined = Schema(left_keep).concat(Schema(right_keep))
        self.schema = Schema(
            list(combined)
            + [Attribute(t1, AttrType.DATE), Attribute(t2, AttrType.DATE)]
        )
        # ``row -> tuple`` of what each side contributes to an output row.
        self._left_values = compile_row([col(a.name) for a in left_keep], self._left.schema)
        self._right_values = compile_row([col(a.name) for a in right_keep], self._right.schema)
        super()._open()

    def _generate(self) -> Iterator[tuple]:
        left_schema = self._left.schema
        right_schema = self._right.schema
        left_pos = left_schema.index_of(self.left_attr)
        right_pos = right_schema.index_of(self.right_attr)
        t1, t2 = self.period
        left_t1 = left_schema.index_of(t1)
        left_t2 = left_schema.index_of(t2)
        right_t1 = right_schema.index_of(t1)
        right_t2 = right_schema.index_of(t2)
        left_values = self._left_values
        right_values = self._right_values
        right_start = itemgetter(right_t1)
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
                    # Within a value pack, check every period pair; packs are
                    # small for realistic keys, and sorting the pack by start
                    # time lets us stop early.  What a pair needs of a right
                    # row is built once per pack, not once per pair.
                    right_group.sort(key=right_start)
                    rights = [(r[right_t1], r[right_t2], right_values(r)) for r in right_group]
                    for l_row in left_group:
                        l_start = l_row[left_t1]
                        l_end = l_row[left_t2]
                        l_values = left_values(l_row)
                        considered = 0
                        for r_start, r_end, r_values in rights:
                            if r_start >= l_end:
                                break  # sorted by start: nothing later overlaps
                            considered += 1
                            if l_start < r_end:  # overlap; the break settled r_start < l_end
                                yield l_values + r_values + (
                                    l_start if l_start > r_start else r_start,
                                    l_end if l_end < r_end else r_end,
                                )
                        if meter is not None:
                            meter.charge_cpu(considered)
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
