"""Result comparison with the paper's two equivalence types.

Section 4 distinguishes *list* equivalence (equal as ordered lists) from
*multiset* equivalence (equal up to order).  Two plans that both guarantee
an order on the same keys may still legitimately differ in the relative
order of tuples that tie on those keys, so the sound differential check is:

* **multiset**: the canonicalized row multisets must be identical, always;
* **list**: each plan must actually deliver its *declared* order — the rows
  must be non-decreasing on ``guaranteed_order(plan)``.

Rows are compared in their canonical form (:mod:`repro.algebra.rows`).
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.rows import canonical_rows
from repro.algebra.schema import Schema


def describe_mismatch(
    expected: Sequence[tuple], actual: Sequence[tuple], limit: int = 3
) -> str:
    """A human-readable account of a multiset mismatch."""
    canonical_expected = canonical_rows(expected)
    canonical_actual = canonical_rows(actual)
    if canonical_expected == canonical_actual:
        return "row multisets are identical"
    missing = _multiset_difference(canonical_expected, canonical_actual)
    extra = _multiset_difference(canonical_actual, canonical_expected)
    parts = [
        f"{len(expected)} expected rows vs {len(actual)} actual rows;"
        f" {len(missing)} missing, {len(extra)} unexpected"
    ]
    if missing:
        parts.append(f"missing (first {limit}): {missing[:limit]}")
    if extra:
        parts.append(f"unexpected (first {limit}): {extra[:limit]}")
    return "\n".join(parts)


def _multiset_difference(left: list[tuple], right: list[tuple]) -> list[tuple]:
    remaining: dict[tuple, int] = {}
    for row in right:
        remaining[row] = remaining.get(row, 0) + 1
    result = []
    for row in left:
        if remaining.get(row, 0) > 0:
            remaining[row] -= 1
        else:
            result.append(row)
    return result


def is_sorted_on(
    rows: Sequence[tuple], schema: Schema, keys: Sequence[str]
) -> bool:
    """True when *rows* are non-decreasing on the *keys* columns.

    This is the executable form of a plan's declared order: a plan whose
    ``guaranteed_order`` is ``keys`` must deliver rows that pass this check
    (ties may appear in any relative order — that is exactly the freedom
    multiset-equivalent rewrites have).
    """
    if not keys or not rows:
        return True
    positions = [schema.index_of(key) for key in keys if schema.has(key)]
    if not positions:
        return True
    previous = None
    for row in rows:
        current = tuple(row[position] for position in positions)
        if previous is not None:
            try:
                if current < previous:
                    return False
            except TypeError:
                return True  # incomparable key values: no order claim to check
        previous = current
    return True
