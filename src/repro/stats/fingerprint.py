"""Cardinality fingerprints and the q-error metric.

Two pure functions of plans and numbers that the estimator, the learner
(:mod:`repro.core.learner`), EXPLAIN ANALYZE and the view-refresh chooser
all share:

* :func:`qerror` — the standard plan-quality metric: the factor by which an
  estimate is off, ``max(est/act, act/est)``, symmetric and always ≥ 1.
* :func:`plan_fingerprint` — a *cardinality* fingerprint of an operator
  subtree: two subtrees that must produce the same number of rows map to
  the same fingerprint.  Location moves (``T^M``/``T^D``), sorts,
  projections, and top-level conjunct order all normalize away, so the
  selectivity learned while executing one physical shape transfers to
  every equivalent shape the optimizer may consider later.
  :func:`tables_read` reads back the base tables a fingerprint scans.
"""

from __future__ import annotations

import re

from repro.algebra.expressions import conjuncts
from repro.algebra.operators import (
    Join,
    Operator,
    Project,
    Scan,
    Select,
    Sort,
    TemporalJoin,
    TransferD,
    TransferM,
)
from repro.xxl.transfer import TEMP_TABLE_PREFIX


def qerror(estimated: float, actual: float) -> float:
    """The q-error of one estimate: ``max(est/act, act/est)``, floored at 1.

    Both sides are clamped to 1 row first, the usual convention so that
    empty results (where any ratio degenerates) compare sanely.
    """
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


def plan_fingerprint(plan: Operator) -> str | None:
    """The cardinality fingerprint of *plan*, or None when unlearnable.

    Cardinality-preserving operators (``Sort``, ``Project``, both
    transfers) map to their input's fingerprint; a ``Select``'s top-level
    conjuncts are sorted on their SQL text, and join sides are ordered
    canonically — so predicate reordering, commuted joins, and every
    location assignment of the same logical subtree share one entry.
    Subtrees that scan a ``TANGO_TMP`` materialization return None: temp
    tables are execution artifacts, and a learned cardinality keyed on a
    throwaway table name could never be recalled.
    """
    if isinstance(plan, (Sort, Project, TransferM, TransferD)):
        return plan_fingerprint(plan.inputs[0])
    if isinstance(plan, Scan):
        if plan.table.upper().startswith(TEMP_TABLE_PREFIX):
            return None
        return f"scan:{plan.table.lower()}"
    inputs = [plan_fingerprint(child) for child in plan.inputs]
    if any(child is None for child in inputs):
        return None
    if isinstance(plan, Select):
        terms = sorted(term.to_sql() for term in conjuncts(plan.predicate))
        return f"select[{' AND '.join(terms)}]({inputs[0]})"
    if isinstance(plan, (Join, TemporalJoin)):
        tag = type(plan).__name__.lower()
        if isinstance(plan, TemporalJoin):
            payload = ",".join(name.lower() for name in plan.period)
        else:
            payload = " AND ".join(
                sorted(term.to_sql() for term in conjuncts(plan.residual))
            )
        sides = sorted(
            zip((plan.left_attr.lower(), plan.right_attr.lower()), inputs)
        )
        body = ";".join(f"{attr}={child}" for attr, child in sides)
        return f"{tag}[{payload}]({body})"
    # Remaining operators (TAggr, Dedup, Coalesce, Difference, Product):
    # their memo signatures are pure string/tuple payloads, stable across
    # sessions.
    return f"{plan.signature()!r}({','.join(inputs)})"


#: A fingerprint's ``scan:<table>`` tokens, as :func:`plan_fingerprint`
#: writes them (a table is named as SQL spells an identifier).
_SCAN = re.compile(r"scan:([\w$#]+)")


def tables_read(fingerprint: str) -> frozenset[str]:
    """The lower-cased base tables *fingerprint* scans: what a learned
    cardinality under it must be re-learned after a write to."""
    return frozenset(_SCAN.findall(fingerprint))
