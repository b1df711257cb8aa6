"""Transformation rules (Section 4) as a table: heuristics T1-T12,
equivalences E1-E5, the selection push-downs P1/P2 and the Section 7
extension rules X1-X5.

The paper states a rule in one line — a left-hand side, an arrow typed
``→_M``/``→_L``/``≡_M``/``≡_L``, a right-hand side, sometimes a side
condition.  :data:`RULES` states it the same way: a :class:`Rule` is a
*pattern* (the operator types of one memo element and, for the two-level
rules, of an element of its first child class) and a *rewrite*, a pure
function from one :class:`Match` of that pattern to the right-hand side —
or ``None`` when the side condition fails.  :meth:`Rule.apply` is the only
code here that walks or changes the memo.

A rule that *removes* an operator needs no body of its own: its right-hand
side is a leaf of the pattern (``T^M(T^D(r)) → r``) or the matched inner
expression itself (``δ(coalesce(r)) → coalesce(r)``), and inserting into a
class something the memo already holds elsewhere merges the two classes
(:meth:`~repro.optimizer.memo.Memo.insert_tree`).

Equivalence typing: classes group *multiset*-equivalent expressions; the
``→_L`` / ``≡_L`` (list) rules are safe under this discipline because plan
extraction re-checks delivered order against the query's requirement (see
:mod:`repro.optimizer.search`), exactly the condition Section 4 attaches to
applying a ``→_L`` rule.

Rule-to-implementation notes:

* **T1-T3** and **X1** share one rewrite: the operator moves, and each input
  is sorted in the DBMS on what the middleware algorithm needs of it, read
  from :mod:`repro.algebra.properties`.  It fires only on a DBMS-located
  operator ("applied only if the top operators of their left-hand sides are
  assigned to processing in the DBMS").  The translator has no SQL for
  coalescing, so **X1** is what makes a coalescing plan executable at all.
* **T10** (sort removal when the argument is already ordered) is subsumed —
  after the **T11** merge the sorted-producing element and the sort live in
  one class, and extraction picks the cheaper one that satisfies the order,
  keeping the sort whenever the consumer requires it.
* **E1/E4/E5** are applied in one canonical direction only — selections as
  early as possible, sorts above projections — which keeps the memo finite;
  the other direction never yields a cheaper physical plan under the Figure 6
  formulas (selection and sort costs are monotone in input size).
* **E2** (commutativity) wraps the swapped operator in a projection that
  restores the original column order, since our relations are lists of
  positional tuples ("applicable rules include, e.g., introduction of extra
  projections").
* **E3** (associativity) fires when attribute provenance is unambiguous: no
  name collides across the three inputs and the outer join attribute comes
  from ``r2``; the paper itself notes join-order heuristics would replace
  these equivalences for join-heavy queries.
* **P1/P2** implement the paper's "moving selections ... down or up the
  operation tree".  Through a temporal join the period columns identify
  neither side, and only overlap-shaped conjuncts on them (``T1 < c``,
  ``T2 > c``) are pushed — to *both* sides: the output period is the
  intersection, so ``max(a, b) < c  ⇔  a < c ∧ b < c``, dually for the min.
* **X2-X5** follow Section 7's recipe for a new operator ("specify relevant
  transformation rules, formulas for derivation of statistics, and
  algorithm(s)"); the coalescing/selection interplay follows Vassilakis [24].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.algebra.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    conjoin,
    conjuncts,
)
from repro.algebra.operators import (
    Coalesce,
    Dedup,
    Join,
    Location,
    Operator,
    Product,
    Project,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferD,
    TransferM,
)
from repro.algebra.properties import is_prefix_of, needed_orders
from repro.optimizer.memo import ClassRef, Element, Memo

_D, _M = Location.DBMS, Location.MIDDLEWARE


class Match:
    """One binding of a rule's pattern — all a rewrite sees of the memo.

    ``outer`` is the matched element's operator and ``inner`` the operator
    of the element matched in its first child class (``None`` for a
    one-level pattern); both are templates, their own inputs meaningless.
    The rest is looked up only when a rewrite asks, i.e. after its guards.
    """

    __slots__ = ("outer", "inner", "_memo", "_class_id", "_element", "_below")

    def __init__(self, memo: Memo, class_id: int, element: Element, below: Element | None):
        self.outer = element.template
        self.inner = below.template if below is not None else None
        self._memo, self._class_id, self._element, self._below = memo, class_id, element, below

    @property
    def r(self) -> list[ClassRef]:
        """The pattern's leaves ``r1, r2, ...`` left to right: the inner
        operator's inputs, then the outer operator's remaining ones."""
        leaves = self._element.children
        if self._below is not None:
            leaves = self._below.children + leaves[1:]
        ref = self._memo.ref
        return [ref(leaf) for leaf in leaves]

    @property
    def columns(self) -> tuple[str, ...]:
        """Column names of the class being rewritten."""
        return self._memo.class_of(self._class_id).schema.names


@dataclass(frozen=True, repr=False)
class Rule:
    """One transformation rule: a pattern and a pure rewrite."""

    #: Paper designation, e.g. "T1" — used in traces and tests.
    name: str
    #: "L" (list) or "M" (multiset) equivalence.
    equivalence: str
    #: Operator types the pattern's outer level matches; the optimizer
    #: offers the rule only elements of these types.
    matches: tuple[type, ...]
    #: The right-hand side for one match, or None when a side condition fails.
    rewrite: Callable[[Match], Operator | None]
    #: Two-level patterns: the types an element of the first child class
    #: must have.  The rewrite is called once per such element.
    inner: tuple[type, ...] = ()

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        """Fire on one element.  Returns True when the memo changed."""
        if not isinstance(element.template, self.matches):
            return False
        inner = self.inner
        if inner:
            # Snapshot, in list order, before the first insertion: insertion
            # order breaks equal-cost ties in extraction.
            below = [
                candidate
                for candidate in memo.class_of(element.children[0]).elements
                if isinstance(candidate.template, inner)
            ]
        else:
            below = (None,)
        before = None
        for candidate in below:
            rhs = self.rewrite(Match(memo, class_id, element, candidate))
            if rhs is not None:
                if before is None:
                    before = (memo.class_count, memo.element_count)
                memo.insert_tree(rhs, into=class_id)
        return before is not None and before != (memo.class_count, memo.element_count)

    def __repr__(self) -> str:
        return f"<Rule {self.name}>"


# -- the shared right-hand-side shapes ----------------------------------------------------


def _move_to_middleware(m: Match) -> Operator | None:
    """``op@D(r, ..) → T^D(op@M(T^M(sort@D_need(r)), ..))``."""
    if m.outer.location is not _D:
        return None
    moved = m.outer.located(_M)
    fetched = [
        TransferM(Sort(r, _D, need)) for r, need in zip(m.r, needed_orders(moved))
    ]
    return TransferD(moved.with_inputs(*fetched))


def _pull_over_transfer(m: Match) -> Operator | None:
    """``T^M(op@D(r)) → op@M(T^M(r))``."""
    if m.inner.location is not _D:
        return None
    (r,) = m.r
    return m.inner.replaced(input=TransferM(r), loc=_M)


def _swap_unaries(condition: Callable[[Operator, Operator], bool]):
    """``outer(inner(r)) → inner(outer(r))`` where *condition* holds."""

    def rewrite(m: Match) -> Operator | None:
        if not condition(m.outer, m.inner):
            return None
        (r,) = m.r
        return m.inner.with_inputs(m.outer.with_inputs(r))

    return rewrite


def _both_in_middleware(outer: Operator, inner: Operator) -> bool:
    return outer.location is _M and inner.location is _M


def _push_selection(m: Match) -> Operator | None:
    """``σ_P(r1 op r2) → σ_rest(σ_P1(r1) op σ_P2(r2))``: each conjunct goes to
    the side whose columns it reads.  Through ``⋈^T`` the period columns
    identify neither side, and overlap-shaped conjuncts on them go to both."""
    select, join = m.outer, m.inner
    if join.location is not select.location:
        return None
    period = join.period if isinstance(join, TemporalJoin) else ()
    shared = {name.lower() for name in period}
    inputs = m.r
    own = [{name.lower() for name in r.schema.names} - shared for r in inputs]
    pushed: tuple[list[Expression], list[Expression]] = ([], [])
    rest: list[Expression] = []
    for term in conjuncts(select.predicate):
        reads = term.attributes()
        if period and _overlap_pushable(term, period):
            pushed[0].append(term)
            pushed[1].append(term)
        elif reads <= own[0]:
            pushed[0].append(term)
        elif reads <= own[1]:
            pushed[1].append(term)
        else:
            rest.append(term)
    if not pushed[0] and not pushed[1]:
        return None
    rhs = join.with_inputs(
        *(Select(r, join.location, conjoin(terms)) if terms else r
          for r, terms in zip(inputs, pushed))
    )
    return Select(rhs, select.location, conjoin(rest)) if rest else rhs


def _overlap_pushable(term: Expression, period: tuple[str, str]) -> bool:
    """True for ``T1 < c`` / ``T1 <= c`` / ``T2 > c`` / ``T2 >= c``."""
    if not isinstance(term, Comparison):
        return False
    if isinstance(term.left, Literal) and isinstance(term.right, ColumnRef):
        term = term.flipped()
    if not (isinstance(term.left, ColumnRef) and isinstance(term.right, Literal)):
        return False
    name = term.left.name.lower()
    t1, t2 = (p.lower() for p in period)
    return (name == t1 and term.op in ("<", "<=")) or (
        name == t2 and term.op in (">", ">=")
    )


# -- the rewrites only one rule has -------------------------------------------------------


def _leaf(m: Match) -> Operator:
    """``.. → r``: the pattern's one leaf — a class merge."""
    (r,) = m.r
    return r


def _inner_itself(m: Match) -> Operator:
    """``outer(inner(r)) → inner(r)``: the matched inner expression, which
    the memo already holds one class down — a class merge."""
    return m.inner.with_inputs(*m.r)


def _drop_inner(m: Match) -> Operator:
    """``outer(inner(r)) → outer(r)``."""
    (r,) = m.r
    return m.outer.with_inputs(r)


def _identity_projection(m: Match) -> Operator | None:
    if not m.outer.is_simple():
        return None
    (r,) = m.r
    kept = [name.lower() for name in m.outer.column_names()]
    return r if kept == [name.lower() for name in r.schema.names] else None


def _collapse_sort_pair(m: Match) -> Operator | None:
    return _drop_inner(m) if is_prefix_of(m.inner.keys, m.outer.keys) else None


def _select_below_project(select: Operator, project: Operator) -> bool:
    # A simple π keeps P's attributes under their own names.
    return project.location is select.location and project.is_simple()


def _sort_above_project(project: Operator, sort: Operator) -> bool:
    # attr(A) ⊆ attr(f1..fn): the sort keys survive the projection.
    return (
        _both_in_middleware(project, sort)
        and project.is_simple()
        and {key.lower() for key in sort.keys}
        <= {name.lower() for name in project.column_names()}
    )


def _commute(m: Match) -> Operator:
    op = m.outer
    left, right = m.r
    if isinstance(op, Product):
        swapped: Operator = Product(right, left, op.location)
    else:
        swapped = op.replaced(
            left=right, right=left, left_attr=op.right_attr, right_attr=op.left_attr
        )
    # ⋈^T emits each side without its period, then the intersection period.
    tail = len(op.period) if isinstance(op, TemporalJoin) else 0
    n_left, n_right = len(left.schema) - tail, len(right.schema) - tail
    swapped_at = [
        *range(n_right, n_right + n_left),
        *range(n_right),
        *range(n_left + n_right, n_left + n_right + tail),
    ]
    names = swapped.schema.names
    restore = tuple(
        (column, ColumnRef(names[at])) for column, at in zip(m.columns, swapped_at)
    )
    return Project(swapped, op.location, restore)


def _associate(m: Match) -> Operator | None:
    outer, inner = m.outer, m.inner
    if inner.location is not outer.location:
        return None
    r1, r2, r3 = m.r
    names = [name.lower() for r in (r1, r2, r3) for name in r.schema.names]
    if len(names) != len(set(names)) or not r2.schema.has(outer.left_attr):
        return None
    return inner.with_inputs(r1, outer.with_inputs(r2, r3))


# -- Section 4, in application order ------------------------------------------------------

RULES: dict[str, Rule] = {
    rule.name: rule
    for rule in (
        # Heuristic group 1: move beneficial operations into the middleware.
        # ξ^T(r)@D → T^D(ξ^T@M(T^M(sort@D_{G,T1}(r))))
        Rule("T1", "M", (TemporalAggregate,), _move_to_middleware),
        # r1 ⋈ r2 @D → T^D(T^M(sort(r1)) ⋈@M T^M(sort(r2)))
        Rule("T2", "M", (Join,), _move_to_middleware),
        # r1 ⋈^T r2 @D → T^D(T^M(sort(r1)) ⋈^T@M T^M(sort(r2)))
        Rule("T3", "M", (TemporalJoin,), _move_to_middleware),
        # T^M(σ_P(r)) → σ_P@M(T^M(r))
        Rule("T4", "M", (TransferM,), _pull_over_transfer, inner=(Select,)),
        # T^M(π(r)) → π@M(T^M(r))
        Rule("T5", "M", (TransferM,), _pull_over_transfer, inner=(Project,)),
        # T^M(sort_A(r)) →_L sort_A@M(T^M(r)) — T^M preserves order
        Rule("T6", "L", (TransferM,), _pull_over_transfer, inner=(Sort,)),
        # Heuristic group 2: eliminate redundant operations.
        # T^M(T^D(r)) → r
        Rule("T7", "M", (TransferM,), _leaf, inner=(TransferD,)),
        # T^D(T^M(r)) → r
        Rule("T8", "M", (TransferD,), _leaf, inner=(TransferM,)),
        # π_{f1..fn}(r) →_L r  when {f1..fn} = Ω_r, in r's column order
        Rule("T9", "L", (Project,), _identity_projection),
        # sort_A(r) →_M r
        Rule("T11", "M", (Sort,), _leaf),
        # sort_A(sort_B(r)) →_L sort_A(r)  when IsPrefixOf(B, A)
        Rule("T12", "L", (Sort,), _collapse_sort_pair, inner=(Sort,)),
        # Equivalences.
        # σ_P(π(r)) ≡_L π(σ_P(r))  when π is simple, both at one location
        Rule("E1", "L", (Select,), _swap_unaries(_select_below_project), inner=(Project,)),
        # r1 op r2 ≡_M π(r2 op r1)  for × ⋈ ⋈^T
        Rule("E2", "M", (Product, Join, TemporalJoin), _commute),
        # (r1 ⋈ r2) ⋈ r3 ≡_L r1 ⋈ (r2 ⋈ r3)  when provenance is unambiguous
        Rule("E3", "L", (Join,), _associate, inner=(Join,)),
        # σ_P(sort_A(r)) ≡_L sort_A(σ_P(r))  in the middleware (Section 4.2)
        Rule("E4", "L", (Select,), _swap_unaries(_both_in_middleware), inner=(Sort,)),
        # π(sort_A(r)) ≡_L sort_A(π(r))  in the middleware, π simple, attr(A) kept
        Rule("E5", "L", (Project,), _swap_unaries(_sort_above_project), inner=(Sort,)),
        # Selection push-down.
        # σ_P(r1 op r2) → σ_rest(σ_P1(r1) op σ_P2(r2))  for × ⋈
        Rule("P1", "L", (Select,), _push_selection, inner=(Join, Product)),
        # σ_P(r1 ⋈^T r2) → likewise, overlap conjuncts to both sides
        Rule("P2", "L", (Select,), _push_selection, inner=(TemporalJoin,)),
        # Section 7 extension operators.
        # coalesce(r)@D → T^D(coalesce@M(T^M(sort@D_{value attrs,T1}(r))))
        Rule("X1", "M", (Coalesce,), _move_to_middleware),
        # coalesce(coalesce(r)) ≡_M coalesce(r)
        Rule("X2", "M", (Coalesce,), _inner_itself, inner=(Coalesce,)),
        # coalesce(δ(r)) ≡_M coalesce(r) — coalescing merges exact duplicates anyway
        Rule("X3", "M", (Coalesce,), _drop_inner, inner=(Dedup,)),
        # δ(coalesce(r)) ≡_M coalesce(r) — value-equivalent periods are disjoint
        Rule("X4", "M", (Dedup,), _inner_itself, inner=(Coalesce,)),
        # δ(δ(r)) ≡_M δ(r)
        Rule("X5", "M", (Dedup,), _inner_itself, inner=(Dedup,)),
    )
}


def default_rules() -> list[Rule]:
    """The paper's rule set in application order."""
    return list(RULES.values())
