"""Transformation rules (Section 4): heuristics T1-T12, equivalences E1-E5.

Each rule matches one memo element (plus, for two-level patterns, elements
of its child classes) and either produces new expressions inserted into the
same class, or merges classes (for operator-removal rules).

Equivalence typing: classes group *multiset*-equivalent expressions; the
``→_L`` / ``≡_L`` (list) rules are safe under this discipline because plan
extraction re-checks delivered order against the query's requirement (see
:mod:`repro.optimizer.search`), exactly the condition Section 4 attaches to
applying a ``→_L`` rule.

Rule-to-implementation notes:

* **T1-T3** (and **X1**) share one body: the operator moves, and each input
  is sorted in the DBMS on what the middleware algorithm needs of it, read
  from :mod:`repro.algebra.properties`.
* **T7/T8** (transfer-pair elimination), **T9** (identity projection) and
  **T11** (sort removal under multiset equivalence) are class merges; **T10**
  (sort removal when the argument is already ordered) is subsumed — after the
  T11 merge the sorted-producing element and the sort live in one class, and
  extraction simply picks the cheaper one that satisfies the order.
* **E2** (commutativity) wraps the swapped operator in a projection that
  restores the original column order, since our relations are lists of
  positional tuples ("applicable rules include, e.g., introduction of extra
  projections").
* **E3** (associativity) is implemented for joins when attribute provenance
  is unambiguous; the paper itself notes join-order heuristics would replace
  these equivalences for join-heavy queries.
* The selection pushdowns through joins/products (**P1/P2**) implement the
  paper's "moving selections ... down or up the operation tree"; for the
  temporal join, only overlap-shaped conjuncts (``T1 < c``, ``T2 > c``) are
  pushed, and to *both* sides — ``max(a,b) < c  ⇔  a < c ∧ b < c``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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
    Scan,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferD,
    TransferM,
)
from repro.algebra.properties import is_prefix_of, needed_orders
from repro.optimizer.memo import Element, Memo


class Rule:
    """Base transformation rule."""

    #: Paper designation, e.g. "T1" — used in traces and tests.
    name: str = "?"
    #: "L" (list) or "M" (multiset) equivalence.
    equivalence: str = "M"
    #: Operator types the rule's root pattern can match; the optimizer
    #: offers the rule only elements of these types.
    matches: tuple[type, ...] = (Operator,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        """Fire on one element.  Returns True when the memo changed."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Rule {self.name}>"


def _insert_all(memo: Memo, class_id: int, expressions: Iterable[Operator]) -> bool:
    before = (memo.class_count, memo.element_count)
    for expression in expressions:
        memo.insert_tree(expression, into=class_id)
    return (memo.class_count, memo.element_count) != before


def _child_elements(memo: Memo, class_id: int) -> list[Element]:
    return list(memo.class_of(class_id).elements)


# -- Heuristic Group 1: move beneficial operations into the middleware ------------------


class _MoveToMiddlewareRule(Rule):
    """Shared body of T1/T2/T3/X1:
    ``op@D(r, ..) → T^D(op@M(T^M(sort@D_need(r)), ..))``, each input sorted
    in the DBMS on what ``op@M`` needs of it
    (:func:`~repro.algebra.properties.needed_orders`).  Fires only on a
    DBMS-located operator, per the paper ("applied only if the top operators
    of their left-hand sides are assigned to processing in the DBMS")."""

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        template = element.template
        if not isinstance(template, self.matches) or template.location is not Location.DBMS:
            return False
        moved = template.located(Location.MIDDLEWARE)
        fetched = [
            TransferM(Sort(memo.ref(child), Location.DBMS, need))
            for child, need in zip(element.children, needed_orders(moved))
        ]
        return _insert_all(memo, class_id, [TransferD(moved.with_inputs(*fetched))])


class T1MoveTemporalAggregate(_MoveToMiddlewareRule):
    """ξ^T(r)@D → T^D(ξ^T@M(T^M(sort@D_{G,T1}(r))))."""

    name = "T1"
    equivalence = "M"
    matches = (TemporalAggregate,)


class T2MoveJoin(_MoveToMiddlewareRule):
    """r1 ⋈ r2 @D → T^D(T^M(sort(r1)) ⋈@M T^M(sort(r2)))."""

    name = "T2"
    equivalence = "M"
    matches = (Join,)


class T3MoveTemporalJoin(_MoveToMiddlewareRule):
    """r1 ⋈^T r2 @D → T^D(T^M(sort(r1)) ⋈^T@M T^M(sort(r2)))."""

    name = "T3"
    equivalence = "M"
    matches = (TemporalJoin,)


class _TransferMPullRule(Rule):
    """Shared matcher for T4/T5/T6: ``T^M(op@D(r)) → op@M(T^M(r))``."""

    matches = (TransferM,)
    inner_type: type = Operator

    def rebuild(self, inner: Operator, moved_input: Operator) -> Operator:
        raise NotImplementedError

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        if not isinstance(element.template, TransferM):
            return False
        changed = False
        for child in _child_elements(memo, element.children[0]):
            inner = child.template
            if not isinstance(inner, self.inner_type):
                continue
            if isinstance(inner, TemporalJoin) and self.inner_type is Join:
                continue
            if inner.location is not Location.DBMS:
                continue
            moved = TransferM(memo.ref(child.children[0]))
            rhs = self.rebuild(inner, moved)
            changed = _insert_all(memo, class_id, [rhs]) or changed
        return changed


class T4MoveSelection(_TransferMPullRule):
    """T^M(σ_P(r)) → σ_P@M(T^M(r))."""

    name = "T4"
    equivalence = "M"
    inner_type = Select

    def rebuild(self, inner: Operator, moved_input: Operator) -> Operator:
        assert isinstance(inner, Select)
        return Select(moved_input, Location.MIDDLEWARE, inner.predicate)


class T5MoveProjection(_TransferMPullRule):
    """T^M(π(r)) → π@M(T^M(r))."""

    name = "T5"
    equivalence = "M"
    inner_type = Project

    def rebuild(self, inner: Operator, moved_input: Operator) -> Operator:
        assert isinstance(inner, Project)
        return Project(moved_input, Location.MIDDLEWARE, inner.outputs)


class T6MoveSort(_TransferMPullRule):
    """T^M(sort_A(r)) → sort_A@M(T^M(r)) — list equivalence (T^M preserves
    order)."""

    name = "T6"
    equivalence = "L"
    inner_type = Sort

    def rebuild(self, inner: Operator, moved_input: Operator) -> Operator:
        assert isinstance(inner, Sort)
        return Sort(moved_input, Location.MIDDLEWARE, inner.keys)


# -- Heuristic Group 2: eliminate redundant operations -----------------------------------


class T7EliminateTransferPairMD(Rule):
    """T^M(T^D(r)) → r — class merge."""

    name = "T7"
    equivalence = "M"
    matches = (TransferM,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        if not isinstance(element.template, TransferM):
            return False
        changed = False
        for child in _child_elements(memo, element.children[0]):
            if isinstance(child.template, TransferD):
                before = memo.class_count
                memo.merge(class_id, child.children[0])
                changed = changed or memo.class_count != before
        return changed


class T8EliminateTransferPairDM(Rule):
    """T^D(T^M(r)) → r — class merge."""

    name = "T8"
    equivalence = "M"
    matches = (TransferD,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        if not isinstance(element.template, TransferD):
            return False
        changed = False
        for child in _child_elements(memo, element.children[0]):
            if isinstance(child.template, TransferM):
                before = memo.class_count
                memo.merge(class_id, child.children[0])
                changed = changed or memo.class_count != before
        return changed


class T9DropIdentityProjection(Rule):
    """π_{f1..fn}(r) → r when {f1..fn} = Ω_r — class merge (list equiv)."""

    name = "T9"
    equivalence = "L"
    matches = (Project,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        template = element.template
        if not isinstance(template, Project) or not template.is_simple():
            return False
        child_schema = memo.class_of(element.children[0]).schema
        ours = tuple(name.lower() for name in template.column_names())
        theirs = tuple(name.lower() for name in child_schema.names)
        if ours != theirs:
            return False
        before = memo.class_count
        memo.merge(class_id, element.children[0])
        return memo.class_count != before


class T11DropSort(Rule):
    """sort_A(r) →_M r — class merge.

    Safe under the class discipline (classes are multiset groups); the
    extraction phase keeps the sort whenever the consumer requires order.
    Subsumes T10 (sort on an already-ordered argument) and T12 (sort of a
    sort): after merging, extraction picks the ordered producer directly.
    """

    name = "T11"
    equivalence = "M"
    matches = (Sort,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        if not isinstance(element.template, Sort):
            return False
        before = memo.class_count
        memo.merge(class_id, element.children[0])
        return memo.class_count != before


class T12CollapseSortPair(Rule):
    """sort_A(sort_B(r)) →_L sort_A(r) when IsPrefixOf(B, A)."""

    name = "T12"
    equivalence = "L"
    matches = (Sort,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        template = element.template
        if not isinstance(template, Sort):
            return False
        changed = False
        for child in _child_elements(memo, element.children[0]):
            inner = child.template
            if not isinstance(inner, Sort):
                continue
            if not is_prefix_of(inner.keys, template.keys):
                continue
            rhs = Sort(memo.ref(child.children[0]), template.location, template.keys)
            changed = _insert_all(memo, class_id, [rhs]) or changed
        return changed


# -- Equivalences -------------------------------------------------------------------------


class E1SwapProjectSelect(Rule):
    """π(σ_P(r)) ≡_L σ_P(π(r)) — applied in the canonical direction only.

    The canonical form evaluates selections as early as possible:
    ``σ_P(π(r)) → π(σ_P(r))`` (valid whenever π is a simple projection — P
    only sees attributes π kept).  Applying one direction keeps the memo
    finite; the other direction never produces a cheaper physical plan
    under the Figure 6 formulas (selection cost is monotone in input size).
    """

    name = "E1"
    equivalence = "L"
    matches = (Select,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        template = element.template
        if not isinstance(template, Select):
            return False
        changed = False
        for child in _child_elements(memo, element.children[0]):
            inner = child.template
            if not isinstance(inner, Project) or not inner.is_simple():
                continue
            if inner.location is not template.location:
                continue
            rhs = Project(
                Select(
                    memo.ref(child.children[0]),
                    template.location,
                    template.predicate,
                ),
                template.location,
                inner.outputs,
            )
            changed = _insert_all(memo, class_id, [rhs]) or changed
        return changed


def _positional_project(
    original: Sequence[str], swapped_names: Sequence[str], mapping: Sequence[int]
) -> tuple[tuple[str, Expression], ...]:
    """Projection outputs restoring *original* column names/order from the
    swapped schema; ``mapping[i]`` is the swapped position of original i."""
    return tuple(
        (original[i], ColumnRef(swapped_names[mapping[i]]))
        for i in range(len(original))
    )


class E2CommuteBinary(Rule):
    """r1 op r2 ≡_M r2 op r1 for × ⋈ ⋈^T, with a column-restoring π."""

    name = "E2"
    equivalence = "M"
    matches = (Product, Join, TemporalJoin)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        template = element.template
        if not isinstance(template, (Product, Join, TemporalJoin)):
            return False
        left = memo.ref(element.children[0])
        right = memo.ref(element.children[1])
        if isinstance(template, TemporalJoin):
            swapped: Operator = TemporalJoin(
                right, left, template.location,
                template.right_attr, template.left_attr, template.period,
            )
            n_left = len(left.schema) - 2
            n_right = len(right.schema) - 2
            mapping = (
                [n_right + i for i in range(n_left)]
                + list(range(n_right))
                + [n_left + n_right, n_left + n_right + 1]
            )
        elif isinstance(template, Join):
            swapped = Join(
                right, left, template.location,
                template.right_attr, template.left_attr, template.residual,
            )
            n_left = len(left.schema)
            n_right = len(right.schema)
            mapping = [n_right + i for i in range(n_left)] + list(range(n_right))
        else:
            swapped = Product(right, left, template.location)
            n_left = len(left.schema)
            n_right = len(right.schema)
            mapping = [n_right + i for i in range(n_left)] + list(range(n_right))
        original = memo.class_of(class_id).schema.names
        swapped_names = swapped.schema.names
        if len(swapped_names) != len(original):
            return False
        outputs = _positional_project(original, swapped_names, mapping)
        rhs = Project(swapped, template.location, outputs)
        return _insert_all(memo, class_id, [rhs])


class E3AssociateJoin(Rule):
    """(r1 op r2) op r3 ≡_L r1 op (r2 op r3) when provenance is unambiguous.

    Guarded: fires only when the outer join attribute comes from r2 and no
    attribute names collide across the three inputs; combined with E2 this
    explores the bushy shapes the paper's join equivalences cover.
    """

    name = "E3"
    equivalence = "L"
    matches = (Join,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        template = element.template
        if not isinstance(template, Join) or isinstance(template, TemporalJoin):
            return False
        changed = False
        for child in _child_elements(memo, element.children[0]):
            inner = child.template
            if not isinstance(inner, Join) or isinstance(inner, TemporalJoin):
                continue
            if inner.location is not template.location:
                continue
            r1 = memo.ref(child.children[0])
            r2 = memo.ref(child.children[1])
            r3 = memo.ref(element.children[1])
            names = [a.lower() for s in (r1, r2, r3) for a in s.schema.names]
            if len(names) != len(set(names)):
                continue
            if not r2.schema.has(template.left_attr):
                continue  # outer join attribute must come from r2
            rhs_inner = Join(
                r2, r3, template.location,
                template.left_attr, template.right_attr, template.residual,
            )
            rhs = Join(
                r1, rhs_inner, template.location,
                inner.left_attr, inner.right_attr, inner.residual,
            )
            changed = _insert_all(memo, class_id, [rhs]) or changed
        return changed


class E4SwapSortSelect(Rule):
    """sort_A(σ_P(r)) ≡_L σ_P(sort_A(r)) — middleware only (Section 4.2).

    Canonical direction: selections below sorts, ``σ_P(sort_A(r)) →
    sort_A(σ_P(r))`` — filtering first shrinks the sort input, and the
    one-directional form keeps rule application convergent.
    """

    name = "E4"
    equivalence = "L"
    matches = (Select,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        template = element.template
        if not isinstance(template, Select):
            return False
        if template.location is not Location.MIDDLEWARE:
            return False
        changed = False
        for child in _child_elements(memo, element.children[0]):
            inner = child.template
            if not isinstance(inner, Sort):
                continue
            if inner.location is not Location.MIDDLEWARE:
                continue
            rhs = Sort(
                Select(memo.ref(child.children[0]), template.location, template.predicate),
                inner.location,
                inner.keys,
            )
            changed = _insert_all(memo, class_id, [rhs]) or changed
        return changed


class E5SwapSortProject(Rule):
    """sort_A(π(r)) ≡_L π(sort_A(r)) — middleware, simple π containing A.

    Canonical direction: sorts above projections, ``π(sort_A(r)) →
    sort_A(π(r))`` (the projection shrinks the rows the sort moves), valid
    when the sort keys survive the projection.
    """

    name = "E5"
    equivalence = "L"
    matches = (Project,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        template = element.template
        if not isinstance(template, Project) or not template.is_simple():
            return False
        if template.location is not Location.MIDDLEWARE:
            return False
        kept = {name.lower() for name in template.column_names()}
        changed = False
        for child in _child_elements(memo, element.children[0]):
            inner = child.template
            if not isinstance(inner, Sort):
                continue
            if inner.location is not Location.MIDDLEWARE:
                continue
            if not {key.lower() for key in inner.keys} <= kept:
                continue  # attr(A) ⊆ attr(f1..fn)
            rhs = Sort(
                Project(memo.ref(child.children[0]), template.location, template.outputs),
                inner.location,
                inner.keys,
            )
            changed = _insert_all(memo, class_id, [rhs]) or changed
        return changed


# -- Selection pushdown (the paper's "moving selections down or up the tree") --------------


class P1PushSelectThroughJoin(Rule):
    """σ_P(r1 op r2) → push side-local conjuncts onto the owning side."""

    name = "P1"
    equivalence = "L"
    matches = (Select,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        template = element.template
        if not isinstance(template, Select):
            return False
        changed = False
        for child in _child_elements(memo, element.children[0]):
            inner = child.template
            if not isinstance(inner, (Join, Product)) or isinstance(inner, TemporalJoin):
                continue
            if inner.location is not template.location:
                continue
            left_ref = memo.ref(child.children[0])
            right_ref = memo.ref(child.children[1])
            left_names = {name.lower() for name in left_ref.schema.names}
            right_names = {name.lower() for name in right_ref.schema.names}
            left_terms: list[Expression] = []
            right_terms: list[Expression] = []
            rest: list[Expression] = []
            for term in conjuncts(template.predicate):
                attrs = term.attributes()
                if attrs <= left_names:
                    left_terms.append(term)
                elif attrs <= right_names:
                    right_terms.append(term)
                else:
                    rest.append(term)
            if not left_terms and not right_terms:
                continue
            new_left: Operator = left_ref
            left_pred = conjoin(left_terms)
            if left_pred is not None:
                new_left = Select(left_ref, inner.location, left_pred)
            new_right: Operator = right_ref
            right_pred = conjoin(right_terms)
            if right_pred is not None:
                new_right = Select(right_ref, inner.location, right_pred)
            rebuilt = inner.with_inputs(new_left, new_right)
            rest_pred = conjoin(rest)
            rhs: Operator = rebuilt
            if rest_pred is not None:
                rhs = Select(rebuilt, template.location, rest_pred)
            changed = _insert_all(memo, class_id, [rhs]) or changed
        return changed


def _overlap_pushable(term: Expression, period: tuple[str, str]) -> bool:
    """True for ``T1 < c`` / ``T1 <= c`` / ``T2 > c`` / ``T2 >= c``."""
    if not isinstance(term, Comparison):
        return False
    comparison = term
    if isinstance(comparison.left, Literal) and isinstance(comparison.right, ColumnRef):
        comparison = comparison.flipped()
    if not (
        isinstance(comparison.left, ColumnRef)
        and isinstance(comparison.right, Literal)
    ):
        return False
    name = comparison.left.name.lower()
    t1, t2 = (p.lower() for p in period)
    if name == t1 and comparison.op in ("<", "<="):
        return True
    if name == t2 and comparison.op in (">", ">="):
        return True
    return False


class P2PushSelectThroughTemporalJoin(Rule):
    """σ_P(r1 ⋈^T r2): push side-local non-temporal conjuncts to their side
    and overlap-shaped temporal conjuncts to *both* sides.

    Soundness of the temporal push: the output period is the intersection,
    so ``T1 < c`` on the output (``max(a, b) < c``) holds iff it holds on
    both inputs; dually for ``T2 > c`` on the min.
    """

    name = "P2"
    equivalence = "L"
    matches = (Select,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        template = element.template
        if not isinstance(template, Select):
            return False
        changed = False
        for child in _child_elements(memo, element.children[0]):
            inner = child.template
            if not isinstance(inner, TemporalJoin):
                continue
            if inner.location is not template.location:
                continue
            period = {name.lower() for name in inner.period}
            left_ref = memo.ref(child.children[0])
            right_ref = memo.ref(child.children[1])
            left_names = {
                name.lower()
                for name in left_ref.schema.names
                if name.lower() not in period
            }
            right_names = {
                name.lower()
                for name in right_ref.schema.names
                if name.lower() not in period
            }
            left_terms: list[Expression] = []
            right_terms: list[Expression] = []
            rest: list[Expression] = []
            for term in conjuncts(template.predicate):
                attrs = term.attributes()
                if _overlap_pushable(term, inner.period):
                    left_terms.append(term)
                    right_terms.append(term)
                elif attrs <= left_names:
                    left_terms.append(term)
                elif attrs <= right_names:
                    right_terms.append(term)
                else:
                    rest.append(term)
            if not left_terms and not right_terms:
                continue
            new_left: Operator = left_ref
            left_pred = conjoin(left_terms)
            if left_pred is not None:
                new_left = Select(left_ref, inner.location, left_pred)
            new_right: Operator = right_ref
            right_pred = conjoin(right_terms)
            if right_pred is not None:
                new_right = Select(right_ref, inner.location, right_pred)
            rebuilt = inner.with_inputs(new_left, new_right)
            rest_pred = conjoin(rest)
            rhs: Operator = rebuilt
            if rest_pred is not None:
                rhs = Select(rebuilt, template.location, rest_pred)
            changed = _insert_all(memo, class_id, [rhs]) or changed
        return changed


# -- Section 7 extension operators ----------------------------------------------------
#
# "To add an operator, one needs to specify relevant transformation rules,
# formulas for derivation of statistics, and algorithm(s) implementing the
# operator."  Coalescing and duplicate elimination follow that recipe: the
# algorithms live in repro.xxl, statistics derivation in
# repro.stats.cardinality, cost formulas in repro.optimizer.costs, and the
# rules below complete the registration (the coalescing/selection
# interplay follows Vassilakis [24]).


class X1MoveCoalesce(_MoveToMiddlewareRule):
    """coalesce(r)@D → T^D(coalesce@M(T^M(sort@D_{value attrs, T1}(r)))).

    There is no SQL translation for coalescing in the translator (the SQL
    rewrite is notoriously heavy), so a DBMS-located coalesce *must* move
    to the middleware; this rule is what makes coalescing plans executable.
    """

    name = "X1"
    equivalence = "M"
    matches = (Coalesce,)


class X2CoalesceIdempotent(Rule):
    """coalesce(coalesce(r)) ≡_M coalesce(r) — class merge."""

    name = "X2"
    equivalence = "M"
    matches = (Coalesce,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        if not isinstance(element.template, Coalesce):
            return False
        changed = False
        for child in _child_elements(memo, element.children[0]):
            if isinstance(child.template, Coalesce):
                before = memo.class_count
                memo.merge(class_id, element.children[0])
                changed = changed or memo.class_count != before
        return changed


class X3DropDedupUnderCoalesce(Rule):
    """coalesce(δ(r)) ≡_M coalesce(r): coalescing merges exact duplicates
    anyway, so a duplicate elimination below it is redundant."""

    name = "X3"
    equivalence = "M"
    matches = (Coalesce,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        template = element.template
        if not isinstance(template, Coalesce):
            return False
        changed = False
        for child in _child_elements(memo, element.children[0]):
            if not isinstance(child.template, Dedup):
                continue
            rhs = Coalesce(
                memo.ref(child.children[0]), template.location, template.period
            )
            changed = _insert_all(memo, class_id, [rhs]) or changed
        return changed


class X4DropDedupOverCoalesce(Rule):
    """δ(coalesce(r)) ≡_M coalesce(r): a coalesced relation is duplicate
    free (periods of value-equivalent tuples are disjoint) — class merge."""

    name = "X4"
    equivalence = "M"
    matches = (Dedup,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        if not isinstance(element.template, Dedup):
            return False
        changed = False
        for child in _child_elements(memo, element.children[0]):
            if isinstance(child.template, Coalesce):
                before = memo.class_count
                memo.merge(class_id, element.children[0])
                changed = changed or memo.class_count != before
        return changed


class X5DedupIdempotent(Rule):
    """δ(δ(r)) ≡_M δ(r) — class merge."""

    name = "X5"
    equivalence = "M"
    matches = (Dedup,)

    def apply(self, memo: Memo, class_id: int, element: Element) -> bool:
        if not isinstance(element.template, Dedup):
            return False
        changed = False
        for child in _child_elements(memo, element.children[0]):
            if isinstance(child.template, Dedup):
                before = memo.class_count
                memo.merge(class_id, element.children[0])
                changed = changed or memo.class_count != before
        return changed


def default_rules(include_join_order: bool = True) -> list[Rule]:
    """The paper's rule set in application order."""
    rules: list[Rule] = [
        T1MoveTemporalAggregate(),
        T2MoveJoin(),
        T3MoveTemporalJoin(),
        T4MoveSelection(),
        T5MoveProjection(),
        T6MoveSort(),
        T7EliminateTransferPairMD(),
        T8EliminateTransferPairDM(),
        T9DropIdentityProjection(),
        T11DropSort(),
        T12CollapseSortPair(),
        E1SwapProjectSelect(),
        E4SwapSortSelect(),
        E5SwapSortProject(),
        P1PushSelectThroughJoin(),
        P2PushSelectThroughTemporalJoin(),
        X1MoveCoalesce(),
        X2CoalesceIdempotent(),
        X3DropDedupUnderCoalesce(),
        X4DropDedupOverCoalesce(),
        X5DedupIdempotent(),
    ]
    if include_join_order:
        rules.insert(12, E2CommuteBinary())
        rules.insert(13, E3AssociateJoin())
    return rules
