"""Two-phase optimization (Section 2.1).

Phase 1 ("initially, a set of candidate algebraic query plans is produced by
means of the optimizer's transformation rules and heuristics"): the initial
plan is inserted into a :class:`~repro.optimizer.memo.Memo` and the rules are
applied to a fixpoint — incrementally: the elements the memo marks dirty,
first in first out, each offered the rules that match its operator type.
The rules read no literal's value and no statistic, so what Phase 1 builds
is a function of the query's *shape* (:mod:`repro.optimizer.shapes`): an
optimizer given a shape cache explores each shape once and keeps its memo.

Phase 2 ("the optimizer considers in more detail each of these plans ...
one best physical query execution plan is found"): a dynamic program over
(class, location, required order) picks, per class, the cheapest element
whose algorithm prerequisites are met, using the Figure 6 cost formulas and
the statistics derived per class — with the query's own literals bound back
into everything it costs — and builds only the winner's plan tree.  What
order an element needs of its inputs and delivers is read from
:mod:`repro.algebra.properties` — the tables ``guaranteed_order`` and
``validate_plan`` read — which realizes the paper's list-vs-multiset
discipline: a ``→_L`` rewrite is trusted only where the plan actually
guarantees the order.  The search's own part is pushing a required order
down through the operators that pass their input's order on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.operators import Location, Operator, TransferD, TransferM
from repro.algebra.properties import (
    PASSES_ORDER_ON,
    delivered_order,
    guaranteed_order,
    needed_orders,
    source_order,
)
from repro.errors import OptimizerError
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.optimizer.algorithms import ALGORITHMS
from repro.optimizer.costs import CostFactors, PlanCoster
from repro.optimizer.memo import Element, Memo
from repro.optimizer.physical import validate_plan
from repro.optimizer.rules import Rule, default_rules
from repro.optimizer.shapes import Binding, Shaped, holds_slot, shaped
from repro.stats.cardinality import CardinalityEstimator

Order = tuple[str, ...]

#: The transfers read their input on the other side.
_ACROSS = {TransferM: Location.DBMS, TransferD: Location.MIDDLEWARE}

_IN_PROGRESS = object()
_UNSEEN = object()


def _lower(names) -> Order:
    return tuple([name.lower() for name in names]) if names else ()


class _Choice:
    """The cheapest way found to evaluate one memo element: its template
    over the best choice per child.  The plan tree is built on demand —
    only a winner needs one."""

    __slots__ = ("cost", "template", "children", "delivered", "_plan")

    def __init__(
        self,
        cost: float,
        template: Operator,
        children: list["_Choice"],
        delivered: Order,
    ):
        self.cost = cost
        self.template = template
        self.children = children
        self.delivered = delivered
        self._plan: Operator | None = None

    @property
    def plan(self) -> Operator:
        if self._plan is None:
            template = self.template
            self._plan = (
                template.with_inputs(*(child.plan for child in self.children))
                if self.children
                else template
            )
        return self._plan


class _Explored:
    """What Phase 1 leaves: the explored memo, its root class and the rule
    counts that built it — and the literal-blind half of Phase 2, filled in
    by whichever query of the shape first asks: each class's elements per
    location, what an element asks of its inputs under a required order,
    and the order it delivers over its inputs' orders.  None of it reads a
    literal or a statistic, so every later query of the shape reuses it;
    the memo itself is never changed again."""

    __slots__ = (
        "memo", "root", "attempts", "firings", "candidates", "asked", "delivered", "slotted"
    )

    def __init__(self, memo: Memo, root: int, attempts: int, firings: int):
        self.memo = memo
        self.root = root
        self.attempts = attempts
        self.firings = firings
        self.candidates: dict[tuple[int, Location], list[Element]] = {}
        #: (element, required order) -> where its inputs run and the order
        #: asked of each, or None when it cannot deliver the order.
        self.asked: dict[tuple[Element, Order], tuple[Location, tuple[Order, ...]] | None] = {}
        #: (element, its inputs' delivered orders) -> its own.
        self.delivered: dict[tuple[Element, tuple[Order, ...]], Order] = {}
        #: Element -> whether its template holds a slot, and whether each of
        #: its child classes' representatives does: what a binding must fill.
        self.slotted: dict[Element, tuple[bool, tuple[bool, ...]]] = {}


@dataclass
class OptimizationResult:
    """Outcome of one optimizer run."""

    plan: Operator
    cost: float
    #: The paper's complexity measures for the search.
    class_count: int
    element_count: int
    #: ``Rule.apply`` calls the exploration made, and how many of them
    #: changed the memo.
    rule_attempts: int = 0
    rule_firings: int = 0
    #: The explored memo: on a shape hit the kept one, slots and all.
    memo: Memo = field(repr=False, default=None)  # type: ignore[assignment]
    #: True when an earlier query of the same shape had been explored, so
    #: this run only costed (DESIGN.md §12).
    shape_hit: bool = False

    def explain(self) -> str:
        return (
            f"cost={self.cost:.1f}us  classes={self.class_count}  "
            f"elements={self.element_count}  "
            f"rules={self.rule_firings}/{self.rule_attempts} fired\n"
            f"{self.plan.pretty()}"
        )


class Optimizer:
    """TANGO's middleware optimizer."""

    def __init__(
        self,
        estimator: CardinalityEstimator,
        factors: CostFactors | None = None,
        rules: list[Rule] | None = None,
        max_elements: int = 40_000,
        tracer: Tracer | None = None,
        parallel_degree: int = 1,
        shapes=None,
    ):
        self.estimator = estimator
        self.coster = PlanCoster(estimator, factors, parallel_degree=parallel_degree)
        self.rules = rules if rules is not None else default_rules()
        self.max_elements = max_elements
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Explored memos by query shape — a :class:`~repro.lru.LRUCache`,
        #: or anything with its ``get``/``put`` — or None to explore every
        #: query afresh.  Only
        #: optimizers with the same rules and budget may share one, as the
        #: Planner's do across its epochs.
        self.shapes = shapes

    # -- public API --------------------------------------------------------------------

    def optimize(
        self,
        initial_plan: Operator | Shaped,
        required_order: Order | None = None,
        tracer: Tracer | None = None,
        share_shape: bool = True,
    ) -> OptimizationResult:
        """Optimize *initial_plan* and return the chosen plan.

        *required_order* defaults to whatever order the initial plan
        guarantees (the query's ORDER BY); the chosen plan is constrained to
        deliver the same order — the list-equivalence contract.  *tracer*
        overrides the constructor's for this run (one optimizer serves
        callers on several threads, each with its own tracer).  With
        ``share_shape=False`` the shape is neither looked up nor kept: a
        re-plan's remainder scans temp tables no later query will.  A
        :class:`~repro.optimizer.shapes.Shaped` query arrives taken apart
        already (the planner's), for an optimizer with a shape cache.
        """
        tracer = tracer if tracer is not None else self.tracer
        with tracer.span("optimize", kind="phase") as span:
            explored, hit, extraction, required_order = self._search(
                initial_plan, required_order, tracer, share_shape
            )
            memo = explored.memo
            with tracer.span("extract", kind="phase"):
                location = initial_plan.location
                choice = extraction.best(explored.root, location, required_order)
                if choice is None and required_order:
                    # The initial plan itself guarantees the order, so this is
                    # unreachable unless statistics are degenerate; fall back.
                    choice = extraction.best(explored.root, location, ())
                if choice is None:
                    raise OptimizerError("no valid plan found in the memo")
                plan = choice.plan
            span.set(
                cost=choice.cost,
                classes=memo.class_count,
                elements=memo.element_count,
            )
        return OptimizationResult(
            plan=plan,
            cost=choice.cost,
            class_count=memo.class_count,
            element_count=memo.element_count,
            rule_attempts=explored.attempts,
            rule_firings=explored.firings,
            memo=memo,
            shape_hit=hit,
        )

    def _search(
        self,
        query: Operator | Shaped,
        required_order: Order | None,
        tracer: Tracer,
        share_shape: bool = True,
    ) -> tuple[_Explored, bool, "_Extraction", Order]:
        """Phase 1 for :meth:`optimize` and :meth:`top_plans`: the explored
        memo of *query*'s shape, whether it was kept from an earlier query,
        an extraction that binds this query's literals back, and the order
        contract (lower-cased once for the whole extraction)."""
        shapes = self.shapes if share_shape else None
        binding: Binding | None = None
        hit = False
        with tracer.span("explore", kind="phase") as span:
            if shapes is None:
                order = guaranteed_order(query) if required_order is None else required_order
                explored = self._closure(query)
            else:
                if not isinstance(query, Shaped):
                    query = shaped(query)
                order, binding = query.order, query.binding
                explored = shapes.get(query.key)
                hit = explored is not None
                if not hit:
                    explored = self._closure(query.shape)
                    shapes.put(query.key, explored)
            span.set(
                shape="hit" if hit else "miss",
                rule_attempts=explored.attempts,
                rule_firings=explored.firings,
                classes=explored.memo.class_count,
                elements=explored.memo.element_count,
            )
        extraction = _Extraction(explored, self.coster, binding)
        if required_order is None:
            required_order = order
        return explored, hit, extraction, _lower(required_order)

    def _closure(self, plan: Operator) -> _Explored:
        """*plan*'s memo, closed under the rules (:meth:`_explore`)."""
        memo = Memo()
        root = memo.insert_tree(plan)
        attempts, firings = self._explore(memo)
        memo.compress()
        return _Explored(memo, memo.find(root), attempts, firings)

    def top_plans(
        self,
        initial_plan: Operator,
        k: int = 3,
        required_order: Order | None = None,
    ) -> list[tuple[Operator, float]]:
        """The *k* cheapest structurally distinct plans in the explored memo.

        Where :meth:`optimize` extracts one winner, this enumerates one best
        plan per root-class element (each a different top-level shape with
        best-cost subtrees underneath) and returns the cheapest *k* — the
        plan-space sample the differential fuzzer (:mod:`repro.fuzz`)
        executes against the initial plan.
        """
        explored, _, extraction, required_order = self._search(
            initial_plan, required_order, NULL_TRACER
        )
        choices: list[_Choice] = []
        for element in extraction.candidates(explored.root, initial_plan.location):
            choice = extraction.element_choice(element, required_order)
            if choice is None and required_order:
                choice = extraction.element_choice(element, ())
            if choice is not None:
                choices.append(choice)
        choices.sort(key=lambda choice: choice.cost)
        plans: list[tuple[Operator, float]] = []
        distinct: set[tuple] = set()
        for choice in choices:
            key = choice.plan.cache_key
            if key in distinct:
                continue
            distinct.add(key)
            validate_plan(choice.plan)  # the DP read the same tables: a failure is a bug
            plans.append((choice.plan, choice.cost))
            if len(plans) >= k:
                break
        return plans

    # -- phase 1: incremental rule closure -------------------------------------------------

    def _explore(self, memo: Memo) -> tuple[int, int]:
        """Apply the rules until no element is dirty (or the element budget
        is spent); returns (rule attempts, rule firings).

        An element meets only the rules whose ``matches`` covers its
        operator type, and meets them again only after the memo changed
        somewhere it can see (see :class:`~repro.optimizer.memo.Memo`).
        """
        rules_for: dict[type, list[Rule]] = {}
        attempts = firings = 0
        dirtied = memo.dirtied
        while dirtied and memo.element_count <= self.max_elements:
            element = dirtied.popleft()
            if not element.dirty:
                continue  # dropped by a merge, as a duplicate, while queued
            element.dirty = False
            class_id = memo.find(element.home)
            template_type = type(element.template)
            rules = rules_for.get(template_type)
            if rules is None:
                rules = rules_for[template_type] = [
                    rule for rule in self.rules
                    if issubclass(template_type, rule.matches)
                ]
            for rule in rules:
                attempts += 1
                if rule.apply(memo, class_id, element):
                    firings += 1
                class_id = memo.find(class_id)
        return attempts, firings


class _Extraction:
    """Phase 2 over one explored memo: a dynamic program over (class,
    location, required order) cells.  Orders are lower-case throughout.
    With a *binding* the memo is a shape's, and the query's literals are
    bound back into every tree the extraction costs or returns.  The cells
    and the node costs are this query's; what an element asks and delivers
    is the shape's (:class:`_Explored`)."""

    def __init__(
        self, explored: _Explored, coster: PlanCoster, binding: Binding | None = None
    ):
        self.memo = explored.memo
        self.coster = coster
        self.binding = binding
        self._cells: dict[tuple, _Choice | None | object] = {}
        #: Element -> its node cost, and the template its plans are built from.
        self._costed: dict[Element, tuple[float, Operator]] = {}
        self._candidates = explored.candidates
        self._asked = explored.asked
        self._delivered = explored.delivered
        self._slotted = explored.slotted

    def candidates(self, class_id: int, location: Location) -> list[Element]:
        """The class's elements at *location*, in insertion order."""
        key = (class_id, location)
        found = self._candidates.get(key)
        if found is None:
            found = self._candidates[key] = [
                element
                for element in self.memo.class_of(class_id).elements
                if element.template.location is location
            ]
        return found

    def best(
        self, class_id: int, location: Location, required: Order
    ) -> _Choice | None:
        key = (class_id, location, required)
        cells = self._cells
        cached = cells.get(key, _UNSEEN)
        if cached is _IN_PROGRESS:
            return None  # cycle (merged classes can self-reference)
        if cached is not _UNSEEN:
            return cached  # type: ignore[return-value]
        cells[key] = _IN_PROGRESS

        best: _Choice | None = None
        for element in self.candidates(class_id, location):
            choice = self.element_choice(element, required)
            if choice is not None and (best is None or choice.cost < best.cost):
                best = choice

        cells[key] = best
        return best

    def element_choice(self, element: Element, required: Order) -> _Choice | None:
        template = element.template
        if (type(template), template.location) not in ALGORITHMS:
            return None  # read per query: the table is the one place a row lives
        key = (element, required)
        asks = self._asked.get(key, _UNSEEN)
        if asks is _UNSEEN:
            asks = self._asked[key] = _asks(template, required)
        if asks is None:
            return None
        location, asked = asks
        child_choices: list[_Choice] = []
        for child_id, order in zip(element.children, asked):
            choice = self.best(child_id, location, order)
            if choice is None:
                return None
            child_choices.append(choice)

        key = (element, tuple([choice.delivered for choice in child_choices]))
        delivered = self._delivered.get(key)
        if delivered is None:
            delivered = self._delivered[key] = _lower(delivered_order(template, key[1]))
        if required and delivered[: len(required)] != required:
            return None
        costed = self._costed.get(element)
        if costed is None:
            costed = self._costed[element] = self._cost(element)
        node_cost, bound = costed
        total = node_cost + sum(choice.cost for choice in child_choices)
        return _Choice(total, bound, child_choices, delivered)

    def _cost(self, element: Element) -> tuple[float, Operator]:
        """*element*'s own cost, over its child classes' representatives,
        and the template its plans are built from — both with the query's
        literals in."""
        template = element.template
        inputs = [self.memo.class_of(child).representative for child in element.children]
        binding = self.binding
        if binding is not None:
            slotted = self._slotted.get(element)
            if slotted is None:
                slotted = self._slotted[element] = (
                    holds_slot(template, subtree=False),
                    tuple(map(holds_slot, inputs)),
                )
            if slotted[0]:
                template = binding.template(template)
            inputs = [
                binding.tree(node) if below else node for node, below in zip(inputs, slotted[1])
            ]
        concrete = template.with_inputs(*inputs) if inputs else template
        return self.coster.node_cost(concrete), template


def _asks(
    template: Operator, required: Order
) -> tuple[Location, tuple[Order, ...]] | None:
    """What *template*'s algorithm asks of its inputs when its consumer
    requires the order *required*: where they run and the order it needs
    of each — or None when it can never deliver *required*."""
    location = _ACROSS.get(type(template)) or template.location
    asked = tuple(map(_lower, needed_orders(template)))
    if not required:
        return location, asked
    if isinstance(template, PASSES_ORDER_ON):
        pushed = _lower(source_order(template, required))
        if len(pushed) < len(required):
            return None  # a projection that computes a required column
        return location, (pushed, *asked[1:])
    own = _lower(delivered_order(template, asked))
    if own and own[: len(required)] != required:
        return None  # sorts, groups or joins on something else
    return location, asked
