"""The Volcano memo: equivalence classes and class elements.

"Each equivalence class represents equivalent subexpressions of a query, by
storing a list of elements, where each element is an operator with pointers
to its arguments (which are also equivalence classes).  The number of
equivalence classes and elements for a query directly correspond to the
complexity of the query" (Section 5.2) — the paper reports those counts per
query, and :attr:`Memo.class_count` / :attr:`Memo.element_count` reproduce
them for our search.

Classes hold *multiset-equivalent* expressions; list equivalence (order) is
enforced during plan extraction by the delivered-order discipline (see
:mod:`repro.optimizer.search`), following the paper's two equivalence types.
Rules that *remove* operators (T7/T8 transfer elimination, T9 identity
projection, T11 sort removal) are realized as class **merges** backed by a
union-find.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from repro.algebra.operators import Location, Operator
from repro.algebra.schema import Schema
from repro.errors import OptimizerError, PlanError


@dataclass(frozen=True)
class ClassRef(Operator):
    """A leaf placeholder referencing a memo class inside a rule's output."""

    class_id: int = -1
    ref_schema: Schema = field(default_factory=lambda: Schema([]))

    @property
    def location(self) -> Location:
        # A class may hold elements of either location; the placeholder
        # itself is location-neutral.  Extraction decides.
        return Location.DBMS

    def _derive_schema(self) -> Schema:
        return self.ref_schema

    def with_inputs(self, *inputs: Operator) -> Operator:
        if inputs:
            raise PlanError("ClassRef takes no inputs")
        return self

    def located(self, location: Location) -> Operator:
        return self

    def signature(self) -> tuple:
        return ("ClassRef", self.class_id)

    def describe(self) -> str:
        return f"[class {self.class_id}]"


class Element:
    """One operator alternative inside an equivalence class.

    ``template`` is an operator node whose own inputs are ignored —
    ``children`` (canonical class ids) are authoritative.  Elements compare
    by identity; ``home`` is the id of the class the element was inserted
    into (resolve through :meth:`Memo.find`) and ``dirty`` says a rule may
    see something it has not seen before (all kept by the :class:`Memo`,
    read by the search).
    """

    __slots__ = ("template", "children", "home", "dirty", "_head")

    def __init__(self, template: Operator, children: tuple[int, ...]):
        self.template = template
        self.children = children
        self.home = -1
        self.dirty = False
        self._head = (template.signature(), template.location)

    def key(self) -> tuple:
        return (*self._head, self.children)

    def __repr__(self) -> str:
        return f"Element({self.template.label()}, {self.children})"


class EqClass:
    """An equivalence class: a set of elements plus derived metadata."""

    def __init__(self, class_id: int, representative: Operator):
        self.id = class_id
        self.elements: list[Element] = []
        #: A concrete operator tree evaluating to this class's relation,
        #: used for schema and statistics derivation.
        self.representative = representative
        #: Ids of the classes holding an element with this class as a child
        #: (as of insertion; resolve through :meth:`Memo.find`).
        self.parents: set[int] = set()

    @property
    def schema(self) -> Schema:
        return self.representative.schema

    @cached_property
    def ref(self) -> ClassRef:
        """The one leaf that rule outputs reference this class by."""
        return ClassRef(class_id=self.id, ref_schema=self.schema)

    def __repr__(self) -> str:
        return f"EqClass(#{self.id}, {len(self.elements)} elements)"


class Memo:
    """Equivalence classes with union-find merging, closed under congruence.

    The memo is a *set*: an element's ``children`` are always canonical
    class ids, :attr:`_index` has exactly one entry per live element, and
    no two elements are the same operator over the same children — a merge
    re-keys the elements over the merged-away class and, where one then
    coincides with another, drops it and merges the two classes.

    The memo also keeps what an incremental search needs: which elements a
    change can be *seen* from, i.e. where re-applying a rule might now do
    something it did not do before.  A rule applied to an element reads the
    element's class, its ``children`` and the element lists of its child
    classes (the two-level patterns), so

    * a **new element** dirties itself and the elements that have its class
      as a child;
    * a **merge** dirties the merged class's elements (their class is
      another one now), the elements that have it as a child (the list
      they match into grew) and, among those, the re-keyed ones (their
      ``children`` changed).

    Dirtied elements queue up in :attr:`dirtied` for the search to drain,
    first in first out.
    """

    def __init__(self):
        #: Live (canonical) classes by id, in creation order.
        self._classes: dict[int, EqClass] = {}
        self._parent: list[int] = []
        #: Element key -> the element's ``home``.
        self._index: dict[tuple, int] = {}
        self._element_count = 0
        self.dirtied: deque[Element] = deque()

    # -- union-find ---------------------------------------------------------------

    def find(self, class_id: int) -> int:
        """Canonical id of *class_id*'s class."""
        parent = self._parent
        root = class_id
        while parent[root] != root:
            root = parent[root]
        while parent[class_id] != root:  # path compression
            parent[class_id], class_id = root, parent[class_id]
        return root

    def merge(self, a: int, b: int) -> int:
        """Union two classes (multiset equivalence), then every two classes
        that makes congruent; returns the survivor.  The lower id wins."""
        pending = [(a, b)]
        while pending:
            first, second = map(self.find, pending.pop())
            if first == second:
                continue
            winner, loser = min(first, second), max(first, second)
            self._parent[loser] = winner
            survivor, merged = self._classes[winner], self._classes.pop(loser)
            survivor.elements += merged.elements
            survivor.parents |= merged.parents
            for element in survivor.elements:
                self._mark(element)
            for element in self._elements_over(winner, loser):
                if loser in element.children:
                    del self._index[element.key()]
                    element.children = tuple(
                        [winner if child == loser else child for child in element.children]
                    )
                    key = element.key()
                    twin_home = self._index.get(key)
                    if twin_home is not None:
                        # The same expression twice: keep the indexed one,
                        # and their classes (if two) are equivalent.
                        self._classes[self.find(element.home)].elements.remove(element)
                        self._element_count -= 1
                        element.dirty = False
                        pending.append((element.home, twin_home))
                        continue
                    self._index[key] = element.home
                self._mark(element)
        return self.find(a)

    def _mark(self, element: Element) -> None:
        if not element.dirty:
            element.dirty = True
            self.dirtied.append(element)

    def _elements_over(self, class_id: int, merged: int = -1) -> list[Element]:
        """The elements that have *class_id* — or *merged*, the class just
        merged into it — as a child."""
        return [
            element
            for parent in {self.find(p) for p in self._classes[class_id].parents}
            for element in self._classes[parent].elements
            if class_id in element.children or merged in element.children
        ]

    # -- access --------------------------------------------------------------------

    def class_of(self, class_id: int) -> EqClass:
        return self._classes[self.find(class_id)]

    def classes(self) -> list[EqClass]:
        """All live (canonical) classes."""
        return list(self._classes.values())

    @property
    def class_count(self) -> int:
        return len(self._classes)

    @property
    def element_count(self) -> int:
        return self._element_count

    def ref(self, class_id: int) -> ClassRef:
        """A :class:`ClassRef` leaf for building rule outputs."""
        return self._classes[self.find(class_id)].ref

    # -- insertion ------------------------------------------------------------------

    def insert_tree(self, plan: Operator, into: int | None = None) -> int:
        """Insert an operator tree (possibly with :class:`ClassRef` leaves).

        Returns the (canonical) class id of the root expression.  When *into*
        is given, the root is added to / merged with that class.
        """
        if isinstance(plan, ClassRef):
            root = self.find(plan.class_id)
            if into is not None and self.find(into) != root:
                root = self.merge(into, root)
            return root
        children = tuple([self.insert_tree(child) for child in plan.inputs])
        return self.add_element(plan, children, into)[0]

    def add_element(
        self,
        template: Operator,
        children: tuple[int, ...],
        into: int | None = None,
    ) -> tuple[int, bool]:
        """Add one element; dedups by key.  Returns (class id, was_new)."""
        find = self.find
        children = tuple([find(child) for child in children])
        inputs = template.inputs
        if inputs and len(children) != len(inputs):
            raise OptimizerError(
                f"{template.name} expects {len(inputs)} children, "
                f"got {len(children)}"
            )
        element = Element(template, children)
        key = element.key()
        existing = self._index.get(key)
        if existing is not None:
            existing = find(existing)
            if into is not None and find(into) != existing:
                return self.merge(into, existing), False
            return existing, False

        if into is None:
            class_id = len(self._parent)
            self._parent.append(class_id)
            eq_class = EqClass(class_id, self._concrete(template, children))
            self._classes[class_id] = eq_class
        else:
            class_id = find(into)
            eq_class = self._classes[class_id]
            # The class's element list changes under the elements over it.
            for parent in self._elements_over(class_id):
                self._mark(parent)
        element.home = class_id
        eq_class.elements.append(element)
        self._element_count += 1
        self._index[key] = class_id
        for child in children:
            self._classes[child].parents.add(class_id)
        self._mark(element)
        return class_id, True

    def _concrete(self, template: Operator, children: tuple[int, ...]) -> Operator:
        """A concrete tree for schema/statistics derivation."""
        if not children:
            return template
        child_reps = tuple(
            self.class_of(child).representative for child in children
        )
        return template.with_inputs(*child_reps)

    def compress(self) -> None:
        """Point every class id straight at its class.  After this
        :meth:`find` only reads, so a memo no rule changes any more can be
        shared between threads: the optimizer's kept shapes."""
        for class_id in range(len(self._parent)):
            self.find(class_id)
