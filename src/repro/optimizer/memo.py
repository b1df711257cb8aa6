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
    ``children`` (class ids) are authoritative.  Elements compare by
    identity; ``home``/``index`` locate the element in its class's list and
    ``dirty`` says a rule may see something it has not seen before (all
    three are kept by the :class:`Memo`, read by the search).
    """

    __slots__ = ("template", "children", "home", "index", "dirty", "_head")

    def __init__(self, template: Operator, children: tuple[int, ...]):
        self.template = template
        self.children = children
        self.home = -1
        self.index = -1
        self.dirty = False
        self._head = (template.signature(), template.location)

    def key(self, memo: "Memo") -> tuple:
        find = memo.find
        return (*self._head, tuple([find(child) for child in self.children]))

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
        #: (as inserted; resolve through :meth:`Memo.find`).
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
    """Equivalence classes with union-find merging.

    The memo also keeps what an incremental search needs: which elements a
    change can be *seen* from, i.e. where re-applying a rule might now do
    something it did not do before.

    * A rule applied to an element reads the element lists of the
      element's child classes (the two-level patterns), so a **new
      element** dirties itself and the elements that have its class as a
      child.
    * A rule also reads class *identities*: of its own class, of its child
      classes and — ``memo.ref(child.children[0])`` — of its grandchild
      classes.  And :attr:`_index` keys hold the canonical child ids *as of
      insertion*, so once a class is merged away, re-deriving an expression
      over it no longer finds the old key and lands as a new element: the
      classes a rule's earlier output runs through count as read, too.
      Those hang off the output's root, a *sibling* of the matched element,
      as its children and grandchildren.  So a **merge** dirties every
      element of the merged class, of its parent classes and of its
      grandparent classes — whole classes, not only the elements that
      reference the merged one.

    Dirtied elements queue up in :attr:`dirtied` and merged-away class ids
    in :attr:`retired` for the search to drain.
    """

    def __init__(self):
        #: Live (canonical) classes by id, in creation order.
        self._classes: dict[int, EqClass] = {}
        #: Every class ever created, by id; a merged-away class keeps its
        #: last element list so the search can finish a sweep over it.
        self._every: list[EqClass] = []
        self._parent: list[int] = []
        self._index: dict[tuple, int] = {}
        self._element_count = 0
        self.dirtied: list[Element] = []
        self.retired: list[int] = []

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
        """Union two classes (multiset equivalence); returns the survivor."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return a
        winner, loser = (a, b) if a < b else (b, a)
        self._parent[loser] = winner
        winner_class = self._classes[winner]
        loser_class = self._classes.pop(loser)
        kept = winner_class.elements
        existing: dict[tuple, Element] = {}
        for element in kept:
            existing.setdefault(element.key(self), element)
        for position, element in enumerate(loser_class.elements):
            twin = existing.setdefault(element.key(self), element)
            if twin is element:
                element.home, element.index = winner, len(kept)
                kept.append(element)
                # Moved: the search must learn the new position even if
                # the element was dirty already.
                element.dirty = True
                self.dirtied.append(element)
            else:
                # The merged-away list only serves the sweep in progress,
                # which may as well visit the surviving duplicate.
                loser_class.elements[position] = twin
                self._element_count -= 1
        winner_class.parents |= loser_class.parents
        self.retired.append(loser)
        # Whole classes, two levels up: see the class docstring.
        parents = self._parent_classes(winner)
        grandparents = set().union(*map(self._parent_classes, parents))
        for class_id in {winner} | parents | grandparents:
            for element in self._classes[class_id].elements:
                self._mark(element)
        return winner

    def _mark(self, element: Element) -> None:
        if not element.dirty:
            element.dirty = True
            self.dirtied.append(element)

    def _parent_classes(self, class_id: int) -> set[int]:
        """Canonical ids of the classes with an element over *class_id*."""
        return {self.find(parent) for parent in self._classes[class_id].parents}

    # -- access --------------------------------------------------------------------

    def class_of(self, class_id: int) -> EqClass:
        return self._classes[self.find(class_id)]

    def classes(self) -> list[EqClass]:
        """All live (canonical) classes."""
        return list(self._classes.values())

    def slots(self, class_id: int) -> list[Element]:
        """Class *class_id*'s own element list — for a merged-away class,
        the list as of the merge."""
        return self._every[class_id].elements

    @property
    def class_count(self) -> int:
        return len(self._classes)

    @property
    def classes_created(self) -> int:
        """Classes ever created, merged-away ones included: the next id."""
        return len(self._every)

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
        key = (template.signature(), template.location, children)
        existing = self._index.get(key)
        if existing is not None:
            existing = find(existing)
            if into is not None and find(into) != existing:
                return self.merge(into, existing), False
            return existing, False

        if into is None:
            class_id = len(self._every)
            self._parent.append(class_id)
            eq_class = EqClass(class_id, self._concrete(template, children))
            self._classes[class_id] = eq_class
            self._every.append(eq_class)
        else:
            class_id = find(into)
            eq_class = self._classes[class_id]
            # The class's element list changes under the elements over it.
            for parent_id in self._parent_classes(class_id):
                for parent in self._classes[parent_id].elements:
                    if class_id in map(find, parent.children):
                        self._mark(parent)
        element = Element(template, children)
        element.home, element.index = class_id, len(eq_class.elements)
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

    def concrete_element(self, element: Element) -> Operator:
        """Concrete one-level tree: the element over its children's
        representatives (used for costing)."""
        return self._concrete(element.template, element.children)
