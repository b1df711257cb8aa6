"""Logical algebra operators.

Operators form immutable trees.  Each node carries:

* ``inputs`` — child operators;
* ``location`` — where the paper assigns its evaluation
  (:attr:`Location.DBMS` or :attr:`Location.MIDDLEWARE`);
* a derived output :meth:`~Operator.schema`.

What order a node needs and delivers is not a method here: it depends on
where the node runs, and :mod:`repro.algebra.properties` answers it.

The transfer operators :class:`TransferM` (``T^M``) and :class:`TransferD`
(``T^D``) move a relation between the two locations and are ordinary tree
nodes, exactly as in the paper's plans (Figures 4 and 7).

Temporal convention: a *temporal relation* has two ``DATE`` attributes named
``T1``/``T2`` holding a closed-open validity period (configurable per
operator via ``period`` but defaulted throughout).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from repro.algebra.expressions import ColumnRef, Expression
from repro.algebra.schema import Attribute, AttrType, Schema, concat_attributes
from repro.errors import PlanError

#: Default names of the period-delimiting attributes.
DEFAULT_PERIOD = ("T1", "T2")

#: What a node caches of its own fields (``sql`` is the Translator-To-SQL's
#: text for a DBMS region rooted here): a copy with other fields derives
#: them again.
_CACHED = ("schema", "cache_key", "passthrough", "sql")


class Location(enum.Enum):
    """Where an operator is evaluated."""

    DBMS = "dbms"
    MIDDLEWARE = "middleware"

    # Members are singletons, and every memo key and extraction cell hashes
    # one: identity, in C, instead of Enum's Python-level hash of the name.
    __hash__ = object.__hash__

    @property
    def superscript(self) -> str:
        """The paper's plan-notation superscript: ``D`` or ``M``."""
        return "D" if self is Location.DBMS else "M"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate function application, e.g. ``COUNT(PosID)``.

    ``attribute`` is ``None`` for ``COUNT(*)``.  The default output name
    follows the paper's Figure 3(b): ``COUNTofPosID``.
    """

    func: str
    attribute: str | None = None
    output: str | None = None

    _FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

    def __post_init__(self) -> None:
        object.__setattr__(self, "func", self.func.upper())
        if self.func not in self._FUNCS:
            raise PlanError(f"unsupported aggregate function {self.func!r}")
        if self.func != "COUNT" and self.attribute is None:
            raise PlanError(f"{self.func} requires an argument attribute")

    @property
    def output_name(self) -> str:
        if self.output:
            return self.output
        target = self.attribute if self.attribute is not None else "ALL"
        return f"{self.func}of{target}"

    def output_type(self, schema: Schema) -> AttrType:
        if self.func == "COUNT":
            return AttrType.INT
        assert self.attribute is not None
        source = schema.type_of(self.attribute)
        if self.func == "AVG":
            return AttrType.FLOAT
        return source

    def to_sql(self) -> str:
        arg = self.attribute if self.attribute is not None else "*"
        return f"{self.func}({arg})"


@dataclass(frozen=True)
class Operator:
    """Abstract base operator."""

    # Subclasses declare their own fields; `inputs` is synthesized per class.

    @property
    def inputs(self) -> tuple["Operator", ...]:
        return ()

    @property
    def location(self) -> Location:
        raise NotImplementedError

    @cached_property
    def schema(self) -> Schema:
        return self._derive_schema()

    def _derive_schema(self) -> Schema:
        raise NotImplementedError

    def with_inputs(self, *inputs: "Operator") -> "Operator":
        """Copy of this node with new children (same arity)."""
        raise NotImplementedError

    def located(self, location: Location) -> "Operator":
        """Copy of this node assigned to *location*."""
        if self.location is location:
            return self
        return self.replaced(loc=location)

    def replaced(self, **changes: object) -> "Operator":
        """Copy of this node with *changes* to its fields.

        Not ``dataclasses.replace``, which costs twice a constructor call:
        the other fields are copied as they are, not validated again, and
        what the node cached of its old fields is left behind.
        """
        copy = object.__new__(type(self))
        state = copy.__dict__
        state.update(self.__dict__)
        for name in _CACHED:
            state.pop(name, None)
        state.update(changes)
        return copy

    def signature(self) -> tuple:
        """Structural identity *excluding* children (used by the memo)."""
        raise NotImplementedError

    @cached_property
    def cache_key(self) -> tuple:
        """Structural identity of the whole tree (location included).

        Two structurally equal plans share statistics and cost estimates,
        so estimator caches key on this rather than object identity.
        """
        return (
            self.signature(),
            self.location,
            tuple(child.cache_key for child in self.inputs),
        )

    # -- traversal helpers ----------------------------------------------------

    def walk(self) -> Iterable["Operator"]:
        """Pre-order traversal of the tree rooted here."""
        yield self
        for child in self.inputs:
            yield from child.walk()

    def size(self) -> int:
        """Number of operator nodes in the tree."""
        return 1 + sum(child.size() for child in self.inputs)

    @property
    def name(self) -> str:
        return type(self).__name__

    def label(self) -> str:
        """Short display label with the location superscript."""
        return f"{self.name}^{self.location.superscript}"

    def pretty(self, indent: int = 0) -> str:
        """Multi-line plan rendering for ``explain``-style output."""
        line = "  " * indent + self.describe()
        parts = [line]
        for child in self.inputs:
            parts.append(child.pretty(indent + 1))
        return "\n".join(parts)

    def describe(self) -> str:
        return self.label()

    def __str__(self) -> str:
        return self.pretty()


@dataclass(frozen=True)
class Scan(Operator):
    """A base-relation scan.  Base relations always live in the DBMS."""

    table: str
    base_schema: Schema

    @property
    def location(self) -> Location:
        return Location.DBMS

    def _derive_schema(self) -> Schema:
        return self.base_schema

    def with_inputs(self, *inputs: Operator) -> "Scan":
        if inputs:
            raise PlanError("Scan takes no inputs")
        return self

    def located(self, location: Location) -> Operator:
        if location is not Location.DBMS:
            raise PlanError("base relations reside in the DBMS")
        return self

    def signature(self) -> tuple:
        return ("Scan", self.table.lower())

    def describe(self) -> str:
        return f"Scan({self.table})"


@dataclass(frozen=True)
class _Unary(Operator):
    """Shared plumbing for single-input operators."""

    input: Operator
    loc: Location = Location.DBMS

    @property
    def inputs(self) -> tuple[Operator, ...]:
        return (self.input,)

    @property
    def location(self) -> Location:
        return self.loc

    def with_inputs(self, *inputs: Operator) -> Operator:
        (child,) = inputs
        return self.replaced(input=child)


@dataclass(frozen=True)
class _Binary(Operator):
    """Shared plumbing for two-input operators."""

    left: Operator
    right: Operator
    loc: Location = Location.DBMS

    @property
    def inputs(self) -> tuple[Operator, ...]:
        return (self.left, self.right)

    @property
    def location(self) -> Location:
        return self.loc

    def with_inputs(self, *inputs: Operator) -> Operator:
        left, right = inputs
        return self.replaced(left=left, right=right)


@dataclass(frozen=True)
class Select(_Unary):
    """Selection σ_P."""

    predicate: Expression = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.predicate is None:
            raise PlanError("Select requires a predicate")

    def _derive_schema(self) -> Schema:
        schema = self.input.schema
        for attribute in self.predicate.attributes():
            if not schema.has(attribute):
                raise PlanError(f"selection references unknown attribute {attribute!r}")
        return schema

    def signature(self) -> tuple:
        return ("Select", self.predicate)

    def describe(self) -> str:
        return f"Select^{self.location.superscript}[{self.predicate.to_sql()}]"


@dataclass(frozen=True)
class Project(_Unary):
    """Projection π.  Each output is ``(name, expression)``.

    Plain column projection uses :meth:`of_columns`.  Duplicates are *not*
    eliminated (multiset semantics), matching the paper's algebra.
    """

    outputs: tuple[tuple[str, Expression], ...] = ()

    def __post_init__(self) -> None:
        if not self.outputs:
            raise PlanError("Project requires at least one output")

    @staticmethod
    def of_columns(input: Operator, names: Sequence[str], loc: Location = Location.DBMS) -> "Project":
        from repro.algebra.expressions import col

        return Project(input, loc, tuple((name, col(name)) for name in names))

    def _derive_schema(self) -> Schema:
        source = self.input.schema
        attributes = []
        for name, expression in self.outputs:
            if isinstance(expression, ColumnRef):  # the common case, in one lookup
                column = source[expression.name]
                attributes.append(Attribute(name, column.type, column.byte_width))
                continue
            attr_type = expression.result_type(source)
            width = None
            referenced = expression.attributes()
            if len(referenced) == 1:
                ref_name = next(iter(referenced))
                if source.has(ref_name):
                    width = source[ref_name].byte_width
            attributes.append(Attribute(name, attr_type, width))
        return Schema(attributes)

    def is_simple(self) -> bool:
        """True when every output is a bare column kept under its own name."""
        return all(
            isinstance(expression, ColumnRef) and expression.name.lower() == name.lower()
            for name, expression in self.outputs
        )

    def column_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.outputs)

    @cached_property
    def passthrough(self) -> dict[str, str]:
        """Input column (lower-case) -> the output name its values appear
        under, for the columns passed through as bare references."""
        found: dict[str, str] = {}
        for name, expression in self.outputs:
            if isinstance(expression, ColumnRef):
                found.setdefault(expression.name.lower(), name)
        return found

    def signature(self) -> tuple:
        return ("Project", self.outputs)

    def describe(self) -> str:
        rendered = ", ".join(
            name if expr.to_sql() == name else f"{expr.to_sql()} AS {name}"
            for name, expr in self.outputs
        )
        return f"Project^{self.location.superscript}[{rendered}]"


@dataclass(frozen=True)
class Sort(_Unary):
    """Sort on an attribute list (ascending)."""

    keys: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.keys:
            raise PlanError("Sort requires at least one key")

    def _derive_schema(self) -> Schema:
        schema = self.input.schema
        for key in self.keys:
            if not schema.has(key):
                raise PlanError(f"sort key {key!r} not in input schema")
        return schema

    def signature(self) -> tuple:
        return ("Sort", tuple(key.lower() for key in self.keys))

    def describe(self) -> str:
        return f"Sort^{self.location.superscript}[{', '.join(self.keys)}]"


@dataclass(frozen=True)
class Product(_Binary):
    """Cartesian product ×."""

    def _derive_schema(self) -> Schema:
        return self.left.schema.concat(self.right.schema)

    def signature(self) -> tuple:
        return ("Product",)


@dataclass(frozen=True)
class Join(_Binary):
    """Equi-join ⋈ on ``left_attr = right_attr`` plus an optional residual."""

    left_attr: str = ""
    right_attr: str = ""
    residual: Expression | None = None

    def __post_init__(self) -> None:
        if not self.left_attr or not self.right_attr:
            raise PlanError("Join requires join attributes on both sides")

    def _derive_schema(self) -> Schema:
        if not self.left.schema.has(self.left_attr):
            raise PlanError(f"join attribute {self.left_attr!r} missing on the left")
        if not self.right.schema.has(self.right_attr):
            raise PlanError(f"join attribute {self.right_attr!r} missing on the right")
        return self.left.schema.concat(self.right.schema)

    def signature(self) -> tuple:
        return ("Join", self.left_attr.lower(), self.right_attr.lower(), self.residual)

    def describe(self) -> str:
        condition = f"{self.left_attr}={self.right_attr}"
        if self.residual is not None:
            condition += f" AND {self.residual.to_sql()}"
        return f"Join^{self.location.superscript}[{condition}]"


@dataclass(frozen=True)
class TemporalJoin(_Binary):
    """Temporal join ⋈^T: equi-join + period overlap, yielding the
    intersection period.

    Output schema: left attributes without the period, right attributes
    without the period (disambiguated), then ``T1``/``T2`` holding the
    intersection (the paper's ``GREATEST``/``LEAST`` projection, Figure 5).
    """

    left_attr: str = ""
    right_attr: str = ""
    period: tuple[str, str] = DEFAULT_PERIOD

    def __post_init__(self) -> None:
        if not self.left_attr or not self.right_attr:
            raise PlanError("TemporalJoin requires join attributes on both sides")

    def _nontemporal(self, schema: Schema) -> list[Attribute]:
        skip = {name.lower() for name in self.period}
        return [attribute for attribute in schema if attribute.name.lower() not in skip]

    def _derive_schema(self) -> Schema:
        t1, t2 = self.period
        for side, schema, attr in (
            ("left", self.left.schema, self.left_attr),
            ("right", self.right.schema, self.right_attr),
        ):
            if not schema.has(attr):
                raise PlanError(f"join attribute {attr!r} missing on the {side}")
            if not (schema.has(t1) and schema.has(t2)):
                raise PlanError(f"temporal join requires {t1}/{t2} on the {side} input")
        combined = concat_attributes(
            self._nontemporal(self.left.schema), self._nontemporal(self.right.schema)
        )
        # Named as the left input names them, however ``period`` is spelled.
        left = self.left.schema
        return Schema(
            combined
            + [Attribute(left[t1].name, AttrType.DATE), Attribute(left[t2].name, AttrType.DATE)]
        )

    def signature(self) -> tuple:
        return (
            "TemporalJoin",
            self.left_attr.lower(),
            self.right_attr.lower(),
            tuple(name.lower() for name in self.period),
        )

    def describe(self) -> str:
        return (
            f"TemporalJoin^{self.location.superscript}"
            f"[{self.left_attr}={self.right_attr}, overlap]"
        )


@dataclass(frozen=True)
class TemporalAggregate(_Unary):
    """Temporal aggregation ξ^T.

    Groups rows by ``group_by``, splits time into constant intervals per
    group, and evaluates the aggregates over the tuples valid in each
    interval.  Output: group attributes, ``T1``, ``T2``, one column per
    aggregate (Figure 3(c)).
    """

    group_by: tuple[str, ...] = ()
    aggregates: tuple[AggregateSpec, ...] = ()
    period: tuple[str, str] = DEFAULT_PERIOD

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise PlanError("TemporalAggregate requires at least one aggregate")

    def _derive_schema(self) -> Schema:
        source = self.input.schema
        t1, t2 = self.period
        if not (source.has(t1) and source.has(t2)):
            raise PlanError(f"temporal aggregation requires {t1}/{t2} in the input")
        attributes = [source[name] for name in self.group_by]
        # Named as the input names them, however ``period`` is spelled.
        attributes.append(Attribute(source[t1].name, AttrType.DATE))
        attributes.append(Attribute(source[t2].name, AttrType.DATE))
        for aggregate in self.aggregates:
            if aggregate.attribute is not None and not source.has(aggregate.attribute):
                raise PlanError(
                    f"aggregate argument {aggregate.attribute!r} not in input schema"
                )
            attributes.append(
                Attribute(aggregate.output_name, aggregate.output_type(source))
            )
        return Schema(attributes)

    def signature(self) -> tuple:
        return (
            "TemporalAggregate",
            tuple(name.lower() for name in self.group_by),
            self.aggregates,
            tuple(name.lower() for name in self.period),
        )

    def describe(self) -> str:
        aggs = ", ".join(spec.to_sql() for spec in self.aggregates)
        group = ", ".join(self.group_by) or "()"
        return f"TAggr^{self.location.superscript}[{group}; {aggs}]"


@dataclass(frozen=True)
class Dedup(_Unary):
    """Duplicate elimination (Section 7 extension operator)."""

    def _derive_schema(self) -> Schema:
        return self.input.schema

    def signature(self) -> tuple:
        return ("Dedup",)


@dataclass(frozen=True)
class Coalesce(_Unary):
    """Temporal coalescing (Section 7 extension operator).

    Merges value-equivalent tuples whose periods overlap or meet.
    """

    period: tuple[str, str] = DEFAULT_PERIOD

    def _derive_schema(self) -> Schema:
        schema = self.input.schema
        t1, t2 = self.period
        if not (schema.has(t1) and schema.has(t2)):
            raise PlanError(f"coalescing requires {t1}/{t2} in the input")
        return schema

    def signature(self) -> tuple:
        return ("Coalesce", tuple(name.lower() for name in self.period))


@dataclass(frozen=True)
class Difference(_Binary):
    """Multiset difference (Section 7 extension operator)."""

    def _derive_schema(self) -> Schema:
        if len(self.left.schema) != len(self.right.schema):
            raise PlanError("difference arguments must be union-compatible")
        return self.left.schema

    def signature(self) -> tuple:
        return ("Difference",)


@dataclass(frozen=True)
class TransferM(_Unary):
    """``T^M`` — move the input relation from the DBMS to the middleware."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "loc", Location.MIDDLEWARE)

    def located(self, location: Location) -> Operator:
        return self  # a transfer runs where it delivers

    def _derive_schema(self) -> Schema:
        return self.input.schema

    def signature(self) -> tuple:
        return ("TransferM",)

    def describe(self) -> str:
        return "T^M"


@dataclass(frozen=True)
class TransferD(_Unary):
    """``T^D`` — materialize the input middleware relation in the DBMS."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "loc", Location.DBMS)

    def located(self, location: Location) -> Operator:
        return self  # a transfer runs where it delivers

    def _derive_schema(self) -> Schema:
        return self.input.schema

    def signature(self) -> tuple:
        return ("TransferD",)

    def describe(self) -> str:
        return "T^D"
