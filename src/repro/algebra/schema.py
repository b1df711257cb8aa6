"""Relation schemas.

A :class:`Schema` is an ordered sequence of named, typed attributes — the
paper's :math:`\\Omega_r`.  Rows are plain Python tuples positionally aligned
with the schema; the schema provides the name-to-position map.

Attribute names are case-preserving but matched case-insensitively, like SQL
identifiers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import SchemaError


class AttrType(enum.Enum):
    """Column types supported by MiniDB and the middleware."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    #: Day-granularity timestamps, stored as integer day numbers.
    DATE = "date"

    @property
    def is_numeric(self) -> bool:
        return self in (AttrType.INT, AttrType.FLOAT, AttrType.DATE)

    @property
    def default_width(self) -> int:
        """Bytes used for row-size accounting (Oracle-ish widths)."""
        if self in (AttrType.INT, AttrType.DATE):
            return 8
        if self is AttrType.FLOAT:
            return 8
        return 24


@dataclass(frozen=True)
class Attribute:
    """A named, typed column."""

    name: str
    type: AttrType = AttrType.INT
    #: Average byte width; defaults to the type's width (strings may override).
    width: int | None = None

    @property
    def byte_width(self) -> int:
        return self.width if self.width is not None else self.type.default_width

    def renamed(self, name: str) -> "Attribute":
        return Attribute(name, self.type, self.width)


class Schema:
    """An ordered, name-addressable collection of :class:`Attribute`.

    >>> s = Schema([Attribute("PosID"), Attribute("T1", AttrType.DATE)])
    >>> s.index_of("posid")
    0
    >>> len(s)
    2
    """

    __slots__ = ("_attributes", "_index", "row_width")

    def __init__(self, attributes: Iterable[Attribute]):
        self._attributes: tuple[Attribute, ...] = tuple(attributes)
        #: Average row size in bytes, used by ``size(r)`` in cost formulas.
        self.row_width: int = sum(a.byte_width for a in self._attributes) or 1
        self._index: dict[str, int] = {}
        for position, attribute in enumerate(self._attributes):
            key = attribute.name.lower()
            if key in self._index:
                raise SchemaError(f"duplicate attribute name {attribute.name!r}")
            self._index[key] = position

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __getitem__(self, item: int | str) -> Attribute:
        if isinstance(item, str):
            return self._attributes[self.index_of(item)]
        return self._attributes[item]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        cols = ", ".join(f"{a.name}:{a.type.value}" for a in self._attributes)
        return f"Schema({cols})"

    # -- lookups ------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attributes)

    def index_of(self, name: str) -> int:
        """Position of attribute *name* (case-insensitive)."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}; have {self.names}") from None

    def type_of(self, name: str) -> AttrType:
        return self._attributes[self.index_of(name)].type

    def has(self, name: str) -> bool:
        return name.lower() in self._index

    # -- derivation ---------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema of a projection on *names* (order follows *names*)."""
        return Schema(self[name] for name in names)

    def concat(self, other: "Schema", *, disambiguate: bool = True) -> "Schema":
        """Schema of a product/join of two inputs.

        Name clashes are resolved by suffixing the right-hand attribute with
        ``_2`` (``_3`` if needed, and so on) when *disambiguate* is set;
        otherwise a clash raises :class:`SchemaError`.
        """
        return Schema(concat_attributes(self._attributes, other, disambiguate))


def concat_attributes(
    left: Iterable[Attribute], right: Iterable[Attribute], disambiguate: bool = True
) -> list[Attribute]:
    """The attribute list :meth:`Schema.concat` builds its result from."""
    attributes = list(left)
    taken = {a.name.lower() for a in attributes}
    for attribute in right:
        name = attribute.name
        if name.lower() in taken:
            if not disambiguate:
                raise SchemaError(f"attribute {name!r} exists on both sides")
            counter = 2
            while f"{name}_{counter}".lower() in taken:
                counter += 1
            name = f"{name}_{counter}"
            attribute = attribute.renamed(name)
        taken.add(name.lower())
        attributes.append(attribute)
    return attributes
