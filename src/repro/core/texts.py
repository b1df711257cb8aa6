"""Temporal texts lexed to their shape (DESIGN.md §12).

Parsing a temporal query reads its tokens and the schemas of the tables it
names, and of a literal no more than its spelling class: a NUMBER is an int
or a float by how it is written, a STRING after ``DATE`` a day number.
Texts that differ only in their literals — with the same literals equal to
each other — therefore parse to one initial plan up to those literals, and
prune to one shape.  The planner keeps a :class:`Text` per *literal-blind*
token sequence (:func:`lex`): the shape of the initial plan, the pruned
shape as the optimizer takes it, the tables read with their schemas, and
which literal of the text fills which slot.  A later text of the same key
is lexed and bound, never parsed.

A text is kept only when its slots and its literals match one to one
(:func:`remember`): each slot filled by a literal of the text, each literal
of the text in the plan as often as it is written, and a second parse, with
every slotted literal moved to a value of its own, landing where the entry
says.  A unary minus reads as ``0 - x``, a ``Literal(0)`` no token spells,
so such a text is parsed every time.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from repro.algebra.expressions import Literal
from repro.algebra.operators import Operator, Scan
from repro.algebra.schema import AttrType, Schema
from repro.core.parser import parse_temporal_query, split_prefix
from repro.dbms.sql.lexer import Token, tokenize
from repro.dbms.sql.parser import date_literal, number_literal
from repro.errors import ReproError, SQLSyntaxError
from repro.optimizer.shapes import Binding, Shaped, literals, spelling
from repro.temporal.timestamps import day_of, iso_of

#: Where the second parse moves a literal to: far from any value a query
#: or the parser itself (``0`` for a unary minus) writes.
_MOVED = 10**12 + 7
_MOVED_DAY = day_of("2999-01-01")


class Lexed(NamedTuple):
    """A temporal text, lexed: its literal-blind key, its literals in text
    order, and where each is written."""

    key: tuple
    literals: list[Literal]
    #: Per literal, the index of the first literal equal to it.
    groups: list[int]
    tokens: list[Token]
    #: The text, and where its tokens' positions count from.
    sql: str
    offset: int


def lex(sql: str) -> Lexed | None:
    """*sql*'s literal-blind key: keywords, identifiers and operators as
    spelled, each literal as its spelling class and the first literal equal
    to it — or as itself where equal literals are spelled two ways (``10``
    and ``10.0``), since a shape keeps those as they are.  None when *sql*
    does not lex; parsing it raises what it raises."""
    try:
        rest, coalesced = split_prefix(sql)
        tokens = tokenize(rest)
    except SQLSyntaxError:
        return None
    skeleton: list[str | None] = []
    found: list[Literal] = []
    groups: list[int] = []
    spots: list[Token] = []
    first: dict[Literal, int] = {}
    date = False
    for token in tokens:
        kind = token.kind
        if kind == "NUMBER":
            literal = number_literal(token)
        elif kind == "STRING":
            if date:
                try:
                    literal = date_literal(token)
                except SQLSyntaxError:
                    return None
            else:
                literal = Literal(token.value)
        elif kind == "KEYWORD" and token.value == "NULL":
            literal = Literal(None)
        else:
            skeleton.append(token.text)
            date = kind == "KEYWORD" and token.value == "DATE"
            continue
        date = False
        skeleton.append(None)
        groups.append(first.setdefault(literal, len(found)))
        found.append(literal)
        spots.append(token)
    described = [(type(literal.value), group) for literal, group in zip(found, groups)]
    if len(first) < len(found):  # equal literals: are any spelled two ways?
        spellings = list(map(spelling, found))
        mixed = {group for group, spelled in zip(groups, spellings) if spellings[group] != spelled}
        for index, group in enumerate(groups):
            if group in mixed:
                described[index] = (*spellings[index], group)
    key = (coalesced, tuple(skeleton), tuple(described))
    return Lexed(key, found, groups, spots, sql, len(sql) - len(rest))


class Text:
    """What the planner keeps of a literal-blind text: enough to hand a
    later text of the key to the optimizer, or back as its initial plan,
    without parsing it."""

    __slots__ = ("initial", "shaped", "tables", "slots")

    def __init__(
        self,
        initial: Operator,
        shaped: Shaped,
        tables: tuple[tuple[str, Schema], ...],
        slots: tuple[tuple[Literal, int], ...],
    ):
        #: The shape of the initial plan (unpruned: the oracle, DESIGN.md §18).
        self.initial = initial
        #: The pruned plan as the optimizer takes it, less the binding.
        self.shaped = shaped
        #: The name and schema of every table the text reads.
        self.tables = tables
        #: Each slot, and the index of the text's literal that fills it.
        self.slots = slots

    def _binding(self, lexed: Lexed) -> Binding | None:
        if not self.slots:
            return None
        found = lexed.literals
        return Binding({slot: found[index] for slot, index in self.slots})

    def query(self, lexed: Lexed) -> Shaped:
        """*lexed*, pruned, as the optimizer takes it."""
        return self.shaped._replace(binding=self._binding(lexed))

    def parsed(self, lexed: Lexed) -> Operator:
        """*lexed*'s initial plan."""
        binding = self._binding(lexed)
        return self.initial if binding is None else binding.tree(self.initial)

    def current(self, catalog) -> bool:
        """True while every table the text reads has the schema it was
        parsed against (one dropped and created again with other columns
        parses to another plan)."""
        for name, schema in self.tables:
            if not catalog.has_table(name):
                return False
            now = catalog.schema_of(name)
            if now is not schema and now != schema:
                return False
        return True


def remember(lexed: Lexed, initial: Operator, query: Shaped, catalog) -> Text | None:
    """What to keep of the text *lexed*, whose initial plan is *initial*
    and whose pruned plan is *query* — or None when its slots and literals
    do not match one to one (the module docstring)."""
    if Counter(literals(initial)) != Counter(lexed.literals):
        return None  # a literal no token spells, or one the plan drops or repeats
    binding = query.binding
    slots: list[tuple[Literal, int]] = []
    shape = initial
    if binding is not None:
        first = dict(zip(lexed.literals, lexed.groups))
        for slot, literal in binding.literals.items():
            index = first.get(literal)
            if index is None or spelling(lexed.literals[index]) != spelling(literal):
                return None
            slots.append((slot, index))
        shape = binding.shape(initial)
        if not _moves_as_said(lexed, shape, slots, catalog):
            return None
    tables = tuple([
        (node.table, node.base_schema) for node in initial.walk() if isinstance(node, Scan)
    ])
    return Text(shape, query._replace(binding=None), tables, tuple(slots))


def _moves_as_said(
    lexed: Lexed, shape: Operator, slots: list[tuple[Literal, int]], catalog
) -> bool:
    """Parse *lexed* again with every slotted literal moved to a value of
    its own: True when each lands in its slot of *shape* and nothing else
    moved."""
    moved = {index for _, index in slots}
    pieces = [lexed.sql[: lexed.offset]]
    at = lexed.offset
    for literal, group, token in zip(lexed.literals, lexed.groups, lexed.tokens):
        if group in moved:
            start = lexed.offset + token.position
            pieces += [lexed.sql[at:start], _spelled(literal, group, token)]
            at = start + len(token.text)
    pieces.append(lexed.sql[at:])
    text = "".join(pieces)
    again = lex(text)
    if again is None or again.key != lexed.key:
        return False
    try:
        plan = parse_temporal_query(text, catalog)
    except ReproError:
        return False
    expected = Binding({slot: again.literals[index] for slot, index in slots})
    return _same(expected.shape(plan), shape)


def _spelled(literal: Literal, group: int, token: Token) -> str:
    """A spelling of the *group*-th literal's class that no other literal
    of the text and nothing the parser writes has."""
    value = literal.value
    if literal.type is AttrType.DATE:
        return f"'{iso_of(_MOVED_DAY + group)}'"
    if type(value) is int:
        return str(_MOVED + group)
    if type(value) is float:
        return repr(_MOVED + group + 0.5)
    if type(value) is str:
        return f"'#{group}#'"
    return token.text  # NULL has no other value


def _same(plan: Operator, other: Operator) -> bool:
    """Equal trees, each literal spelled alike (``cache_key`` alone takes
    ``5`` for ``5.0``)."""
    return plan.cache_key == other.cache_key and list(map(spelling, literals(plan))) == list(
        map(spelling, literals(other))
    )
