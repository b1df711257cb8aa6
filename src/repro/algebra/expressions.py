"""Scalar expressions and predicates over rows.

Expressions are immutable trees.  They can be

* *evaluated* — :meth:`Expression.compile` and :func:`compile_row` generate
  the source of one ``row -> value`` (or ``row -> tuple``) function for a
  given schema and evaluate it once, so a whole tree costs one Python call
  per row; :func:`compile_block` generates a SELECT block's filters, join
  and select list as one list comprehension, over rows or over pairs of
  rows.  No text from a query reaches that source: columns become integer
  positions, and every literal and every scalar function is bound to a
  generated name in the function's globals.  The source therefore depends
  only on the tree's shape, and each distinct source is compiled once
  (:data:`KERNEL_CACHE_SIZE` code objects are kept) and evaluated in each
  call's own globals.  A
  :class:`Parameter` (a ``?`` bind marker) is a named slot left out of the
  globals: :func:`bind` gives such a function its values;
* *rendered* — :meth:`Expression.to_sql` produces the SQL text the
  Translator-To-SQL emits for DBMS-resident plan parts;
* *inspected* — :func:`attributes_of` (the paper's ``attr(P)``) and
  :func:`conjuncts` support transformation-rule preconditions and
  selectivity estimation.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from types import FunctionType
from typing import Callable, Iterable, Iterator, Sequence

from repro.algebra.schema import AttrType, Schema
from repro.errors import ExpressionError

RowFunc = Callable[[tuple], object]

_COMPARISONS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC: dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

#: The SQL operators that Python spells differently; generated source uses
#: every other operator of the two tables above as is.
_PYTHON_SPELLING = {"=": "==", "<>": "!="}

#: Arithmetic precedence, the same in SQL and in Python.
_BINDS = {"+": 1, "-": 1, "*": 2, "/": 2}


class _Codegen:
    """The schema one function is generated against, and the globals it
    will run in: no builtins, only the constants and functions bound here.

    With a *right* schema it renders a pair: a column of *schema* becomes
    ``l[i]`` and any other column ``r[j]``, so a join tests and builds its
    output from the two input rows without concatenating them.
    """

    def __init__(self, schema: Schema, right: Schema | None = None):
        self.schema = schema
        self.right = right
        self.globals: dict[str, object] = {"__builtins__": {}}
        #: The parameter slots rendered, each a global :func:`bind` fills.
        self.slots: set[int] = set()

    def bind(self, prefix: str, value: object) -> str:
        name = f"_{prefix}{len(self.globals)}"
        self.globals[name] = value
        return name

    def slot(self, index: int) -> str:
        self.slots.add(index)
        return f"_p{index}"

    def column(self, name: str) -> str:
        if self.right is None:
            return f"row[{self.schema.index_of(name)}]"
        if self.schema.has(name):
            return f"l[{self.schema.index_of(name)}]"
        return f"r[{self.right.index_of(name)}]"


def _tuple_display(terms: Sequence[str]) -> str:
    # "(a, b, )", "(a, )" and "()" are all tuple displays.
    return f"({''.join(f'{term}, ' for term in terms)})"


#: Distinct generated sources whose code object is kept (DESIGN.md §11).
KERNEL_CACHE_SIZE = 256


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _kernel_code(source: str):
    return compile(source, "<kernel>", "eval")


def kernel_cache_stats() -> dict:
    """Hits, misses and size of the source → code-object cache, process-wide."""
    info = _kernel_code.cache_info()
    return {
        "size": info.currsize,
        "max_size": info.maxsize,
        "hits": info.hits,
        "misses": info.misses,
    }


def _generate(
    expressions: Sequence["Expression"],
    gen: _Codegen,
    template: Callable[[list[str]], str],
):
    """Evaluate ``template(rendered expressions)`` in *gen*'s globals.

    Only the code object is shared between calls: each evaluation makes a
    new function over this call's globals, so no literal of one tree is
    ever seen by another of the same shape.
    """
    try:
        source = template([e._render(gen) for e in expressions])
        function = eval(_kernel_code(source), gen.globals)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        try:
            text = ", ".join(expression.to_sql() for expression in expressions)
        except RecursionError:
            text = f"a {type(expressions[0]).__name__} tree"
        raise ExpressionError(
            f"cannot compile {text[:200]}: {type(exc).__name__}: {exc}"
        ) from exc
    if gen.slots:
        function.slots = tuple(sorted(gen.slots))
    return function


def bind(function: Callable, values: Sequence[object]) -> Callable:
    """*function* with its parameter slots filled from *values* (by
    position), as a new function over its own copy of the globals: one
    compiled function serves every execution, each with its own binds.  A
    function without slots comes back as it is."""
    slots = getattr(function, "slots", None)
    if slots is None:
        return function
    scope = dict(function.__globals__)
    for index in slots:
        scope[f"_p{index}"] = values[index]
    return FunctionType(function.__code__, scope)


class Expression:
    """Abstract base for scalar expressions."""

    def compile(self, schema: Schema) -> RowFunc:
        """Return a ``row -> value`` evaluator bound to *schema*.

        Python's parser accepts about 200 nested parentheses (older ones
        report the overflow as ``MemoryError``) and every node but a
        left-hand arithmetic operand adds a level, so a tree nested deeper
        than that — not a long ``AND``/``OR`` list or ``a + b + …`` chain,
        which render flat — raises :class:`ExpressionError`.
        """
        return _generate((self,), _Codegen(schema), lambda t: f"lambda row: {t[0]}")

    def _render(self, gen: _Codegen) -> str:
        """Python source of this node over ``row``: an atom or parenthesized."""
        raise NotImplementedError

    def to_sql(self) -> str:
        """Render as SQL text in the MiniDB dialect."""
        raise NotImplementedError

    def attributes(self) -> frozenset[str]:
        """Lower-cased attribute names referenced (the paper's ``attr``)."""
        raise NotImplementedError

    def result_type(self, schema: Schema) -> AttrType:
        """Static type of the expression under *schema*."""
        raise NotImplementedError

    def children(self) -> tuple["Expression", ...]:
        return ()

    # Expressions participate in memo keys, so value equality matters.
    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        # Nodes are immutable and sit in memo keys that are looked up over
        # and over: hash the subtree once.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash((type(self).__name__, self._key()))
            object.__setattr__(self, "_hash", value)
            return value

    def _key(self) -> tuple:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.to_sql()

    # Convenience combinators ------------------------------------------------

    def __and__(self, other: "Expression") -> "Expression":
        return And((self, other))

    def __or__(self, other: "Expression") -> "Expression":
        return Or((self, other))

    def __invert__(self) -> "Expression":
        return Not(self)


@dataclass(frozen=True, eq=False)
class ColumnRef(Expression):
    """Reference to an attribute by name."""

    name: str

    def _render(self, gen: _Codegen) -> str:
        return gen.column(self.name)

    def to_sql(self) -> str:
        return self.name

    def attributes(self) -> frozenset[str]:
        return frozenset((self.name.lower(),))

    def result_type(self, schema: Schema) -> AttrType:
        return schema.type_of(self.name)

    def _key(self) -> tuple:
        return (self.name.lower(),)


@dataclass(frozen=True, eq=False)
class Literal(Expression):
    """A constant value (int, float, str, or a DATE day number)."""

    value: object
    type: AttrType | None = None

    def _render(self, gen: _Codegen) -> str:
        return gen.bind("k", self.value)

    @property
    def spelled(self) -> bool:
        """True when :meth:`to_sql` reads back as this value: not for a
        non-finite float (``inf`` would lex as a column) nor a ``bool``."""
        value = self.value
        if type(value) is float:
            return math.isfinite(value)
        return value is None or type(value) in (int, str)

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def result_type(self, schema: Schema) -> AttrType:
        if self.type is not None:
            return self.type
        return value_type(self.value)

    def _key(self) -> tuple:
        return (self.value, self.type)


def value_type(value: object) -> AttrType:
    """The type of a constant: what lexing its SQL spelling gives."""
    if isinstance(value, int):  # bool included
        return AttrType.INT
    if isinstance(value, float):
        return AttrType.FLOAT
    return AttrType.STR


@dataclass(frozen=True, eq=False)
class Parameter(Expression):
    """A ``?`` bind marker: the *index*-th value bound to the statement,
    typed as that value (:func:`value_type`) once the planner knows it."""

    index: int
    type: AttrType | None = None

    def _render(self, gen: _Codegen) -> str:
        return gen.slot(self.index)

    def to_sql(self) -> str:
        return "?"

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def result_type(self, schema: Schema) -> AttrType:
        if self.type is None:
            raise ExpressionError(f"bind marker {self.index + 1} has no type before binding")
        return self.type

    def _key(self) -> tuple:
        return (self.index, self.type)


def inline(sql: str, binds: Sequence[object]) -> str:
    """*sql* with each ``?`` marker spelled as the literal its bind is, in
    text order: the statement a client would have sent without binds."""
    if not binds:
        return sql
    parts = sql.split("?")
    if len(parts) != len(binds) + 1:
        raise ExpressionError(
            f"{len(parts) - 1} bind markers in the text, {len(binds)} values"
        )
    spelled = [Literal(value).to_sql() for value in binds]
    return "".join(part + value for part, value in zip(parts, spelled)) + parts[-1]


@dataclass(frozen=True, eq=False)
class BinOp(Expression):
    """Arithmetic: ``+ - * /``."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def _render(self, gen: _Codegen) -> str:
        left = self.left._render(gen)
        # Python's arithmetic associates to the left as SQL's does, so a left
        # operand that binds at least as tightly drops its own parentheses: a
        # parsed ``a + b + c + …`` chain stays flat however long it is.
        if isinstance(self.left, BinOp) and _BINDS[self.left.op] >= _BINDS[self.op]:
            left = left[1:-1]
        return f"({left} {self.op} {self.right._render(gen)})"

    def to_sql(self) -> str:
        return f"({_operand_sql(self.left)} {self.op} {_operand_sql(self.right)})"

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    def result_type(self, schema: Schema) -> AttrType:
        left = self.left.result_type(schema)
        right = self.right.result_type(schema)
        if AttrType.FLOAT in (left, right) or self.op == "/":
            return AttrType.FLOAT
        return left

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def _key(self) -> tuple:
        return (self.op, self.left, self.right)


@dataclass(frozen=True, eq=False)
class Comparison(Expression):
    """A boolean comparison: ``= <> < <= > >=``."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARISONS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def _render(self, gen: _Codegen) -> str:
        op = _PYTHON_SPELLING.get(self.op, self.op)
        return f"({self.left._render(gen)} {op} {self.right._render(gen)})"

    def to_sql(self) -> str:
        if self.is_null_test():
            return f"{_operand_sql(self.left)} IS NULL"
        return f"{_operand_sql(self.left)} {self.op} {_operand_sql(self.right)}"

    def is_null_test(self) -> bool:
        """``x = NULL``: what the parser reads ``x IS NULL`` as."""
        right = self.right
        return self.op == "=" and isinstance(right, Literal) and right.value is None

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    def result_type(self, schema: Schema) -> AttrType:
        return AttrType.INT

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def _key(self) -> tuple:
        return (self.op, self.left, self.right)

    def flipped(self) -> "Comparison":
        """The same comparison with sides exchanged (``a < b`` → ``b > a``)."""
        flip = {"=": "=", "<>": "<>", "!=": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
        return Comparison(flip[self.op], self.right, self.left)


@dataclass(frozen=True, eq=False)
class And(Expression):
    """N-ary conjunction."""

    terms: tuple[Expression, ...]

    def __init__(self, terms: Iterable[Expression]):
        flattened: list[Expression] = []
        for term in terms:
            if isinstance(term, And):
                flattened.extend(term.terms)
            else:
                flattened.append(term)
        if not flattened:
            raise ExpressionError("empty conjunction")
        object.__setattr__(self, "terms", tuple(flattened))

    def _render(self, gen: _Codegen) -> str:
        terms = " and ".join(term._render(gen) for term in self.terms)
        return f"(True if ({terms}) else False)"

    def to_sql(self) -> str:
        return " AND ".join(
            f"({t.to_sql()})" if isinstance(t, Or) else t.to_sql() for t in self.terms
        )

    def attributes(self) -> frozenset[str]:
        return frozenset().union(*(t.attributes() for t in self.terms))

    def result_type(self, schema: Schema) -> AttrType:
        return AttrType.INT

    def children(self) -> tuple[Expression, ...]:
        return self.terms

    def _key(self) -> tuple:
        return self.terms


@dataclass(frozen=True, eq=False)
class Or(Expression):
    """N-ary disjunction."""

    terms: tuple[Expression, ...]

    def __init__(self, terms: Iterable[Expression]):
        flattened: list[Expression] = []
        for term in terms:
            if isinstance(term, Or):
                flattened.extend(term.terms)
            else:
                flattened.append(term)
        if not flattened:
            raise ExpressionError("empty disjunction")
        object.__setattr__(self, "terms", tuple(flattened))

    def _render(self, gen: _Codegen) -> str:
        terms = " or ".join(term._render(gen) for term in self.terms)
        return f"(True if ({terms}) else False)"

    def to_sql(self) -> str:
        return " OR ".join(t.to_sql() for t in self.terms)

    def attributes(self) -> frozenset[str]:
        return frozenset().union(*(t.attributes() for t in self.terms))

    def result_type(self, schema: Schema) -> AttrType:
        return AttrType.INT

    def children(self) -> tuple[Expression, ...]:
        return self.terms

    def _key(self) -> tuple:
        return self.terms


@dataclass(frozen=True, eq=False)
class Not(Expression):
    """Boolean negation."""

    term: Expression

    def _render(self, gen: _Codegen) -> str:
        return f"(not {self.term._render(gen)})"

    def to_sql(self) -> str:
        term = self.term
        if isinstance(term, Comparison) and term.is_null_test():
            return f"{_operand_sql(term.left)} IS NOT NULL"
        return f"NOT ({term.to_sql()})"

    def attributes(self) -> frozenset[str]:
        return self.term.attributes()

    def result_type(self, schema: Schema) -> AttrType:
        return AttrType.INT

    def children(self) -> tuple[Expression, ...]:
        return (self.term,)

    def _key(self) -> tuple:
        return (self.term,)


def _operand_sql(expression: Expression) -> str:
    """An operand of arithmetic or of a comparison: a predicate standing
    there (a boolean column the translator substituted) is parenthesized."""
    sql = expression.to_sql()
    return f"({sql})" if isinstance(expression, (Comparison, And, Or, Not)) else sql


_FUNCTIONS: dict[str, Callable[..., object]] = {
    "GREATEST": max,
    "LEAST": min,
    "ABS": abs,
    "LENGTH": len,
}


@dataclass(frozen=True, eq=False)
class FuncCall(Expression):
    """Scalar function call — notably ``GREATEST``/``LEAST`` (Figure 5)."""

    name: str
    args: tuple[Expression, ...]

    def __init__(self, name: str, args: Iterable[Expression]):
        upper = name.upper()
        if upper not in _FUNCTIONS:
            raise ExpressionError(f"unknown scalar function {name!r}")
        object.__setattr__(self, "name", upper)
        object.__setattr__(self, "args", tuple(args))

    def _render(self, gen: _Codegen) -> str:
        func = gen.bind("f", _FUNCTIONS[self.name])
        return f"{func}({', '.join(arg._render(gen) for arg in self.args)})"

    def to_sql(self) -> str:
        rendered = ", ".join(arg.to_sql() for arg in self.args)
        return f"{self.name}({rendered})"

    def attributes(self) -> frozenset[str]:
        if not self.args:
            return frozenset()
        return frozenset().union(*(a.attributes() for a in self.args))

    def result_type(self, schema: Schema) -> AttrType:
        if self.name == "LENGTH":
            return AttrType.INT
        if not self.args:
            return AttrType.INT
        return self.args[0].result_type(schema)

    def children(self) -> tuple[Expression, ...]:
        return self.args

    def _key(self) -> tuple:
        return (self.name, self.args)


def compile_row(expressions: Sequence[Expression], schema: Schema) -> Callable[[tuple], tuple]:
    """One ``row -> tuple`` function computing every expression at once."""
    if len(expressions) > 1 and all(isinstance(e, ColumnRef) for e in expressions):
        return operator.itemgetter(*(schema.index_of(e.name) for e in expressions))
    return _generate(
        expressions, _Codegen(schema), lambda t: f"lambda row: {_tuple_display(t)}"
    )


#: The parameters and ``for`` clauses of a block kernel, by shape: one input
#: (``row``), or a pair (``l``, ``r``): a left row beside the right rows
#: matching it, a nested loop, or an index probe per outer row.
_BLOCK_LOOPS = {
    "rows": ("rows", "for row in rows"),
    "merge": ("matched", "for l, rs in matched for r in rs"),
    "loop": ("outer, inner", "for l in outer for r in inner"),
    "probe": ("outer, probe", "for l in outer for r in probe(l)"),
}


def compile_block(
    shape: str,
    output: Sequence[Expression] | None,
    conditions: Sequence[Expression],
    schema: Schema,
    right: Schema | None = None,
    not_null: Sequence[str] = (),
) -> Callable[..., list[tuple]]:
    """One list comprehension doing a SELECT block's per-row work.

    The rows (or pairs, for the three pair shapes of ``_BLOCK_LOOPS``) that
    pass every condition — and whose *not_null* columns are not NULL, tested
    first — become the tuple of *output*, or stay the input row itself for
    ``output=None`` on the ``rows`` shape.  The source is assembled from
    rendered expressions and those fixed clauses only, so no query text
    reaches it either.
    """
    params, loops = _BLOCK_LOOPS[shape]
    gen = _Codegen(schema, right)
    guards = "".join(f" if {gen.column(name)} is not None" for name in not_null)
    heads = list(output) if output is not None else []
    split = len(heads)

    def template(terms: list[str]) -> str:
        head = _tuple_display(terms[:split]) if output is not None else "row"
        tests = "".join(f" if {term}" for term in terms[split:])
        return f"lambda {params}: [{head} {loops}{guards}{tests}]"

    return _generate([*heads, *conditions], gen, template)


# -- convenience constructors -------------------------------------------------


def col(name: str) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`."""
    return ColumnRef(name)


def lit(value: object, type: AttrType | None = None) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value, type)


def conjuncts(predicate: Expression | None) -> Iterator[Expression]:
    """Yield the top-level AND-terms of *predicate* (none for ``None``)."""
    if predicate is None:
        return
    if isinstance(predicate, And):
        yield from predicate.terms
    else:
        yield predicate


def conjoin(terms: Sequence[Expression]) -> Expression | None:
    """Combine terms with AND; ``None`` for an empty sequence."""
    if not terms:
        return None
    if len(terms) == 1:
        return terms[0]
    return And(terms)


def attributes_of(*expressions: Expression | None) -> frozenset[str]:
    """Union of attribute names over possibly-``None`` expressions."""
    names: frozenset[str] = frozenset()
    for expression in expressions:
        if expression is not None:
            names |= expression.attributes()
    return names
