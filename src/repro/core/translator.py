"""Translator-To-SQL (Figure 1).

Translates the parts of a chosen plan that are assigned to the DBMS — the
subtrees below each ``T^M`` that reach either the leaf level (base-relation
scans) or a ``T^D`` (a middleware-produced temp table) — into SQL text.

The unit of translation is the select-project-join *block*
(:class:`_Block`): FROM items, WHERE conjuncts, and named outputs that are
expressions over alias-qualified source columns.  ``Scan`` and ``T^D`` open
a block; ``Select`` substitutes its predicate through the outputs and
appends the conjuncts; ``Project`` rewrites the outputs; the joins
concatenate their sides' FROM lists and conjuncts and add the join
condition.  One block renders as one flat ``SELECT`` — the statements of
the paper's Figure 5 — so the DBMS sees each predicate next to the scan it
restricts and each equi-join as ``Qa.x = Qb.y``.

``Dedup`` (``SELECT DISTINCT`` over its input's block) and ``TAGGR^D`` (the
constant-interval SQL of Section 3.4, the "50-line SQL query") *close* a
block: what is above them sees ``(sql) Qn`` as one more FROM item.  Three
rules close a block early; DESIGN.md §16 says what each protects.

Interior sorts are dropped (a DBMS provides no order guarantees below the
top level — Section 4); only the top-most sort becomes the final
``ORDER BY``.

Every literal but NULL travels as a bind (DESIGN.md §23): the statement
says ``?`` where the literal stood, and its binds are the values in text
order, so statements that differ only in their literals are one text, which
the DBMS parses and plans once.  A negative number is sent as ``-?`` over
its magnitude, which the DBMS reads as the same ``0 - n`` its spelling
would give.  :meth:`SQLTranslator.translate` spells each bind back into its
marker: the text a region was sent as before binds, which explain output
and the goldens show.

A region with no ``T^D`` in it translates to the same statement every
time, so its :class:`BoundSQL` is kept on the region's root node (next to
the node's cached ``schema`` and ``cache_key``, and dropped with them by
``replaced``): a cached plan is translated once.  A region that reads a
``T^D`` is translated per execution, because its temp table is named per
execution.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable, Sequence

from repro.algebra.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    FuncCall,
    Literal,
    conjoin,
    conjuncts,
    inline,
)
from repro.algebra.operators import (
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
)
from repro.algebra.rewrite import collect, transform
from repro.errors import PlanError


class SQLTranslator:
    """Stateless translator; temp-table names for ``T^D`` nodes are supplied
    per call (they are assigned when the execution plan is linearized)."""

    def translate(self, plan: Operator, temp_tables: dict[int, str] | None = None) -> str:
        """SQL text for a DBMS-located plan subtree, every literal spelled
        in place.

        *temp_tables* maps ``id(transfer_d_node)`` to the table each ``T^D``
        loaded.
        """
        return self.translate_bound(plan, temp_tables).text

    def translate_bound(
        self, plan: Operator, temp_tables: dict[int, str] | None = None
    ) -> BoundSQL:
        """The statement for a DBMS-located plan subtree, with its binds."""
        bound = plan.__dict__.get(_SQL)
        if bound is not None:
            return bound
        if plan.location is not Location.DBMS:
            raise PlanError(
                f"cannot translate {plan.name} at {plan.location.value} to SQL"
            )
        context = _Context(temp_tables or {})
        if isinstance(plan, Sort):
            sql = context.statement(plan.input) + "\nORDER BY " + ", ".join(plan.keys)
        else:
            sql = context.statement(plan)
        bound = context.bound(sql)
        if not context.reads_temp_table:
            plan.__dict__[_SQL] = bound
        return bound


class BoundSQL:
    """A statement with ``?`` markers, and the values they stand for in
    text order."""

    __slots__ = ("sql", "binds", "_text")

    def __init__(self, sql: str, binds: tuple[object, ...]):
        self.sql = sql
        self.binds = binds
        self._text: str | None = None

    @property
    def text(self) -> str:
        """The statement with every bind spelled back into its marker."""
        if self._text is None:
            self._text = inline(self.sql, self.binds)
        return self._text


#: Where a region's root keeps its statement; one of the names ``replaced`` drops.
_SQL = "sql"

#: Delimits a bind's place in the text while a statement is assembled:
#: never part of an SQL token, and every literal it could clash with is a
#: bind by then.
_MARK = "\x00"


class _Marker(Expression):
    """A literal's place in the text being assembled: the number of its
    value, between two marks.  A negative number is marked as its magnitude
    after a minus, the ``0 - n`` its spelling is lexed as."""

    def __init__(self, number: int, negative: bool):
        self.number = number
        self.negative = negative

    def to_sql(self) -> str:
        return f"{'-' if self.negative else ''}{_MARK}{self.number}{_MARK}"

    def _key(self) -> tuple:
        return (self.number, self.negative)


def _negative(value: object) -> bool:
    """A number spelled with a leading minus (``-0.0`` included)."""
    if type(value) is float:
        return math.copysign(1.0, value) < 0
    return type(value) is int and value < 0


class _Block:
    """One select-project-join block: what a single SELECT says."""

    def __init__(
        self,
        items: list[str],
        where: list[Expression],
        outputs: Iterable[tuple[str, Expression]],
    ):
        #: FROM items in join order, each ``TABLE Qn`` or ``(sql) Qn``.
        self.items = items
        #: WHERE conjuncts over alias-qualified columns, each kept once.
        self.where = where
        #: Per output column, by lower-cased name and in SELECT-list order:
        #: ``(name, expression over alias-qualified columns)``.
        self.outputs = {name.lower(): (name, expression) for name, expression in outputs}

    def __getitem__(self, name: str) -> Expression:
        try:
            return self.outputs[name.lower()][1]
        except KeyError:
            raise PlanError(f"{name!r} is not an output of the operator's input") from None

    def substitute(self, expression: Expression) -> Expression:
        """*expression* over output names, rewritten over source columns."""
        if isinstance(expression, ColumnRef):  # most projections: no tree to walk
            return self[expression.name]

        def visit(node: Expression) -> Expression | None:
            return self[node.name] if isinstance(node, ColumnRef) else None

        return transform(expression, visit)

    def add(self, terms: Iterable[Expression]) -> None:
        for term in terms:
            if term not in self.where:
                self.where.append(term)

    def render(self, sql: Callable[[Expression], str], distinct: bool = False) -> str:
        """The SELECT, each expression rendered by *sql*."""
        columns = ", ".join(
            f"{sql(expression)} AS {name}" for name, expression in self.outputs.values()
        )
        text = f"SELECT {'DISTINCT ' if distinct else ''}{columns}\nFROM {', '.join(self.items)}"
        if self.where:
            text += f"\nWHERE {sql(conjoin(self.where))}"
        return text


class _Context:
    def __init__(self, temp_tables: dict[int, str]):
        self._temp_tables = temp_tables
        self._alias_counter = 0
        #: True once a ``T^D``'s per-execution table name is in the text.
        self.reads_temp_table = False
        #: The bound values, by marker number.
        self._values: list[object] = []

    def sql(self, expression: Expression) -> str:
        """*expression* as SQL with a marker for every literal but NULL,
        refused when a literal has no spelling the DBMS would read back as
        that value."""
        for literal in collect(expression, Literal):
            if not literal.spelled:
                raise PlanError(f"literal {literal.value!r} has no SQL spelling")
        return transform(expression, self._mark).to_sql()

    def _mark(self, node: Expression) -> Expression | None:
        if not isinstance(node, Literal) or node.value is None:
            return None
        negative = _negative(node.value)
        self._values.append(-node.value if negative else node.value)
        return _Marker(len(self._values) - 1, negative)

    def bound(self, sql: str) -> BoundSQL:
        """The assembled *sql* with each marker a ``?``, and its binds in
        text order (a block copied twice into the text binds twice)."""
        parts = sql.split(_MARK)
        binds = tuple(self._values[int(number)] for number in parts[1::2])
        return BoundSQL("?".join(parts[::2]), binds)

    def _alias(self) -> str:
        self._alias_counter += 1
        return f"Q{self._alias_counter}"

    def statement(self, node: Operator) -> str:
        """The SELECT statement computing *node*."""
        if isinstance(node, Sort):
            # Interior sort: the DBMS gives no mid-plan order guarantee, so
            # the sort is translated away (multiset equivalence).
            return self.statement(node.input)
        if isinstance(node, Dedup):
            return self._block(node.input).render(self.sql, distinct=True)
        if isinstance(node, TemporalAggregate):
            return self._render_taggr(node)
        return self._block(node).render(self.sql)

    def _source(self, node: Operator) -> str:
        """What *node* is called in a FROM clause: a table, or its statement."""
        if isinstance(node, Scan):
            return node.table
        if isinstance(node, TransferD):
            self.reads_temp_table = True
            try:
                return self._temp_tables[id(node)]
            except KeyError:
                raise PlanError(
                    "T^D node has no assigned temp table; compile the plan "
                    "through repro.core.plans.compile_plan"
                ) from None
        return f"({self.statement(node)})"

    def _from_item(self, node: Operator) -> str:
        return f"{self._source(node)} {self._alias()}"

    def _open(self, source: str, names: Sequence[str]) -> _Block:
        """A block over one FROM item whose columns are *names*."""
        alias = self._alias()
        return _Block(
            [f"{source} {alias}"], [], [(name, ColumnRef(f"{alias}.{name}")) for name in names]
        )

    def _close(self, block: _Block) -> _Block:
        """*block* as a derived table: every output a bare column again."""
        names = [name for name, _ in block.outputs.values()]
        return self._open(f"({block.render(self.sql)})", names)

    # -- per-operator blocks ------------------------------------------------------------

    def _block(self, node: Operator) -> _Block:
        if isinstance(node, (Scan, TransferD, Dedup, TemporalAggregate)):
            return self._open(self._source(node), node.schema.names)
        if isinstance(node, Sort):
            return self._block(node.input)
        if isinstance(node, Select):
            return self._select(self._block(node.input), node.predicate)
        if isinstance(node, Project):
            block = self._flat(
                self._block(node.input), [expression for _, expression in node.outputs]
            )
            return _Block(
                block.items,
                block.where,
                [(name, block.substitute(expression)) for name, expression in node.outputs],
            )
        if isinstance(node, (Product, Join, TemporalJoin)):
            return self._join(node)
        raise PlanError(f"no SQL translation for {node.name} in the DBMS")

    def _flat(self, block: _Block, expressions: Sequence[Expression]) -> _Block:
        """*block*, closed first when *expressions* together mention one of
        its computed outputs more than once: substituting would copy the
        computation, and a chain of such operators would double it per level."""
        computed = [
            name
            for name, (_, expression) in block.outputs.items()
            if not isinstance(expression, ColumnRef)
        ]
        if computed:
            mentions = Counter(
                reference.name.lower()
                for expression in expressions
                for reference in collect(expression, ColumnRef)
            )
            if any(mentions[name] > 1 for name in computed):
                return self._close(block)
        return block

    def _select(self, block: _Block, predicate: Expression) -> _Block:
        block = self._flat(block, [predicate])
        block.add(conjuncts(block.substitute(predicate)))
        return block

    def _join(self, node: Product | Join | TemporalJoin) -> _Block:
        """Both sides' FROM items and conjuncts in one block, outputs named
        after ``node.schema`` (which disambiguates duplicates with ``_2``)."""
        left, right = self._block(node.left), self._block(node.right)
        keyed = not isinstance(node, Product)
        # The DBMS picks its sort-merge join on ``Qa.x = Qb.y`` between bare
        # columns, and joins FROM items left-deep in textual order: a merged
        # bushy right input could meet its left neighbour in a cross product.
        if keyed and not isinstance(left[node.left_attr], ColumnRef):
            left = self._close(left)
        if len(right.items) > 1 or (
            keyed and not isinstance(right[node.right_attr], ColumnRef)
        ):
            right = self._close(right)
        terms: list[Expression] = []
        if keyed:
            terms.append(Comparison("=", left[node.left_attr], right[node.right_attr]))
        if isinstance(node, TemporalJoin):
            # Figure 5: overlap condition, GREATEST/LEAST intersection period.
            t1, t2 = node.period
            terms.append(Comparison("<", left[t1], right[t2]))
            terms.append(Comparison(">", left[t2], right[t1]))
            sources = [
                expression
                for side in (left, right)
                for name, (_, expression) in side.outputs.items()
                if name not in (t1.lower(), t2.lower())
            ]
            sources.append(FuncCall("GREATEST", (left[t1], right[t1])))
            sources.append(FuncCall("LEAST", (left[t2], right[t2])))
        else:
            sources = [
                expression for side in (left, right) for _, expression in side.outputs.values()
            ]
        block = _Block(left.items + right.items, left.where, zip(node.schema.names, sources))
        block.add(right.where + terms)
        if isinstance(node, Join) and node.residual is not None:
            # The residual speaks the join's output names, as a Select above.
            return self._select(block, node.residual)
        return block

    def _render_taggr(self, node: TemporalAggregate) -> str:
        """The constant-interval SQL rewrite of temporal aggregation.

        Shape (for grouping attributes G and period T1/T2):

        1. ``instants``: all T1 and T2 values per G (``UNION`` dedups);
        2. ``intervals``: each instant paired with the next instant of the
           same group (``MIN`` over later instants);
        3. count/aggregate the argument tuples whose period covers each
           interval.

        Intervals covered by no tuple vanish via the inner join, so the
        result matches ``TAGGR^M`` (Figure 3(c)), NULL arguments included:
        ``COUNT(A)`` counts the non-NULL ones.  Not NULL groups: a NULL
        grouping value joins nothing, so its group is dropped here.
        """
        source = self._from_item(node.input)
        t1, t2 = node.period
        group = list(node.group_by)
        group_cols = ", ".join(group) if group else ""

        def instants() -> str:
            prefix = f"{group_cols}, " if group else ""
            return (
                f"SELECT {prefix}{t1} AS TS FROM {source} "
                f"UNION SELECT {prefix}{t2} FROM {self._from_item(node.input)}"
            )

        i1 = self._alias()
        i2 = self._alias()
        join_groups = " AND ".join(
            f"{i1}.{g} = {i2}.{g}" for g in group
        )
        group_select = ", ".join(f"{i1}.{g} AS {g}" for g in group)
        interval_group_by = ", ".join([f"{i1}.{g}" for g in group] + [f"{i1}.TS"])
        intervals = (
            "SELECT "
            + (group_select + ", " if group else "")
            + f"{i1}.TS AS TS, MIN({i2}.TS) AS TE\n"
            + f"FROM ({instants()}) {i1}, ({instants()}) {i2}\n"
            + "WHERE "
            + (join_groups + " AND " if group else "")
            + f"{i1}.TS < {i2}.TS\n"
            + f"GROUP BY {interval_group_by}"
        )

        iv = self._alias()
        arg = self._from_item(node.input)
        p = arg.rsplit(" ", 1)[1]
        final_outputs = [f"{iv}.{g} AS {g}" for g in group]
        final_outputs.append(f"{iv}.TS AS {t1}")
        final_outputs.append(f"{iv}.TE AS {t2}")
        for spec in node.aggregates:
            argument = "*" if spec.attribute is None else f"{p}.{spec.attribute}"
            final_outputs.append(f"{spec.func}({argument}) AS {spec.output_name}")
        match_groups = " AND ".join(f"{p}.{g} = {iv}.{g}" for g in group)
        final_group_by = ", ".join(
            [f"{iv}.{g}" for g in group] + [f"{iv}.TS", f"{iv}.TE"]
        )
        return (
            f"SELECT {', '.join(final_outputs)}\n"
            f"FROM ({intervals}) {iv}, {arg}"
            + "\nWHERE "
            + (match_groups + " AND " if group else "")
            + f"{p}.{t1} <= {iv}.TS AND {iv}.TE <= {p}.{t2}\n"
            + f"GROUP BY {final_group_by}"
        )
