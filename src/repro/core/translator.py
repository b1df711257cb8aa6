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

A region with no ``T^D`` in it translates to the same text every time, so
its SQL is kept on the region's root node (next to the node's cached
``schema`` and ``cache_key``, and dropped with them by ``replaced``): a
cached plan is translated once.  A region that reads a ``T^D`` is
translated per execution, because its temp table's name is fresh each time.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.algebra.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    FuncCall,
    Literal,
    conjoin,
    conjuncts,
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
        """SQL for a DBMS-located plan subtree.

        *temp_tables* maps ``id(transfer_d_node)`` to the table each ``T^D``
        loaded.
        """
        sql = plan.__dict__.get(_SQL)
        if sql is not None:
            return sql
        if plan.location is not Location.DBMS:
            raise PlanError(
                f"cannot translate {plan.name} at {plan.location.value} to SQL"
            )
        context = _Context(temp_tables or {})
        if isinstance(plan, Sort):
            sql = context.statement(plan.input) + "\nORDER BY " + ", ".join(plan.keys)
        else:
            sql = context.statement(plan)
        if not context.reads_temp_table:
            plan.__dict__[_SQL] = sql
        return sql


#: Where a region's root keeps its SQL; one of the names ``replaced`` drops.
_SQL = "sql"


def _sql(expression: Expression) -> str:
    """*expression* as SQL, refused when a literal in it has no spelling
    the DBMS would read back as that value."""
    for literal in collect(expression, Literal):
        if not literal.spelled:
            raise PlanError(f"literal {literal.value!r} has no SQL spelling")
    return expression.to_sql()


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

    def render(self, distinct: bool = False) -> str:
        columns = ", ".join(
            f"{_sql(expression)} AS {name}" for name, expression in self.outputs.values()
        )
        sql = f"SELECT {'DISTINCT ' if distinct else ''}{columns}\nFROM {', '.join(self.items)}"
        if self.where:
            sql += f"\nWHERE {_sql(conjoin(self.where))}"
        return sql


class _Context:
    def __init__(self, temp_tables: dict[int, str]):
        self._temp_tables = temp_tables
        self._alias_counter = 0
        #: True once a ``T^D``'s per-execution table name is in the text.
        self.reads_temp_table = False

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
            return self._block(node.input).render(distinct=True)
        if isinstance(node, TemporalAggregate):
            return self._render_taggr(node)
        return self._block(node).render()

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
        return self._open(f"({block.render()})", [name for name, _ in block.outputs.values()])

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
