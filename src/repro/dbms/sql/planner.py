"""SQL planner: turns a parsed :class:`SelectStmt` into a chain of stages.

MiniDB keeps planning deliberately simple and deterministic — the middleware
treats the DBMS as a black box, and reproducibility matters more than clever
join ordering:

* FROM items are joined left-deep in textual order;
* equi-join conjuncts drive a **sort-merge join** by default; the hints
  ``/*+ USE_NL */`` and ``/*+ USE_MERGE */`` force the method (the paper uses
  Oracle hints exactly this way in Query 4);
* single-table conjuncts are pushed down to the scans, with equality
  predicates served by an index when one exists;
* grouping is hash-based; ``ORDER BY`` is a stable sort.

A block's per-row work — its pushed-down filters, each join's pairing and
residual, and its select list — is generated as list comprehensions by
:func:`~repro.algebra.expressions.compile_block` (DESIGN.md §21): a join
tests its residual on the pair of input rows and builds the row that is read
later — the output row itself when it is the block's last — instead of
concatenating the two.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Sequence

from repro.algebra.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    attributes_of,
    compile_block,
    compile_row,
    conjoin,
    conjuncts,
)
from repro.algebra.rewrite import collect, substitute, transform
from repro.algebra.schema import Attribute, Schema
from repro.dbms.costmodel import CostMeter
from repro.dbms.sql.ast import (
    AggregateCall,
    DerivedTable,
    OrderItem,
    SelectItem,
    SelectStmt,
    TableRef,
)
from repro.dbms.sql.executor import (
    Concatenated,
    Distinct,
    Filtered,
    Grouped,
    IndexJoined,
    Limited,
    Listed,
    MergeJoined,
    NestedLooped,
    Probed,
    ResultSet,
    Stage,
    pay,
    sort_charge,
    sort_rows,
)
from repro.errors import CatalogError, ExecutionError, SQLSyntaxError

if TYPE_CHECKING:  # pragma: no cover
    from repro.dbms.database import MiniDB


class _Source:
    """One FROM item: its binding name, schema, and a row supplier."""

    def __init__(self, binding: str, schema: Schema, table_name: str | None):
        self.binding = binding
        self.schema = schema
        #: Base-table name when this is a TableRef (enables index access).
        self.table_name = table_name
        #: Materialized rows for derived tables.
        self.materialized: list[tuple] | None = None


class _Scope:
    """Name resolution across the FROM items of one SELECT.

    The *combined* schema concatenates all sources, with attributes renamed
    ``BINDING.NAME`` so they are globally unique.  Qualified references
    resolve directly; unqualified references must be unambiguous.
    """

    def __init__(self, sources: Sequence[_Source]):
        self.sources = list(sources)
        #: Each binding's slice of the combined schema: what its
        #: single-table conjuncts are compiled against.
        self.local: dict[str, Schema] = {}
        attributes: list[Attribute] = []
        for source in sources:
            if source.binding in self.local:
                raise SQLSyntaxError(
                    f"duplicate table binding {source.binding!r}; use aliases"
                )
            renamed = [
                attribute.renamed(f"{source.binding}.{attribute.name}")
                for attribute in source.schema
            ]
            self.local[source.binding] = Schema(renamed)
            attributes.extend(renamed)
        self.combined = Schema(attributes)

    def resolve_name(self, name: str) -> str:
        """Map a (possibly qualified) column name to its combined name."""
        if "." in name:
            qualifier, column = name.split(".", 1)
            qualifier = qualifier.upper()
            for source in self.sources:
                if source.binding == qualifier:
                    if not source.schema.has(column):
                        raise CatalogError(
                            f"binding {qualifier} has no column {column!r}"
                        )
                    canonical = source.schema[column].name
                    return f"{source.binding}.{canonical}"
            raise CatalogError(f"unknown table binding {qualifier!r}")
        matches = [
            source for source in self.sources if source.schema.has(name)
        ]
        if not matches:
            raise CatalogError(f"unknown column {name!r}")
        if len(matches) > 1:
            bindings = ", ".join(source.binding for source in matches)
            raise SQLSyntaxError(f"column {name!r} is ambiguous ({bindings})")
        source = matches[0]
        canonical = source.schema[name].name
        return f"{source.binding}.{canonical}"

    def resolve(self, expression: Expression) -> Expression:
        """Rewrite every column reference to its combined name."""

        def visit(node: Expression) -> Expression | None:
            if isinstance(node, ColumnRef):
                return ColumnRef(self.resolve_name(node.name))
            return None

        return transform(expression, visit)

    def bindings_of(self, expression: Expression) -> frozenset[str]:
        """Bindings referenced by a *resolved* expression."""
        return frozenset(
            name.split(".", 1)[0].upper() for name in expression.attributes()
        )


def plan_select(db: "MiniDB", stmt: SelectStmt, meter: CostMeter) -> ResultSet:
    """Plan a SELECT and return its :class:`ResultSet`.

    Planning charges *meter* for what is paid before the first row: the
    scans, and every input that a sort, a merge join or a nested loop's
    inner side materializes.  The rest is computed at the first fetch and
    charged then, in full (DESIGN.md §21).
    """
    schema, stage = _plan(db, stmt, meter)
    return ResultSet(schema, stage, meter)


def _plan(db: "MiniDB", stmt: SelectStmt, meter: CostMeter) -> tuple[Schema, Stage]:
    if stmt.unions:
        return _plan_union(db, stmt, meter)
    return _plan_core(db, stmt, meter)


def _plan_union(
    db: "MiniDB", stmt: SelectStmt, meter: CostMeter
) -> tuple[Schema, Stage]:
    base = SelectStmt(
        items=stmt.items,
        from_items=stmt.from_items,
        where=stmt.where,
        group_by=stmt.group_by,
        having=stmt.having,
        distinct=stmt.distinct,
        hints=stmt.hints,
    )
    parts = [_plan_core(db, base, meter)]
    keep_duplicates = True
    for keep_all, arm in stmt.unions:
        keep_duplicates = keep_duplicates and keep_all
        parts.append(_plan_core(db, arm, meter))
    schema = parts[0][0]
    for part_schema, _ in parts[1:]:
        if len(part_schema) != len(schema):
            raise ExecutionError("UNION arms have different arities")
    stage: Stage = Concatenated([part for _, part in parts])
    if not keep_duplicates:
        stage = Distinct(stage)
    if stmt.order_by:
        stage = Listed(_apply_order(stage.drain(meter), stmt.order_by, schema, meter))
    if stmt.limit is not None:
        stage = Limited(stage, stmt.limit)
    return schema, stage


def _plan_core(
    db: "MiniDB", stmt: SelectStmt, meter: CostMeter
) -> tuple[Schema, Stage]:
    sources = [_make_source(db, item, meter) for item in stmt.from_items]
    scope = _Scope(sources)
    pending = [scope.resolve(term) for term in conjuncts(stmt.where)]

    output_items = _expand_stars(stmt.items, scope)
    group_exprs = [scope.resolve(term) for term in stmt.group_by]
    having = scope.resolve(stmt.having) if stmt.having is not None else None
    aggregate_calls = _collect_aggregates(output_items, having)
    grouped = bool(group_exprs or aggregate_calls)
    if having is not None and not grouped:
        raise SQLSyntaxError("HAVING requires GROUP BY or aggregates")

    outputs = [expression for _, expression in output_items]
    presort = None
    if not grouped:
        output_schema = _output_schema(output_items, scope.combined)
        presort = _presort_items(stmt.order_by, output_schema, scope, group_exprs)
    reads = attributes_of(
        *outputs, *group_exprs, having, *(item.expression for item in presort or ())
    )
    # The last kernel of an ungrouped, unpresorted block builds its output rows.
    fused = outputs if not grouped and presort is None else None
    stage, row_schema = _join_sources(
        db, sources, scope, pending, stmt.hints, reads, fused, meter
    )

    if grouped:
        stage, row_schema, mapping = _apply_grouping(
            stage, row_schema, group_exprs, aggregate_calls
        )
        output_items = [
            (name, substitute(expression, mapping))
            for name, expression in output_items
        ]
        outputs = [expression for _, expression in output_items]
        if having is not None:
            having = substitute(having, mapping)
        output_schema = _output_schema(output_items, row_schema)
        presort = _presort_items(stmt.order_by, output_schema, scope, group_exprs)
    if fused is None:
        filters = [having] if having is not None else []
        if presort is not None:
            unsorted = _kernel(stage, [filters], None, row_schema)
            rows = _apply_order(unsorted.drain(meter), presort, row_schema, meter)
            stage, filters = Listed(rows), []
        stage = _kernel(stage, [filters], outputs, row_schema)

    if stmt.distinct:
        stage = Distinct(stage)
    if stmt.order_by and presort is None:
        resolved = tuple(
            OrderItem(_resolve_output(item.expression, output_schema), item.ascending)
            for item in stmt.order_by
        )
        stage = Listed(_apply_order(stage.drain(meter), resolved, output_schema, meter))
    if stmt.limit is not None:
        stage = Limited(stage, stmt.limit)
    return output_schema, stage


def _output_schema(
    output_items: list[tuple[str, Expression]], schema: Schema
) -> Schema:
    return Schema(
        Attribute(name, expression.result_type(schema))
        for name, expression in output_items
    )


def _kernel(
    upstream: Stage,
    levels: list[list[Expression]],
    outputs: list[Expression] | None,
    schema: Schema,
) -> Stage:
    """The generated kernel over one input: each level a list of conjuncts
    billed as one filter, then the select list *outputs* (``None``: the rows
    as they are)."""
    levels = [level for level in levels if level]
    if not levels and outputs is None:
        return upstream
    kernel = compile_block(
        "rows", outputs, [term for level in levels for term in level], schema
    )
    tests = [partial(Expression.compile, conjoin(level), schema) for level in levels]
    return Filtered(upstream, kernel, tests, projects=outputs is not None)


# -- FROM / joins ------------------------------------------------------------------


def _make_source(db: "MiniDB", item: TableRef | DerivedTable, meter: CostMeter) -> _Source:
    if isinstance(item, TableRef):
        table = db.table(item.table)
        return _Source(item.binding, table.schema, table.name)
    schema, stage = _plan(db, item.select, meter)
    source = _Source(item.binding, schema, None)
    source.materialized = stage.drain(meter)
    # Materializing a derived table costs a write+read pass over its blocks.
    blocks = max(1, len(source.materialized) * schema.row_width // 8192)
    meter.charge_io(2 * blocks)
    return source


def _join_sources(
    db: "MiniDB",
    sources: list[_Source],
    scope: _Scope,
    pending: list[Expression],
    hints: tuple[str, ...],
    reads: frozenset[str],
    outputs: list[Expression] | None,
    meter: CostMeter,
) -> tuple[Stage, Schema]:
    """Left-deep join of all sources, every WHERE conjunct applied on the way.

    With *outputs* the last kernel builds the block's output rows; without,
    the rows carry the columns named in *reads* (lower-cased), and the
    returned schema says where (it means nothing with *outputs*).  Every
    join emits only the columns read after it.
    """
    first = sources[0]
    stage, filters, pending = _access(db, first, scope, pending, meter)
    layout = scope.local[first.binding]
    if len(sources) == 1:
        # What is left are constant conjuncts: a second filter over the rows
        # that passed the scan's.
        return _kernel(stage, [filters, pending], outputs, layout), layout
    stage = _kernel(stage, [filters], None, layout)
    bindings = frozenset((first.binding,))
    method = "nl" if "USE_NL" in hints else "merge"

    for position, source in enumerate(sources[1:], start=2):
        new_bindings = bindings | {source.binding}
        right = scope.local[source.binding]

        # Index nested loop (Oracle's USE_NL over an indexed inner): decided
        # before any pushdown so the inner table is never scanned.  All
        # inner-local conjuncts become residual filters on the joined pairs.
        index_join = None
        if method == "nl" and source.materialized is None:
            evaluable = [
                term for term in pending if scope.bindings_of(term) <= new_bindings
            ]
            equi = _find_equi_join(evaluable, scope, bindings, source.binding)
            if equi is not None:
                bare = equi[1].split(".", 1)[1]
                index = db.find_index(source.table_name or source.binding, bare)
                if index is not None:
                    index_join = (equi, index)
        if index_join is None:
            inner, inner_filters, pending = _access(db, source, scope, pending, meter)
            evaluable = [
                term for term in pending if scope.bindings_of(term) <= new_bindings
            ]
            equi = _find_equi_join(evaluable, scope, bindings, source.binding)
        pending = [term for term in pending if term not in evaluable]
        residual = [term for term in evaluable if term is not (equi and equi[2])]

        projects = position == len(sources) and outputs is not None
        if projects:
            emit, narrowed = outputs, layout
        else:
            later = reads | attributes_of(*pending)
            kept = [a for a in (*layout, *right) if a.name.lower() in later]
            emit, narrowed = [ColumnRef(a.name) for a in kept], Schema(kept)

        if index_join is not None:
            (left_name, _, _), index = index_join
            stage = IndexJoined(
                stage,
                index,
                layout.index_of(left_name),
                compile_block("probe", emit, residual, layout, right),
                projects,
            )
        elif equi is not None and method == "merge":
            left_name, right_name, _ = equi
            left_rows = stage.drain(meter)
            pay(meter, sort_charge(len(left_rows), scope.combined.row_width))
            right_rows = _kernel(inner, [inner_filters], None, right).drain(meter)
            pay(meter, sort_charge(len(right_rows), source.schema.row_width))
            stage = MergeJoined(
                left_rows,
                right_rows,
                layout.index_of(left_name),
                right.index_of(right_name),
                compile_block("merge", emit, residual, layout, right),
                projects,
            )
        else:
            # A NULL key joins nothing, as in the merge join.
            not_null = () if equi is None else (equi[0],)
            inner_rows = _kernel(inner, [inner_filters], None, right).drain(meter)
            stage = NestedLooped(
                stage,
                inner_rows,
                compile_block("loop", emit, evaluable, layout, right, not_null),
                projects,
            )
        layout = narrowed
        bindings = new_bindings
    return stage, layout


def _find_equi_join(
    evaluable: list[Expression],
    scope: _Scope,
    left_bindings: frozenset[str],
    right_binding: str,
) -> tuple[str, str, Expression] | None:
    """Find ``left.col = right.col`` linking the accumulated side to the new
    source.  Returns (left combined name, right combined name, conjunct)."""
    for term in evaluable:
        if not isinstance(term, Comparison) or term.op != "=":
            continue
        if not (isinstance(term.left, ColumnRef) and isinstance(term.right, ColumnRef)):
            continue
        left_bind = term.left.name.split(".", 1)[0].upper()
        right_bind = term.right.name.split(".", 1)[0].upper()
        if left_bind in left_bindings and right_bind == right_binding:
            return term.left.name, term.right.name, term
        if right_bind in left_bindings and left_bind == right_binding:
            return term.right.name, term.left.name, term
    return None


def _access(
    db: "MiniDB",
    source: _Source,
    scope: _Scope,
    pending: list[Expression],
    meter: CostMeter,
) -> tuple[Stage, list[Expression], list[Expression]]:
    """How one source's rows are reached, its single-table conjuncts still to
    filter them, and the conjuncts left pending.

    An equality conjunct may be answered by an index probe when the source
    is a base table; a scan is charged now, a probe at the first fetch.
    """
    local = [
        term
        for term in pending
        if scope.bindings_of(term) == frozenset((source.binding,))
    ]
    remaining = [term for term in pending if term not in local]

    used: Expression | None = None
    if source.materialized is not None:
        meter.charge_cpu(len(source.materialized))
        return Listed(source.materialized), local, remaining
    table = db.table(source.table_name or source.binding)
    for term in local:
        probe = _index_equality_probe(term, source)
        if probe is None:
            continue
        index = db.find_index(table.name, probe[0])
        if index is not None:
            used = term
            stage: Stage = Probed(index, probe[1])
            break
    else:
        stage = Listed(table.scan(meter))
    return stage, [term for term in local if term != used], remaining


def _index_equality_probe(
    term: Expression, source: _Source
) -> tuple[str, object] | None:
    """Match ``col = literal`` (either side); returns (bare column, value)."""
    if not isinstance(term, Comparison) or term.op != "=":
        return None
    column, literal = term.left, term.right
    if isinstance(column, Literal) and isinstance(literal, ColumnRef):
        column, literal = literal, column
    if not (isinstance(column, ColumnRef) and isinstance(literal, Literal)):
        return None
    bare = column.name.split(".", 1)[1] if "." in column.name else column.name
    return bare, literal.value


# -- select list -------------------------------------------------------------------


def _expand_stars(
    items: tuple[SelectItem, ...], scope: _Scope
) -> list[tuple[str, Expression]]:
    """Expand ``*`` / ``alias.*`` and name every output column."""
    outputs: list[tuple[str, Expression]] = []
    taken: set[str] = set()

    def emit(name: str, expression: Expression) -> None:
        candidate = name
        counter = 2
        while candidate.lower() in taken:
            candidate = f"{name}_{counter}"
            counter += 1
        taken.add(candidate.lower())
        outputs.append((candidate, expression))

    for position, item in enumerate(items, start=1):
        if item.star is not None:
            wanted = (
                scope.sources
                if item.star == "*"
                else [s for s in scope.sources if s.binding == item.star.upper()]
            )
            if not wanted:
                raise CatalogError(f"unknown binding {item.star!r} in select list")
            for source in wanted:
                for attribute in source.schema:
                    emit(
                        attribute.name,
                        ColumnRef(f"{source.binding}.{attribute.name}"),
                    )
            continue
        expression = scope.resolve(item.expression)
        if item.alias:
            emit(item.alias, expression)
        elif isinstance(expression, ColumnRef):
            bare = expression.name.split(".", 1)[1]
            emit(bare, expression)
        else:
            emit(f"COL_{position}", expression)
    return outputs


def _collect_aggregates(
    items: list[tuple[str, Expression]], having: Expression | None
) -> list[AggregateCall]:
    calls: list[AggregateCall] = []
    for _, expression in items:
        calls.extend(collect(expression, AggregateCall))  # type: ignore[arg-type]
    if having is not None:
        calls.extend(collect(having, AggregateCall))  # type: ignore[arg-type]
    unique: list[AggregateCall] = []
    for call in calls:
        if call not in unique:
            unique.append(call)
    return unique


def _apply_grouping(
    stage: Stage,
    schema: Schema,
    group_exprs: list[Expression],
    aggregate_calls: list[AggregateCall],
) -> tuple[Stage, Schema, dict[Expression, Expression]]:
    key_func = compile_row(group_exprs, schema) if group_exprs else None
    spec_list: list[tuple[str, Callable | None, bool]] = []
    for call in aggregate_calls:
        argument_func = (
            call.argument.compile(schema) if call.argument is not None else None
        )
        spec_list.append((call.func, argument_func, call.distinct))

    attributes: list[Attribute] = []
    mapping: dict[Expression, Expression] = {}
    for position, expression in enumerate(group_exprs):
        name = f"#g{position}"
        attributes.append(Attribute(name, expression.result_type(schema)))
        mapping[expression] = ColumnRef(name)
    for position, call in enumerate(aggregate_calls):
        name = f"#a{position}"
        attributes.append(Attribute(name, call.result_type(schema)))
        mapping[call] = ColumnRef(name)
    return Grouped(stage, key_func, spec_list), Schema(attributes), mapping


# -- ordering -----------------------------------------------------------------------


def _apply_order(
    rows: list[tuple],
    order_by: Sequence[OrderItem],
    schema: Schema,
    meter: CostMeter,
) -> list[tuple]:
    """Stable multi-pass sort honouring per-key direction, last key first;
    a bare column sorts by ``itemgetter`` (one pass per key beats one pass
    on a composite key: Python compares ints faster than tuples)."""
    for item in reversed(order_by):
        expression = item.expression
        if isinstance(expression, ColumnRef):
            key = itemgetter(schema.index_of(expression.name))
        else:
            key = expression.compile(schema)
        rows = sort_rows(
            rows, key, meter, reverse=not item.ascending, row_width=schema.row_width
        )
    return rows


def _presort_items(
    order_by: Sequence[OrderItem],
    output_schema: Schema,
    scope: _Scope,
    group_exprs: list[Expression],
) -> tuple[OrderItem, ...] | None:
    """Decide whether ORDER BY must run before projection.

    Returns pre-projection order items (resolved against the row schema) when
    some order expression is not available in the output schema; ``None``
    when ordering can happen after projection (the common case).
    """
    if not order_by:
        return None
    if group_exprs:
        # After grouping, ordering happens on the projected output only.
        return None
    resolved: list[OrderItem] = []
    for item in order_by:
        expression = item.expression
        if isinstance(expression, ColumnRef):
            bare = expression.name.split(".")[-1]
            if output_schema.has(bare) or output_schema.has(expression.name):
                return None
        try:
            resolved.append(OrderItem(scope.resolve(expression), item.ascending))
        except (CatalogError, SQLSyntaxError):
            return None
    return tuple(resolved)


def _resolve_output(expression: Expression, output_schema: Schema) -> Expression:
    """Resolve an ORDER BY expression against the projected output schema."""

    def visit(node: Expression) -> Expression | None:
        if isinstance(node, ColumnRef):
            bare = node.name.split(".")[-1]
            if output_schema.has(node.name):
                return node
            if output_schema.has(bare):
                return ColumnRef(bare)
            raise CatalogError(f"ORDER BY column {node.name!r} not in output")
        return None

    return transform(expression, visit)
