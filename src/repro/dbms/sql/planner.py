"""SQL planner: turns a parsed :class:`SelectStmt` into a row pipeline.

MiniDB keeps planning deliberately simple and deterministic — the middleware
treats the DBMS as a black box, and reproducibility matters more than clever
join ordering:

* FROM items are joined left-deep in textual order;
* equi-join conjuncts drive a **sort-merge join** by default; the hints
  ``/*+ USE_NL */`` and ``/*+ USE_MERGE */`` force the method (the paper uses
  Oracle hints exactly this way in Query 4);
* single-table conjuncts are pushed down to the scans, with equality
  predicates served by an index when one exists;
* grouping is hash-based; ``ORDER BY`` is a stable multi-pass sort.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.algebra.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    compile_row,
    conjoin,
    conjuncts,
)
from repro.algebra.rewrite import collect, substitute, transform
from repro.algebra.schema import Attribute, AttrType, Schema
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
    ResultSet,
    concat_rows,
    distinct_rows,
    filter_rows,
    hash_group,
    limit_rows,
    merge_join,
    nested_loop_join,
    project_rows,
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
    """Plan and lazily execute a SELECT, returning a :class:`ResultSet`."""
    if stmt.unions:
        return _plan_union(db, stmt, meter)
    return _plan_core(db, stmt, meter)


def _plan_union(db: "MiniDB", stmt: SelectStmt, meter: CostMeter) -> ResultSet:
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
    schema = parts[0].schema
    for part in parts[1:]:
        if len(part.schema) != len(schema):
            raise ExecutionError("UNION arms have different arities")
    rows: Iterable[tuple] = concat_rows(parts)
    if not keep_duplicates:
        rows = distinct_rows(rows, meter)
    if stmt.order_by:
        rows = _apply_order(list(rows), stmt.order_by, schema, meter)
    if stmt.limit is not None:
        rows = limit_rows(rows, stmt.limit)
    return ResultSet(schema, rows)


def _plan_core(db: "MiniDB", stmt: SelectStmt, meter: CostMeter) -> ResultSet:
    sources = [_make_source(db, item, meter) for item in stmt.from_items]
    scope = _Scope(sources)

    where_conjuncts = [scope.resolve(term) for term in conjuncts(stmt.where)]
    pending = list(where_conjuncts)

    rows, current_bindings, pending = _join_sources(
        db, sources, scope, pending, stmt.hints, meter
    )
    if pending:
        predicate = conjoin(pending)
        assert predicate is not None
        rows = filter_rows(rows, predicate.compile(scope.combined), meter)

    output_items = _expand_stars(stmt.items, scope)
    row_schema = scope.combined

    group_exprs = [scope.resolve(term) for term in stmt.group_by]
    having = scope.resolve(stmt.having) if stmt.having is not None else None
    aggregate_calls = _collect_aggregates(output_items, having)
    if group_exprs or aggregate_calls:
        rows, row_schema, mapping = _apply_grouping(
            rows, row_schema, group_exprs, aggregate_calls, meter
        )
        output_items = [
            (name, substitute(expression, mapping))
            for name, expression in output_items
        ]
        if having is not None:
            having = substitute(having, mapping)
            rows = filter_rows(rows, having.compile(row_schema), meter)
    elif having is not None:
        raise SQLSyntaxError("HAVING requires GROUP BY or aggregates")

    output_schema = Schema(
        Attribute(name, expression.result_type(row_schema))
        for name, expression in output_items
    )
    output_func = compile_row(
        [expression for _, expression in output_items], row_schema
    )

    order_by = stmt.order_by
    presort = _presort_items(order_by, output_schema, scope, group_exprs)
    if presort is not None:
        rows = _apply_order(list(rows), presort, row_schema, meter)
        order_by = ()

    rows = project_rows(rows, output_func, meter)
    if stmt.distinct:
        rows = distinct_rows(rows, meter)
    if order_by:
        resolved = tuple(
            OrderItem(_resolve_output(item.expression, output_schema), item.ascending)
            for item in order_by
        )
        rows = _apply_order(list(rows), resolved, output_schema, meter)
    if stmt.limit is not None:
        rows = limit_rows(rows, stmt.limit)
    return ResultSet(output_schema, rows)


# -- FROM / joins ------------------------------------------------------------------


def _make_source(db: "MiniDB", item: TableRef | DerivedTable, meter: CostMeter) -> _Source:
    if isinstance(item, TableRef):
        table = db.table(item.table)
        return _Source(item.binding, table.schema, table.name)
    result = plan_select(db, item.select, meter)
    source = _Source(item.binding, result.schema, None)
    source.materialized = result.fetchall()
    # Materializing a derived table costs a write+read pass over its blocks.
    blocks = max(
        1, len(source.materialized) * result.schema.row_width // 8192
    )
    meter.charge_io(2 * blocks)
    return source


def _join_sources(
    db: "MiniDB",
    sources: list[_Source],
    scope: _Scope,
    pending: list[Expression],
    hints: tuple[str, ...],
    meter: CostMeter,
) -> tuple[Iterable[tuple], frozenset[str], list[Expression]]:
    """Left-deep join of all sources; returns (rows, bindings, leftover)."""
    first = sources[0]
    rows, pending = _source_rows(db, first, scope, pending, meter)
    bindings = frozenset((first.binding,))

    method = "merge"
    if "USE_NL" in hints:
        method = "nl"
    elif "USE_MERGE" in hints:
        method = "merge"

    for source in sources[1:]:
        new_bindings = bindings | {source.binding}

        # Index nested loop (Oracle's USE_NL over an indexed inner): decided
        # before any pushdown so the inner table is never scanned.  All
        # inner-local conjuncts become residual filters on the joined rows.
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
                    index_join = (equi, evaluable, index)

        if index_join is not None:
            equi, evaluable, index = index_join
            pending = [term for term in pending if term not in evaluable]
            residual = conjoin([term for term in evaluable if term is not equi[2]])
            residual_func = (
                residual.compile(scope.combined) if residual is not None else None
            )
            left_pos = scope.combined.index_of(equi[0])
            rows = _index_nl_join(rows, index, left_pos, residual_func, meter)
            bindings = new_bindings
            continue

        inner_rows, pending = _source_rows(db, source, scope, pending, meter)
        evaluable = [
            term for term in pending if scope.bindings_of(term) <= new_bindings
        ]
        pending = [term for term in pending if term not in evaluable]

        equi = _find_equi_join(evaluable, scope, bindings, source.binding)
        residual_terms = [term for term in evaluable if term is not (equi and equi[2])]
        residual = conjoin(residual_terms)
        residual_func = (
            residual.compile(scope.combined) if residual is not None else None
        )

        if equi is not None and method == "merge":
            left_name, right_name, _ = equi
            left_key = itemgetter(scope.combined.index_of(left_name))
            right_key = itemgetter(scope.local[source.binding].index_of(right_name))
            left_sorted = sort_rows(
                rows, left_key, meter, row_width=scope.combined.row_width
            )
            right_sorted = sort_rows(
                inner_rows, right_key, meter, row_width=source.schema.row_width
            )
            rows = merge_join(
                left_sorted, right_sorted, left_key, right_key, residual_func, meter
            )
        else:
            condition = conjoin(evaluable)
            condition_func = (
                condition.compile(scope.combined) if condition is not None else None
            )
            inner_list = list(inner_rows)
            rows = nested_loop_join(rows, inner_list, condition_func, meter)

        bindings = new_bindings
    return rows, bindings, pending


def _index_nl_join(
    outer: Iterable[tuple],
    index,
    outer_key_position: int,
    residual,
    meter: CostMeter,
) -> Iterable[tuple]:
    """Index nested-loop join: probe the inner index per outer row."""
    for outer_row in outer:
        for inner_row in index.lookup(outer_row[outer_key_position], meter):
            combined = outer_row + inner_row
            if residual is None or residual(combined):
                yield combined


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


def _source_rows(
    db: "MiniDB",
    source: _Source,
    scope: _Scope,
    pending: list[Expression],
    meter: CostMeter,
) -> tuple[Iterable[tuple], list[Expression]]:
    """Rows of one source with its single-table conjuncts pushed down.

    Local conjuncts are compiled against the source's slice of the combined
    schema; an equality conjunct may be answered by an index when the source
    is a base table.
    """
    local = [
        term
        for term in pending
        if scope.bindings_of(term) == frozenset((source.binding,))
    ]
    remaining = [term for term in pending if term not in local]

    rows: Iterable[tuple]
    used_index_terms: list[Expression] = []
    if source.materialized is not None:
        rows = iter(source.materialized)
        meter.charge_cpu(len(source.materialized))
    else:
        table = db.table(source.table_name or source.binding)
        index_access = None
        for term in local:
            probe = _index_equality_probe(term, source)
            if probe is None:
                continue
            index = db.find_index(table.name, probe[0])
            if index is not None:
                index_access = (index, probe[1])
                used_index_terms.append(term)
                break
        if index_access is not None:
            index, key = index_access
            rows = index.lookup(key, meter)
        else:
            rows = table.scan(meter)

    filters = [term for term in local if term not in used_index_terms]
    if filters:
        predicate = conjoin(filters)
        assert predicate is not None
        rows = filter_rows(
            rows, predicate.compile(scope.local[source.binding]), meter
        )
    return rows, remaining


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
    rows: Iterable[tuple],
    schema: Schema,
    group_exprs: list[Expression],
    aggregate_calls: list[AggregateCall],
    meter: CostMeter,
) -> tuple[Iterable[tuple], Schema, dict[Expression, Expression]]:
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
    grouped_schema = Schema(attributes)
    grouped = hash_group(rows, key_func, spec_list, meter)
    return grouped, grouped_schema, mapping


# -- ordering -----------------------------------------------------------------------


def _apply_order(
    rows: list[tuple],
    order_by: Sequence[OrderItem],
    schema: Schema,
    meter: CostMeter,
) -> list[tuple]:
    """Stable multi-key sort honouring per-key direction."""
    for item in reversed(order_by):
        rows = sort_rows(
            rows,
            item.expression.compile(schema),
            meter,
            reverse=not item.ascending,
            row_width=schema.row_width,
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
