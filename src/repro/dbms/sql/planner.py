"""SQL planner: prepares a parsed :class:`SelectStmt` once and executes it
as a chain of stages.

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

Planning is split in two (DESIGN.md §23).  :func:`prepare_select` reads
only the catalog's schemas and indexes: it resolves names, picks each
source's access path and each join's method, and compiles every kernel once,
with a slot per ``?`` bind marker.  :meth:`PreparedSelect.execute` reads the
tables' current rows, fills the slots with the binds, and builds the stages,
charging the meter what it charged when the two were one.  A prepared
statement holds no row list and no :class:`~repro.dbms.indexes.Index`; it
records the schema and indexed columns of each table it read, and is valid
while they are unchanged.
"""

from __future__ import annotations

from functools import cache, partial
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Sequence

from repro.algebra.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    Parameter,
    attributes_of,
    bind,
    compile_block,
    compile_row,
    conjoin,
    conjuncts,
    value_type,
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
from repro.errors import CatalogError, DatabaseError, ExecutionError, SQLSyntaxError

if TYPE_CHECKING:  # pragma: no cover
    from repro.dbms.database import MiniDB
    from repro.dbms.table import Table


class _Execution:
    """One execution of a prepared statement: the database and meter it
    runs against, and the values bound to its markers."""

    __slots__ = ("db", "meter", "binds")

    def __init__(self, db: "MiniDB", meter: CostMeter, binds: Sequence[object]):
        self.db = db
        self.meter = meter
        self.binds = binds

    def bind(self, function: Callable | None) -> Callable | None:
        return None if function is None else bind(function, self.binds)


#: What a prepared part becomes per execution: its stage.
Opener = Callable[[_Execution], Stage]


class _Source:
    """One FROM item: its binding name, schema, and where its rows come from."""

    def __init__(
        self,
        binding: str,
        schema: Schema,
        table_name: str | None,
        derived: Opener | None = None,
    ):
        self.binding = binding
        self.schema = schema
        #: Base-table name when this is a TableRef (enables index access).
        self.table_name = table_name
        #: A derived table's prepared SELECT, materialized per execution.
        self.derived = derived

    def materialize(self, x: _Execution) -> list[tuple] | None:
        """A derived table's rows, paid for; ``None`` for a base table."""
        if self.derived is None:
            return None
        rows = self.derived(x).drain(x.meter)
        # Materializing a derived table costs a write+read pass over its blocks.
        blocks = max(1, len(rows) * self.schema.row_width // 8192)
        x.meter.charge_io(2 * blocks)
        return rows


class _Scope:
    """Name resolution across the FROM items of one SELECT.

    The *combined* schema concatenates all sources, with attributes renamed
    ``BINDING.NAME`` so they are globally unique.  Qualified references
    resolve directly; unqualified references must be unambiguous.
    """

    def __init__(self, sources: Sequence[_Source], types: Sequence[AttrType]):
        self.sources = list(sources)
        #: Per bind marker, the type of the value it will be bound to.
        self.types = types
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
        """Rewrite every column reference to its combined name, and type
        every bind marker as its value."""

        def visit(node: Expression) -> Expression | None:
            if isinstance(node, ColumnRef):
                return ColumnRef(self.resolve_name(node.name))
            if isinstance(node, Parameter):
                return Parameter(node.index, self.types[node.index])
            return None

        return transform(expression, visit)

    def bindings_of(self, expression: Expression) -> frozenset[str]:
        """Bindings referenced by a *resolved* expression."""
        return frozenset(
            name.split(".", 1)[0].upper() for name in expression.attributes()
        )


class PreparedSelect:
    """A SELECT planned once against the catalog, executable many times.

    :attr:`tables` maps each table it reads (lower-cased) to the schema and
    indexed columns it was prepared against; :meth:`valid` says whether the
    catalog still agrees.  Rows, statistics and indexes are read per
    execution, so DML, loads and ``ANALYZE`` leave a prepared plan valid.
    """

    def __init__(
        self, schema: Schema, open: Opener, tables: dict[str, tuple[Schema, frozenset[str]]]
    ):
        self.schema = schema
        self._open = open
        self.tables = tables

    def valid(self, db: "MiniDB") -> bool:
        return all(
            db.has_table(name) and _catalog_entry(db, db.table(name)) == entry
            for name, entry in self.tables.items()
        )

    def execute(
        self, db: "MiniDB", meter: CostMeter, binds: Sequence[object] = ()
    ) -> ResultSet:
        """The statement's :class:`ResultSet` over *db*'s current rows, its
        markers bound to *binds*.

        Executing charges *meter* for what is paid before the first row:
        the scans, and every input that a sort, a merge join or a nested
        loop's inner side materializes.  The rest is computed at the first
        fetch and charged then, in full (DESIGN.md §21).
        """
        return ResultSet(self.schema, self._open(_Execution(db, meter, binds)), meter)


def _catalog_entry(db: "MiniDB", table: "Table") -> tuple[Schema, frozenset[str]]:
    """What preparing reads of *table*: its schema and indexed columns."""
    return table.schema, frozenset(index.column.lower() for index in db.indexes_on(table.name))


class _Preparation:
    """The catalog one statement is prepared against, and what it read."""

    def __init__(self, db: "MiniDB", types: Sequence[AttrType]):
        self.db = db
        self.types = types
        self.tables: dict[str, tuple[Schema, frozenset[str]]] = {}

    def table(self, name: str) -> "Table":
        table = self.db.table(name)
        self.tables[table.name.lower()] = _catalog_entry(self.db, table)
        return table

    def indexed(self, table: str, column: str) -> bool:
        return self.db.find_index(table, column) is not None


def bind_types(binds: Sequence[object]) -> tuple[AttrType, ...]:
    """Per bind, the type its marker takes: what its literal would lex as."""
    return tuple(map(value_type, binds))


def prepare_select(
    db: "MiniDB", stmt: SelectStmt, types: Sequence[AttrType] = ()
) -> PreparedSelect:
    """Plan *stmt* against *db*'s catalog, its markers typed by *types*."""
    if len(types) != stmt.parameters:
        raise DatabaseError(
            f"the statement has {stmt.parameters} bind markers, {len(types)} values were bound"
        )
    preparation = _Preparation(db, types)
    schema, open = _prepare(preparation, stmt)
    return PreparedSelect(schema, open, preparation.tables)


def plan_select(
    db: "MiniDB", stmt: SelectStmt, meter: CostMeter, binds: Sequence[object] = ()
) -> ResultSet:
    """Prepare *stmt* and execute it once."""
    return prepare_select(db, stmt, bind_types(binds)).execute(db, meter, binds)


def _prepare(p: _Preparation, stmt: SelectStmt) -> tuple[Schema, Opener]:
    if stmt.unions:
        return _prepare_union(p, stmt)
    return _prepare_core(p, stmt)


def _prepare_union(p: _Preparation, stmt: SelectStmt) -> tuple[Schema, Opener]:
    base = SelectStmt(
        items=stmt.items,
        from_items=stmt.from_items,
        where=stmt.where,
        group_by=stmt.group_by,
        having=stmt.having,
        distinct=stmt.distinct,
        hints=stmt.hints,
    )
    parts = [_prepare_core(p, base)]
    keep_duplicates = True
    for keep_all, arm in stmt.unions:
        keep_duplicates = keep_duplicates and keep_all
        parts.append(_prepare_core(p, arm))
    schema = parts[0][0]
    for part_schema, _ in parts[1:]:
        if len(part_schema) != len(schema):
            raise ExecutionError("UNION arms have different arities")
    arms = [open for _, open in parts]
    order = _Order(stmt.order_by, schema) if stmt.order_by else None

    def open(x: _Execution) -> Stage:
        stage: Stage = Concatenated([arm(x) for arm in arms])
        if not keep_duplicates:
            stage = Distinct(stage)
        if order is not None:
            stage = Listed(order.sort(stage.drain(x.meter), x))
        if stmt.limit is not None:
            stage = Limited(stage, stmt.limit)
        return stage

    return schema, open


def _prepare_core(p: _Preparation, stmt: SelectStmt) -> tuple[Schema, Opener]:
    sources = [_prepare_source(p, item) for item in stmt.from_items]
    scope = _Scope(sources, p.types)
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
    join, row_schema = _prepare_joins(p, sources, scope, pending, stmt.hints, reads, fused)

    grouping = None
    if grouped:
        grouping, row_schema, mapping = _prepare_grouping(
            row_schema, group_exprs, aggregate_calls
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
    kernel = unsorted = presorted = None
    if fused is None:
        filters = [having] if having is not None else []
        if presort is not None:
            unsorted = _Kernel([filters], None, row_schema)
            presorted = _Order(presort, row_schema)
            filters = []
        kernel = _Kernel([filters], outputs, row_schema)
    order = None
    if stmt.order_by and presort is None:
        resolved = tuple(
            OrderItem(_resolve_output(item.expression, output_schema), item.ascending)
            for item in stmt.order_by
        )
        order = _Order(resolved, output_schema)

    def open(x: _Execution) -> Stage:
        stage = join(x, [source.materialize(x) for source in sources])
        if grouping is not None:
            stage = grouping(x, stage)
        if presorted is not None:
            rows = presorted.sort(unsorted.open(x, stage).drain(x.meter), x)
            stage = Listed(rows)
        if kernel is not None:
            stage = kernel.open(x, stage)
        if stmt.distinct:
            stage = Distinct(stage)
        if order is not None:
            stage = Listed(order.sort(stage.drain(x.meter), x))
        if stmt.limit is not None:
            stage = Limited(stage, stmt.limit)
        return stage

    return output_schema, open


def _output_schema(
    output_items: list[tuple[str, Expression]], schema: Schema
) -> Schema:
    return Schema(
        Attribute(name, expression.result_type(schema))
        for name, expression in output_items
    )


def _bound_test(test: Callable[[], Callable], binds: Sequence[object]) -> Callable:
    return bind(test(), binds)


class _Kernel:
    """The generated kernel over one input, compiled when prepared: each
    level a list of conjuncts billed as one filter, then the select list
    *outputs* (``None``: the rows as they are)."""

    def __init__(
        self,
        levels: list[list[Expression]],
        outputs: list[Expression] | None,
        schema: Schema,
    ):
        levels = [level for level in levels if level]
        self.projects = outputs is not None
        self.function = None
        if levels or outputs is not None:
            self.function = compile_block(
                "rows", outputs, [term for level in levels for term in level], schema
            )
        #: Per level, its test compiled at the first replay and kept.
        self.tests = [
            cache(partial(Expression.compile, conjoin(level), schema)) for level in levels
        ]

    def open(self, x: _Execution, upstream: Stage) -> Stage:
        if self.function is None:
            return upstream
        tests = [partial(_bound_test, test, x.binds) for test in self.tests]
        return Filtered(upstream, x.bind(self.function), tests, self.projects)


# -- FROM / joins ------------------------------------------------------------------


def _prepare_source(p: _Preparation, item: TableRef | DerivedTable) -> _Source:
    if isinstance(item, TableRef):
        table = p.table(item.table)
        return _Source(item.binding, table.schema, table.name)
    schema, open = _prepare(p, item.select)
    return _Source(item.binding, schema, None, open)


#: A prepared join chain: the stage over the sources' materialized rows.
Joined = Callable[[_Execution, list], Stage]


def _prepare_joins(
    p: _Preparation,
    sources: list[_Source],
    scope: _Scope,
    pending: list[Expression],
    hints: tuple[str, ...],
    reads: frozenset[str],
    outputs: list[Expression] | None,
) -> tuple[Joined, Schema]:
    """Left-deep join of all sources, every WHERE conjunct applied on the way.

    With *outputs* the last kernel builds the block's output rows; without,
    the rows carry the columns named in *reads* (lower-cased), and the
    returned schema says where (it means nothing with *outputs*).  Every
    join emits only the columns read after it.
    """
    first = sources[0]
    access, filters, pending = _prepare_access(p, first, scope, pending)
    layout = scope.local[first.binding]
    if len(sources) == 1:
        # What is left are constant conjuncts: a second filter over the rows
        # that passed the scan's.
        only = _Kernel([filters, pending], outputs, layout)
        return (lambda x, materialized: only.open(x, access(x, materialized[0]))), layout
    head = _Kernel([filters], None, layout)
    bindings = frozenset((first.binding,))
    method = "nl" if "USE_NL" in hints else "merge"
    steps: list[tuple[int, _IndexJoin | _MergeJoin | _LoopJoin]] = []

    for position, source in enumerate(sources[1:], start=2):
        new_bindings = bindings | {source.binding}
        right = scope.local[source.binding]

        # Index nested loop (Oracle's USE_NL over an indexed inner): decided
        # before any pushdown so the inner table is never scanned.  All
        # inner-local conjuncts become residual filters on the joined pairs.
        index_join = None
        if method == "nl" and source.derived is None:
            evaluable = [
                term for term in pending if scope.bindings_of(term) <= new_bindings
            ]
            equi = _find_equi_join(evaluable, scope, bindings, source.binding)
            if equi is not None:
                bare = equi[1].split(".", 1)[1]
                if p.indexed(source.table_name, bare):
                    index_join = (equi, bare)
        if index_join is None:
            inner, inner_filters, pending = _prepare_access(p, source, scope, pending)
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
            (left_name, _, _), bare = index_join
            step: _IndexJoin | _MergeJoin | _LoopJoin = _IndexJoin(
                source.table_name,
                bare,
                layout.index_of(left_name),
                compile_block("probe", emit, residual, layout, right),
                projects,
            )
        elif equi is not None and method == "merge":
            left_name, right_name, _ = equi
            step = _MergeJoin(
                inner,
                _Kernel([inner_filters], None, right),
                layout.index_of(left_name),
                right.index_of(right_name),
                compile_block("merge", emit, residual, layout, right),
                projects,
                (scope.combined.row_width, source.schema.row_width),
            )
        else:
            # A NULL key joins nothing, as in the merge join.
            not_null = () if equi is None else (equi[0],)
            step = _LoopJoin(
                inner,
                _Kernel([inner_filters], None, right),
                compile_block("loop", emit, evaluable, layout, right, not_null),
                projects,
            )
        steps.append((position - 1, step))
        layout = narrowed
        bindings = new_bindings

    def joined(x: _Execution, materialized: list) -> Stage:
        stage = head.open(x, access(x, materialized[0]))
        for index, step in steps:
            stage = step.open(x, stage, materialized[index])
        return stage

    return joined, layout


# One join of the left-deep chain each, prepared: ``open`` joins the stage so
# far with the source's rows (its materialized rows when it is derived).


class _IndexJoin:
    def __init__(self, table: str, column: str, outer_key: int, kernel, projects: bool):
        self.table, self.column = table, column
        self.outer_key = outer_key
        self.kernel = kernel
        self.projects = projects

    def open(self, x, left, materialized):
        index = x.db.find_index(self.table, self.column)
        return IndexJoined(left, index, self.outer_key, x.bind(self.kernel), self.projects)


class _MergeJoin:
    def __init__(self, inner, filter, left_key, right_key, kernel, projects, widths):
        self.inner, self.filter = inner, filter
        self.left_key, self.right_key = left_key, right_key
        self.kernel = kernel
        self.projects = projects
        #: Row widths the two sorts are charged at.
        self.widths = widths

    def open(self, x, left, materialized):
        inner = self.inner(x, materialized)
        left_rows = left.drain(x.meter)
        pay(x.meter, sort_charge(len(left_rows), self.widths[0]))
        right_rows = self.filter.open(x, inner).drain(x.meter)
        pay(x.meter, sort_charge(len(right_rows), self.widths[1]))
        return MergeJoined(
            left_rows,
            right_rows,
            self.left_key,
            self.right_key,
            x.bind(self.kernel),
            self.projects,
        )


class _LoopJoin:
    def __init__(self, inner, filter, kernel, projects):
        self.inner, self.filter = inner, filter
        self.kernel = kernel
        self.projects = projects

    def open(self, x, left, materialized):
        inner_rows = self.filter.open(x, self.inner(x, materialized)).drain(x.meter)
        return NestedLooped(left, inner_rows, x.bind(self.kernel), self.projects)


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


#: How one source's rows are reached per execution, given its materialized
#: rows (``None`` for a base table).
Access = Callable[[_Execution, "list[tuple] | None"], Stage]


def _prepare_access(
    p: _Preparation,
    source: _Source,
    scope: _Scope,
    pending: list[Expression],
) -> tuple[Access, list[Expression], list[Expression]]:
    """How one source's rows are reached, its single-table conjuncts still to
    filter them, and the conjuncts left pending.

    An equality conjunct may be answered by an index probe when the source
    is a base table; a scan is charged when executed, a probe at the first
    fetch.
    """
    local = [
        term
        for term in pending
        if scope.bindings_of(term) == frozenset((source.binding,))
    ]
    remaining = [term for term in pending if term not in local]
    if source.derived is not None:
        return _listed, local, remaining
    table = source.table_name
    for term in local:
        probe = _index_equality_probe(term)
        if probe is not None and p.indexed(table, probe[0]):
            kept = [other for other in local if other != term]
            return partial(_probe, table, *probe), kept, remaining
    return partial(_scan, table), local, remaining


def _listed(x: _Execution, rows: list[tuple]) -> Stage:
    x.meter.charge_cpu(len(rows))
    return Listed(rows)


def _scan(table: str, x: _Execution, rows: None) -> Stage:
    return Listed(x.db.table(table).scan(x.meter))


def _probe(table: str, column: str, key: Expression, x: _Execution, rows: None) -> Stage:
    value = x.binds[key.index] if isinstance(key, Parameter) else key.value
    return Probed(x.db.find_index(table, column), value)


def _index_equality_probe(term: Expression) -> tuple[str, Expression] | None:
    """Match ``col = constant`` (either side, a literal or a bind marker);
    returns (bare column, the constant)."""
    if not isinstance(term, Comparison) or term.op != "=":
        return None
    column, constant = term.left, term.right
    if isinstance(column, (Literal, Parameter)) and isinstance(constant, ColumnRef):
        column, constant = constant, column
    if not (isinstance(column, ColumnRef) and isinstance(constant, (Literal, Parameter))):
        return None
    bare = column.name.split(".", 1)[1] if "." in column.name else column.name
    return bare, constant


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


def _prepare_grouping(
    schema: Schema,
    group_exprs: list[Expression],
    aggregate_calls: list[AggregateCall],
) -> tuple[Callable[[_Execution, Stage], Stage], Schema, dict[Expression, Expression]]:
    key_func = compile_row(group_exprs, schema) if group_exprs else None
    spec_list: list[tuple[str, Callable | None, bool]] = []
    for call in aggregate_calls:
        argument_func = (
            call.argument.compile(schema) if call.argument is not None else None
        )
        spec_list.append((call.func, argument_func, call.distinct))

    def grouping(x: _Execution, stage: Stage) -> Stage:
        specs = [(func, x.bind(argument), distinct) for func, argument, distinct in spec_list]
        return Grouped(stage, x.bind(key_func), specs)

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
    return grouping, Schema(attributes), mapping


# -- ordering -----------------------------------------------------------------------


class _Order:
    """A stable multi-pass sort honouring per-key direction, last key first;
    a bare column sorts by ``itemgetter`` (one pass per key beats one pass
    on a composite key: Python compares ints faster than tuples)."""

    def __init__(self, order_by: Sequence[OrderItem], schema: Schema):
        self.keys = [
            (
                itemgetter(schema.index_of(item.expression.name))
                if isinstance(item.expression, ColumnRef)
                else item.expression.compile(schema),
                not item.ascending,
            )
            for item in reversed(order_by)
        ]
        self.row_width = schema.row_width

    def sort(self, rows: list[tuple], x: _Execution) -> list[tuple]:
        for key, reverse in self.keys:
            rows = sort_rows(
                rows, x.bind(key), x.meter, reverse=reverse, row_width=self.row_width
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
