"""Cross-layer property: a logical plan evaluates to the same relation
whether its operators run in the DBMS (via the Translator-To-SQL) or in the
middleware (via the XXL cursors).

This is the core soundness contract of the middleware architecture — the
location of an operator is a *performance* decision, never a semantic one
(Section 4's location-independence of the algebra).  The oracle is the
middleware evaluation of the same tree: every scan under a ``T^M``, every
operator on its cursor, a ``SORT^M`` wherever
:func:`~repro.algebra.properties.needed_orders` asks for one.

The same plans, in both placements, hold required-column pruning
(:func:`~repro.algebra.pruning.prune_columns`) to its contract: same column
names, same rows, no transfer wider than it was.
"""

from hypothesis import given, settings, strategies as st

from repro.algebra.builder import scan
from repro.algebra.expressions import BinOp, Comparison, Expression, Not, col, lit
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
    TemporalJoin,
    TransferM,
)
from repro.algebra.properties import needed_orders
from repro.algebra.pruning import prune_columns
from repro.core.engine import ExecutionEngine
from repro.core.plans import compile_plan
from repro.core.translator import SQLTranslator
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection
from repro.fuzz.compare import canonical_rows

DB, MW = Location.DBMS, Location.MIDDLEWARE
PERIOD = ("t1", "t2")


def build_db(r_rows, s_rows=()):
    db = MiniDB()
    for table, value, rows in (("R", "V", r_rows), ("S", "W", s_rows)):
        db.execute(f"CREATE TABLE {table} (K INT, {value} INT, T1 DATE, T2 DATE)")
        if rows:
            db.execute(
                f"INSERT INTO {table} VALUES "
                + ", ".join(f"({k}, {v}, {t1}, {t2})" for k, v, t1, t2 in rows)
            )
    return db


rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=10),
    ).map(lambda t: (t[0], t[1], t[2], t[2] + t[3])),
    max_size=12,
)

# -- random plans -----------------------------------------------------------------------
#
# A recipe is a nested tuple; every column is named by an index taken modulo
# the columns the running plan has, so any recipe builds a valid plan.

index = st.integers(min_value=0, max_value=7)
comparison = st.sampled_from(["<", "<=", ">", "=", "<>"])

#: What a ``select`` recipe compares a column with: small ints, floats of
#: every magnitude (``1e-05`` and ``1e+16`` are how Python spells some of
#: them), quoted strings (equality only: an INT column does not order
#: against text), and NULL tests.
test = st.one_of(
    st.tuples(comparison, st.integers(0, 20)),
    st.tuples(comparison, st.floats(allow_nan=False, allow_infinity=False)),
    st.tuples(st.sampled_from(["=", "<>"]), st.text(max_size=8)),
    st.tuples(st.sampled_from(["IS NULL", "IS NOT NULL"]), st.none()),
)


def restriction(column: str, op: str, value) -> Expression:
    if op == "IS NULL":
        return Comparison("=", col(column), lit(None))
    if op == "IS NOT NULL":
        return Not(Comparison("=", col(column), lit(None)))
    return Comparison(op, col(column), lit(value))


def extend(children):
    return st.one_of(
        st.tuples(st.just("select"), index, test, children),
        st.tuples(
            st.just("project"),
            st.lists(
                st.tuples(index, st.sampled_from(["keep", "rename", "add", "double"])),
                min_size=1,
                max_size=4,
            ),
            children,
        ),
        st.tuples(st.just("dedup"), children),
        st.tuples(st.just("sort"), st.lists(index, min_size=1, max_size=2), children),
        st.tuples(
            st.just("join"),
            index,
            index,
            st.none() | st.tuples(index, comparison, index),
            children,
            children,
        ),
        st.tuples(st.just("tjoin"), index, index, children, children),
        st.tuples(st.just("product"), children, children),
    )


recipes = st.recursive(
    st.tuples(st.just("scan"), st.sampled_from(["R", "S"])), extend, max_leaves=4
)


def pick(names, position):
    return names[position % len(names)]


def build(db, recipe) -> Operator:
    """The all-DBMS plan of *recipe*."""
    kind, *arguments = recipe
    if kind == "scan":
        return scan(db, arguments[0]).build()
    if kind in ("join", "tjoin", "product"):
        left, right = build(db, arguments[-2]), build(db, arguments[-1])
        return build_binary(kind, arguments[:-2], left, right)
    plan = build(db, arguments[-1])
    names = plan.schema.names
    if kind == "select":
        position, (op, value) = arguments[:2]
        return Select(plan, DB, restriction(pick(names, position), op, value))
    if kind == "dedup":
        return Dedup(plan, DB)
    if kind == "sort":
        keys = dict.fromkeys(pick(names, position) for position in arguments[0])
        return Sort(plan, DB, tuple(keys))
    outputs = {}
    for position, mode in arguments[0]:
        name = pick(names, position)
        other = pick(names, position + 1)
        output, expression = {
            "keep": (name, col(name)),
            "rename": (name + "r", col(name)),  # K -> Kr: above it only Kr exists
            "add": (name + "a", BinOp("+", col(name), col(other))),
            "double": (name, BinOp("+", col(name), col(name))),
        }[mode]
        outputs.setdefault(output.lower(), (output, expression))
    return Project(plan, DB, tuple(outputs.values()))


def build_binary(kind, arguments, left, right) -> Operator:
    if kind == "product":
        return Product(left, right, DB)
    left_attr = pick(left.schema.names, arguments[0])
    right_attr = pick(right.schema.names, arguments[1])
    temporal = all(side.schema.has(t) for side in (left, right) for t in PERIOD)
    if kind == "tjoin" and temporal and not {left_attr.lower(), right_attr.lower()} & set(PERIOD):
        return TemporalJoin(left, right, DB, left_attr, right_attr)
    residual = None
    if kind == "join" and arguments[2] is not None:
        # A residual speaks the join's output names: K_2 is the right side's K.
        a, op, b = arguments[2]
        out = Join(left, right, DB, left_attr, right_attr).schema.names
        residual = Comparison(op, col(pick(out, a)), col(pick(out[len(left.schema):], b)))
    return Join(left, right, DB, left_attr, right_attr, residual)


def in_middleware(node: Operator) -> Operator:
    """The same logical plan on the XXL cursors."""
    if isinstance(node, Scan):
        return TransferM(node)
    inputs = [in_middleware(child) for child in node.inputs]
    if isinstance(node, Product):
        # No PRODUCT^M algorithm: a product is the join on a constant column.
        left, right = (
            Project(side, MW, tuple((n, col(n)) for n in side.schema.names) + (("ONE", lit(1)),))
            for side in inputs
        )
        joined = Sort(left, MW, ("ONE",)), Sort(right, MW, ("ONE",))
        return Project.of_columns(Join(*joined, MW, "ONE", "ONE"), node.schema.names, MW)
    moved = node.located(MW)
    ordered = [
        Sort(child, MW, tuple(order)) if order else child
        for child, order in zip(inputs, needed_orders(moved))
    ]
    return moved.with_inputs(*ordered)


def both_ways(db, plan):
    dbms_rows = db.query(SQLTranslator().translate(plan))
    execution = compile_plan(in_middleware(plan), Connection(db))
    return dbms_rows, ExecutionEngine().execute(execution).rows


class TestLocationIndependence:
    @settings(max_examples=150, deadline=None)
    @given(rows_strategy, rows_strategy, recipes)
    def test_dbms_and_middleware_agree(self, r_rows, s_rows, recipe):
        db = build_db(r_rows, s_rows)
        plan = build(db, recipe)
        dbms_rows, middleware_rows = both_ways(db, plan)

        # Location never changes the multiset of results ...
        assert sorted(dbms_rows) == sorted(middleware_rows)
        # ... and a topmost sort orders both the same way on its keys.
        if isinstance(plan, Sort):
            positions = [plan.schema.index_of(key) for key in plan.keys]
            keys = [tuple(row[p] for p in positions) for row in dbms_rows]
            assert keys == sorted(keys)
            assert keys == [tuple(row[p] for p in positions) for row in middleware_rows]

    @settings(max_examples=25, deadline=None)
    @given(rows_strategy, st.sampled_from([("K",), ("V", "K"), ("T1", "K")]))
    def test_order_matches_when_sort_is_topmost(self, rows, keys):
        db = build_db(rows)
        plan = scan(db, "R").sort(*keys).build()
        dbms_rows, middleware_rows = both_ways(db, plan)

        positions = [plan.schema.index_of(key) for key in keys]
        assert [tuple(row[p] for p in positions) for row in dbms_rows] == [
            tuple(row[p] for p in positions) for row in middleware_rows
        ]


def transfer_widths(plan: Operator) -> list[int]:
    """Bytes per row under each ``T^M``, in pre-order."""
    return [node.schema.row_width for node in plan.walk() if isinstance(node, TransferM)]


class TestRequiredColumnPruning:
    @settings(max_examples=150, deadline=None)
    @given(rows_strategy, rows_strategy, recipes)
    def test_same_names_same_rows_never_a_wider_transfer(self, r_rows, s_rows, recipe):
        db = build_db(r_rows, s_rows)
        logical = build(db, recipe)
        # All in the DBMS under one T^M, and a T^M directly on every scan.
        for plan in (TransferM(logical), in_middleware(logical)):
            pruned = prune_columns(plan)
            assert pruned.schema.names == plan.schema.names
            assert prune_columns(pruned) is pruned
            before, after = (
                ExecutionEngine().execute(compile_plan(tree, Connection(db))).rows
                for tree in (plan, pruned)
            )
            assert canonical_rows(after) == canonical_rows(before)
            widths = transfer_widths(pruned), transfer_widths(plan)
            assert len(widths[0]) == len(widths[1])
            assert all(narrow <= wide for narrow, wide in zip(*widths))
