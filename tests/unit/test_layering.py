"""Layering: the service and the views depend on the pipeline stages
(:mod:`repro.core.planner`, ``executor``, ``learner``), never on the
:class:`~repro.core.tango.Tango` facade that composes them, and never on
anybody's private parts.

Walks the two packages' sources with :mod:`ast`; fails on

* any import of ``repro.core.tango``, at module or function level (the
  facade imports the views, so the reverse edge is a cycle — the parent
  dodged it with three function-level imports and a ``TYPE_CHECKING``
  block);
* any ``<name>._<private>`` attribute access where ``<name>`` is a stage
  or a facade (``tango._execute_optimized``, ``db._rebuild_indexes`` and
  ``tango.collector.refresh()`` behind the facade's back were the
  parent's).

Further down: nothing in ``repro.core`` imports the service, which
composes the core's stages (a ``Tango`` runs inline; the service is the
one concurrent path); order is declared in one module; and the cursor tree
describes itself — the cursor library knows nothing of who observes or
compiles it, the observers know the cursor *protocol* and no concrete
cursor, nobody finds a cursor's children by probing ``_input``/``_left``/
``_right``, and no cursor→plan-node ``registry`` is threaded anywhere; the
fuzzer is imported by nothing it tests; ``optimizer/rules.py`` has one
``apply``, the only place a rule touches the memo; the initial plan is
pruned in one place; and the cursor class for a plan node is named in the
algorithm table and nowhere else, an operator wired in the ten modules of
DESIGN.md §19's checklist; and outside the DBMS a table's contents version
is asked of ``MiniDB.changes_of``, never read off ``Table.changes``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
LAYERED = sorted(
    path for package in ("service", "views") for path in (SRC / package).glob("*.py")
)
#: Names that hold a stage, the facade, or the database in those packages.
OWNERS = {"tango", "planner", "learner", "executor", "db", "service", "pool"}


def owner_of(node: ast.expr) -> str | None:
    """``planner`` for ``planner``, ``self.planner`` and ``self._planner``."""
    if isinstance(node, ast.Name):
        return node.id.lstrip("_")
    if isinstance(node, ast.Attribute):
        return node.attr.lstrip("_")
    return None


def violations(tree: ast.AST) -> list[str]:
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "repro.core.tango":
            problems.append(f"line {node.lineno}: from repro.core.tango import ...")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.core.tango":
                    problems.append(f"line {node.lineno}: import repro.core.tango")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and owner_of(node.value) in OWNERS
            # ``self._planner`` is the holder's own slot, not a reach.
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            problems.append(
                f"line {node.lineno}: {ast.unparse(node)} reaches into a private"
            )
    return problems


@pytest.mark.parametrize("path", LAYERED, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_facade_import_and_no_private_reach(path):
    problems = violations(ast.parse(path.read_text(), filename=str(path)))
    assert not problems, f"{path}: " + "; ".join(problems)


def test_the_walk_is_not_vacuous():
    assert {"service.py", "manager.py"} <= {path.name for path in LAYERED}
    parent_style = (
        "def f(self, tango):\n"
        "    from repro.core.tango import Tango\n"
        "    tango._execute_optimized()\n"
        "    self._tango.db._rebuild_indexes()\n"
        "    self._planner.refresh()\n"
    )
    assert len(violations(ast.parse(parent_style))) == 3


# -- the core does not know the service ----------------------------------------------


def service_imports(root: Path = SRC) -> list[str]:
    """``file:line`` of every import of :mod:`repro.service` under ``core/``,
    at module or function level, ``TYPE_CHECKING`` blocks included."""
    return sorted(
        {
            f"{path.relative_to(root)}:{line}"
            for path in root.glob("core/*.py")
            for line, module in imported_modules(ast.parse(path.read_text(), filename=str(path)))
            if under(module, "repro.service")
        }
    )


def test_the_core_never_imports_the_service(tmp_path):
    """The parent's facade owned a service (``TangoConfig.service``) and
    imported it, while the service composed the core's stages: a cycle."""
    assert service_imports() == []
    parent_style = {
        "core/tango.py": "from repro.service import QueryHandle, QueryService\n",
        "core/config.py": "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from repro.service.config import ServiceConfig\n",
        "core/planner.py": "def f():\n    import repro.service\n",
        "service/service.py": "from repro.core.planner import Planner\n",
    }
    for name, source in parent_style.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(source)
    assert service_imports(tmp_path) == ["core/config.py:3", "core/planner.py:2", "core/tango.py:1"]


# -- one order discipline -------------------------------------------------------------

ALL_SOURCES = sorted(SRC.rglob("*.py"))


def operator_classes(trees: list[ast.AST]) -> set[str]:
    """Names of the classes that derive, however indirectly, from ``Operator``."""
    bases = {
        node.name: {ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases}
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    found = {"Operator"}
    while True:
        grown = found | {name for name, of in bases.items() if of & found}
        if grown == found:
            return found
        found = grown


def order_copies(trees: dict[str, ast.AST]) -> list[str]:
    operators = operator_classes(list(trees.values()))
    problems = []
    for where, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in operators:
                problems += [
                    f"{where}:{item.lineno}: {node.name}.order()"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "order"
                ]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "order"
            ):
                problems.append(f"{where}:{node.lineno}: {ast.unparse(node)}")
    return problems


def parsed_sources() -> dict[str, ast.AST]:
    return {
        str(path.relative_to(SRC)): ast.parse(path.read_text(), filename=str(path))
        for path in ALL_SOURCES
    }


def test_order_is_declared_in_one_module():
    trees = parsed_sources()
    assert {"Scan", "ClassRef", "TransferM"} <= operator_classes(list(trees.values()))
    assert order_copies(trees) == []


def test_the_order_walk_is_not_vacuous():
    parent_style = (
        "class Operator:\n"
        "    def order(self): return ()\n"
        "class _Unary(Operator): pass\n"
        "class Select(_Unary):\n"
        "    def order(self): return self.input.order()\n"
        "class Cursor:\n"
        "    def order(self): return 1\n"
    )
    assert len(order_copies({"parent.py": ast.parse(parent_style)})) == 3


# -- the cursor tree describes itself ---------------------------------------------------


def imported_modules(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, module)`` for every import, at module or function level;
    ``from package import name`` counts as ``package.name`` too."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append((node.lineno, node.module))
            found += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names]
    return found


def under(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


#: sources → predicate over an imported module name that must never hold.
IMPORT_RULES = {
    "xxl/*.py": lambda m: under(m, "repro.obs") or under(m, "repro.core"),
    # The protocol module is the one part of the library an observer may know.
    "obs/*.py": lambda m: under(m, "repro.core")
    or (under(m, "repro.xxl") and not under(m, "repro.xxl.cursor")),
    "core/plans.py": lambda m: under(m, "repro.obs"),
}


def import_violations(rules=IMPORT_RULES, root: Path = SRC) -> list[str]:
    problems = {  # one per offending line
        f"{path.relative_to(root)}:{line}": module
        for pattern, forbidden in rules.items()
        for path in sorted(root.glob(pattern))
        for line, module in imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if forbidden(module)
    }
    return [f"{where}: imports {module}" for where, module in problems.items()]


def test_cursor_library_observers_and_compiler_import_downwards_only():
    assert import_violations() == []
    assert len(sorted(SRC.glob("xxl/*.py"))) >= 14 and (SRC / "core/plans.py").exists()


CHILD_SLOTS = {"_input", "_left", "_right"}


def reflection_and_registries(tree: ast.AST) -> list[str]:
    problems = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and (
                # a literal slot name, or a loop variable over some table of them
                not isinstance(node.args[1], ast.Constant)
                or node.args[1].value in CHILD_SLOTS | {"has_next"}
            )
        ):
            problems.append(f"line {node.lineno}: {ast.unparse(node)} probes for children")
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            arguments = node.args
            names = [a.arg for a in arguments.posonlyargs + arguments.args + arguments.kwonlyargs]
            if "registry" in names:
                problems.append(f"line {node.lineno}: a parameter named registry")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "registry":
            problems.append(f"line {node.lineno}: a local named registry")
    return problems


@pytest.mark.parametrize(
    "path",
    sorted(path for package in ("core", "obs") for path in (SRC / package).glob("*.py")),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_no_child_probing_and_no_cursor_registry(path):
    problems = reflection_and_registries(ast.parse(path.read_text(), filename=str(path)))
    assert not problems, f"{path}: " + "; ".join(problems)


def test_the_cursor_tree_walks_are_not_vacuous(tmp_path):
    parent_style = (
        "def cursor_span(cursor, registry):\n"
        "    for attribute in CHILD_ATTRIBUTES:\n"
        "        child = getattr(cursor, attribute, None)\n"
        "        if child is not None and hasattr(child, 'has_next'): pass\n"
        "    lines.extend(_describe_cursor(getattr(cursor, '_input', None), 1))\n"
        "    registry = {}\n"
        "    label = getattr(config, 'tracing', False)\n"
    )
    assert len(reflection_and_registries(ast.parse(parent_style))) == 5
    for name, source in {
        "xxl/sort.py": "from repro.obs.tracing import Span\nfrom repro.xxl.cursor import Cursor\n",
        "obs/instrument.py": "from repro.xxl.cursor import Cursor\nfrom repro.xxl.exchange import ExchangeCursor\n"
        "from repro.xxl import SQLCursor\nimport repro.core.engine\n",
        "core/plans.py": "def f():\n    from repro.obs.instrument import ALGORITHM_NAMES\n",
    }.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(source)
    assert len(import_violations(root=tmp_path)) == 1 + 3 + 1


# -- the fuzzer is a client of the system, not a part of it -----------------------------


def fuzz_imports(root: Path = SRC) -> list[str]:
    """Every line outside ``fuzz/`` that imports :mod:`repro.fuzz`."""
    return sorted(
        {
            f"{path.relative_to(root)}:{line}"
            for path in root.rglob("*.py")
            if path.relative_to(root).parts[0] != "fuzz"
            for line, module in imported_modules(ast.parse(path.read_text(), filename=str(path)))
            if under(module, "repro.fuzz")
        }
    )


def test_nothing_outside_the_fuzzer_imports_it(tmp_path):
    """The parent's views read their storage format out of
    ``repro.fuzz.compare``, so ``import repro.views`` loaded the oracle (and
    through it the facade: the cycle ``Tango.views`` imported around)."""
    assert fuzz_imports() == []
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, repro.views\n"
         "print([name for name in sys.modules if name.startswith('repro.fuzz')])"],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    )
    assert loaded.stdout.strip() == "[]"
    # Not vacuous: the walk sees the fuzzer's own imports and lets them be.
    assert any(
        under(module, "repro.fuzz")
        for _, module in imported_modules(ast.parse((SRC / "fuzz/oracle.py").read_text()))
    )
    for name, source in {
        "views/manager.py": "from repro.fuzz.compare import canonical_rows\n",
        "views/delta.py": "def f():\n    from repro.fuzz.compare import canonical_rows, _sort_key\n",
        "fuzz/oracle.py": "from repro.fuzz.compare import canonical_rows\n",
        "core/tango.py": "from repro.views import ViewManager\n",
    }.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(source)
    assert fuzz_imports(tmp_path) == ["views/delta.py:2", "views/manager.py:1"]


# -- Section 4 as a table: one apply, and only it touches the memo ----------------------

MEMO_MUTATORS = {"insert_tree", "add_element", "merge"}


def applies_and_stray_mutations(tree: ast.AST) -> tuple[int, list[str]]:
    """How many functions are named ``apply``, and the memo-mutating calls
    made anywhere else."""
    applies = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "apply"
    ]
    inside = {id(node) for apply in applies for node in ast.walk(apply)}
    stray = [
        f"line {node.lineno}: {ast.unparse(node.func)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MEMO_MUTATORS
        and id(node) not in inside
    ]
    return len(applies), stray


def test_rules_have_one_apply_and_rewrites_never_touch_the_memo():
    path = SRC / "optimizer/rules.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert applies_and_stray_mutations(tree) == (1, [])
    # Outside the two classes nothing so much as names the memo: Match is
    # its only holder, and hands out ClassRefs and column names.
    named = [
        f"line {node.lineno}"
        for statement in tree.body
        if not isinstance(statement, ast.ClassDef)
        for node in ast.walk(statement)
        if (isinstance(node, ast.Name) and "memo" in node.id.lower())
        or (isinstance(node, ast.Attribute) and "memo" in node.attr.lower())
    ]
    assert named == []
    parent_style = (
        "class T7(Rule):\n"
        "    def apply(self, memo, class_id, element):\n"
        "        memo.merge(class_id, element.children[0])\n"
        "class T12(Rule):\n"
        "    def apply(self, memo, class_id, element):\n"
        "        return _insert_all(memo, class_id, [rhs])\n"
        "def _insert_all(memo, class_id, expressions):\n"
        "    memo.insert_tree(expressions[0], into=class_id)\n"
    )
    assert applies_and_stray_mutations(ast.parse(parent_style)) == (
        2, ["line 8: memo.insert_tree"],
    )


# -- required columns: one pass, called in one place ------------------------------------


def prune_calls(trees: dict[str, ast.AST]) -> list[str]:
    """``file:function`` of every call of ``prune_columns``."""
    return sorted(
        f"{where}:{function.name}"
        for where, tree in trees.items()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rsplit(".", 1)[-1] == "prune_columns"
    )


def test_the_initial_plan_is_pruned_in_planner_plan_and_nowhere_else():
    """The unpruned Section 3.1 plan is the oracle: the parser, the
    optimizer, the views and the fuzzer's baseline never see the pass; the
    fuzzer's ``("pruned",)`` strategy is the one other caller."""
    assert prune_calls(parsed_sources()) == [
        "core/planner.py:plan", "fuzz/oracle.py:derive_alternative",
    ]
    parent_style = (
        "def parse_temporal_query(sql, catalog):\n"
        "    return prune_columns(_Builder(sql, catalog).build())\n"
        "class Optimizer:\n"
        "    def _search(self, plan):\n"
        "        return pruning.prune_columns(plan)\n"
    )
    assert prune_calls({"p.py": ast.parse(parent_style)}) == [
        "p.py:_search", "p.py:parse_temporal_query",
    ]


# -- one row per algorithm: who may name a cursor class, who names an operator ------------

ALGORITHM_CURSORS = {
    "FilterCursor", "ProjectCursor", "SortCursor", "TemporalAggregateCursor",
    "TemporalJoinCursor", "MergeJoinCursor", "DedupCursor", "CoalesceCursor",
    "DifferenceCursor",
}
#: The table, and the calibration probes, which time an implementation (not
#: a plan) and build their cursors by hand on purpose.
MAY_NAME_A_CURSOR = {"optimizer/algorithms.py", "optimizer/calibration.py"}


def imported_names(tree: ast.AST) -> set[str]:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def cursor_class_imports(trees: dict[str, ast.AST]) -> list[str]:
    """``file: Cursor`` for every concrete non-transfer cursor class imported
    outside the cursor library and the two modules allowed to.  The sources
    (``RelationCursor``), the transfers and the exchange are not algorithms
    of an operator and may be named anywhere."""
    return sorted(
        f"{where}: {name}"
        for where, tree in trees.items()
        if not where.startswith("xxl/") and where not in MAY_NAME_A_CURSOR
        for name in imported_names(tree) & ALGORITHM_CURSORS
    )


def test_the_cursor_for_a_plan_node_is_named_in_the_table_and_nowhere_else():
    trees = parsed_sources()
    assert cursor_class_imports(trees) == []
    # Not vacuous: the table itself names all nine, and the parent's compiler
    # and view evaluator are caught.
    assert ALGORITHM_CURSORS <= imported_names(trees["optimizer/algorithms.py"])
    parent_style = {
        "core/plans.py": ast.parse("from repro.xxl import Cursor, FilterCursor, SQLCursor\n"),
        "views/delta.py": ast.parse(
            "from repro.xxl.coalesce import CoalesceCursor\n"
            "from repro.xxl.sources import RelationCursor\n"
        ),
        "xxl/__init__.py": ast.parse("from repro.xxl.sort import SortCursor\n"),
        "optimizer/calibration.py": ast.parse("from repro.xxl.sort import SortCursor\n"),
    }
    assert cursor_class_imports(parent_style) == [
        "core/plans.py: FilterCursor", "views/delta.py: CoalesceCursor",
    ]


#: DESIGN.md §19's checklist for adding an operator, as the modules that name
#: ``Coalesce``: the class, the builder verb, the syntax; order and reads; its
#: rules; its cardinality rule; its row; its delta rule; the fuzzer's
#: generator and emitter.
NAMES_COALESCE = {
    "algebra/operators.py", "algebra/builder.py", "core/parser.py",
    "algebra/properties.py", "optimizer/rules.py", "stats/cardinality.py",
    "optimizer/algorithms.py", "views/delta.py", "fuzz/generator.py", "fuzz/codegen.py",
}


def test_an_operator_is_wired_in_the_ten_places_of_the_checklist():
    trees = parsed_sources()
    importing = {where for where, tree in trees.items() if "Coalesce" in imported_names(tree)}
    # The class's module and the nine that import it (the parent of the
    # algorithm table had twelve importers: the compiler, the coster and the
    # partitioner each had a branch of their own for it).
    assert importing == NAMES_COALESCE - {"algebra/operators.py"}
    assert len(NAMES_COALESCE) == 10


# -- one contents version -----------------------------------------------------------------


def contents_reads(trees: dict[str, ast.AST]) -> list[str]:
    """``file:line: expr`` for every ``.changes`` read outside ``dbms/``: a
    table's contents version is asked of ``MiniDB.changes_of``, the one
    helper that also answers for a dropped table (DESIGN.md §13)."""
    return sorted(
        f"{where}:{node.lineno}: {ast.unparse(node)}"
        for where, tree in trees.items()
        if not where.startswith("dbms/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "changes"
    )


def test_contents_versions_are_read_through_changes_of():
    assert contents_reads(parsed_sources()) == []
    parent_style = {
        "views/manager.py": ast.parse(
            "logged = {t: db.table(t).changes for t in base_tables}\n"
            "if self.db.table(base).changes != logged: pass\n"
        ),
        "dbms/table.py": ast.parse("self.changes += 1\n"),
    }
    assert contents_reads(parent_style) == [
        "views/manager.py:1: db.table(t).changes",
        "views/manager.py:2: self.db.table(base).changes",
    ]
