"""Nothing in ``src/`` without a caller outside ``tests/``.

Parses ``src/``, ``bench/``, ``examples/`` and ``benchmarks/`` with
:mod:`ast` (the standard library only) and fails on

(a) a function, class or method defined in ``src/`` that nothing outside
    ``tests/`` names.  Dunders are exempt: Python calls them.  Every
    identifier in a string constant counts as a reference, because the
    algorithm table and ``getattr(node, row.partition)`` dispatch by name
    and the shrinker emits code that calls the oracle.  A docstring, a
    comment, an
    ``__all__`` entry, a subpackage ``__init__.py``'s re-export, and a
    definition's mention of its own name inside its own body do not;
(b) a module that nothing outside ``tests/`` imports, directly or through
    its package as a name it defines (``from repro.views import
    ViewManager`` counts for ``views/manager.py``).  ``__init__`` and
    ``__main__`` modules are exempt;
(c) a name a subpackage ``__init__.py`` re-exports (imports, or lists in
    ``__all__``) that nothing outside ``tests/`` imports through that
    package.  ``repro/__init__.py`` is the declared library boundary and is
    exempt, and its imports are callers;
(d) an attribute ``src/`` stores (``obj.name = ...``, ``obj.name += ...``)
    that nothing outside ``tests/`` loads: no ``obj.name`` read and no
    identifier in a string constant names it, with string constants read
    as in (a).  A docstring naming it is not a load, and neither is an
    augmented assignment: a counter nothing reads is dead too.

A site the check may not delete is a line of ``callers_allowlist.txt``:
the site as this test prints it, then its reason.  The allowlist holds at
most five entries, and an entry that no longer names a hit fails too.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CALLER_ROOTS = ("src", "bench", "examples", "benchmarks")
ALLOWLIST = Path(__file__).with_name("callers_allowlist.txt")
MAX_ALLOWED = 5
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def sources(root: Path = ROOT) -> dict[str, str]:
    """Every Python file the check reads, keyed by its repo-relative path."""
    return {
        path.relative_to(root).as_posix(): path.read_text()
        for top in CALLER_ROOTS
        if (root / top).is_dir()
        for path in sorted((root / top).rglob("*.py"))
    }


def module_name(path: str) -> str:
    """``repro.views.manager`` for ``src/repro/views/manager.py``."""
    parts = path.removeprefix("src/").removesuffix(".py").split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def site(module: str, is_package: bool) -> str:
    """How a report names a module: ``views/manager.py``, ``xxl/__init__.py``."""
    rest = module.removeprefix("repro").lstrip(".").replace(".", "/")
    if is_package:
        return f"{rest}/__init__.py" if rest else "__init__.py"
    return f"{rest}.py"


def dotted(node: ast.expr) -> str | None:
    """``repro.xxl`` for the expression ``repro.xxl``; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


@dataclass
class Definition:
    site: str
    name: str
    path: str
    start: int
    end: int


@dataclass
class Program:
    """What the non-test code defines, names, and imports."""

    packages: set[str] = field(default_factory=set)
    modules: set[str] = field(default_factory=set)
    definitions: list[Definition] = field(default_factory=list)
    #: name -> (path, line) of every reference that counts.
    references: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    imported: set[str] = field(default_factory=set)
    #: subpackage -> {re-exported name: the module that defines it}.
    reexports: dict[str, dict[str, str]] = field(default_factory=dict)
    #: subpackage -> names imported through it.
    through: dict[str, set[str]] = field(default_factory=dict)
    #: attribute -> the sites in ``src/`` that store it.
    stored: dict[str, set[str]] = field(default_factory=dict)
    #: every attribute name read, or named in a string constant.
    loaded: set[str] = field(default_factory=set)

    def is_subpackage_init(self, module: str, path: str) -> bool:
        return path.endswith("__init__.py") and module.startswith("repro.")

    def resolve(self, module: str, path: str, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        package = module if path.endswith("__init__.py") else module.rpartition(".")[0]
        for _ in range(node.level - 1):
            package = package.rpartition(".")[0]
        return f"{package}.{node.module}" if node.module else package

    def read_reexports(self, files: dict[str, tuple[str, ast.Module]]) -> None:
        for path, (module, tree) in files.items():
            if not self.is_subpackage_init(module, path):
                continue
            exports = self.reexports.setdefault(module, {})
            for node in tree.body:
                if isinstance(node, ast.ImportFrom):
                    base = self.resolve(module, path, node)
                    for alias in node.names:
                        name = alias.asname or alias.name
                        child = f"{base}.{alias.name}"
                        exports[name] = child if child in self.modules else base
                elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                ):
                    for element in getattr(node.value, "elts", ()):
                        exports.setdefault(element.value, module)

    def import_through(self, base: str, name: str) -> None:
        """Record ``from <base> import <name>`` (or ``<base>.<name>``)."""
        child = f"{base}.{name}"
        if child in self.modules:
            self.imported.add(child)
        if base in self.reexports:
            self.through.setdefault(base, set()).add(name)
            self.imported.add(self.reexports[base].get(name, base))

    def read(self, path: str, module: str, tree: ast.Module) -> None:
        reexporting = self.is_subpackage_init(module, path)
        skipped: set[int] = set()
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            body = getattr(node, "body", None)
            if (
                isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
            ):
                skipped.add(id(body[0].value))
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                skipped.update(id(n) for n in ast.walk(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                self.refer(node.id, path, node.lineno)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                self.refer(node.attr, path, node.lineno)
                self.loaded.add(node.attr)
                base = dotted(node.value)
                if base:
                    head, _, rest = base.partition(".")
                    full = aliases.get(head, head) + (f".{rest}" if rest else "")
                    if full in self.reexports or full in self.modules:
                        self.import_through(full, node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in skipped:
                    for part in IDENTIFIER.findall(node.value):
                        self.refer(part, path, node.lineno)
                        self.loaded.add(part)
            elif isinstance(node, ast.Import) and not reexporting:
                for alias in node.names:
                    self.imported.add(alias.name)
                    if alias.asname:
                        aliases[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and not reexporting:
                base = self.resolve(module, path, node)
                self.imported.add(base)
                for alias in node.names:
                    self.refer(alias.name, path, node.lineno)
                    self.import_through(base, alias.name)
                    if f"{base}.{alias.name}" in self.modules | self.packages:
                        aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
        if path.startswith("src/"):
            where = site(module, path.endswith("__init__.py"))
            self.define(tree, path, where, "")
            self.store(tree, where, "")

    def define(self, scope: ast.AST, path: str, where: str, prefix: str) -> None:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}{node.name}"
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    self.definitions.append(
                        Definition(
                            f"{where}::{qualified}", node.name, path, node.lineno, node.end_lineno
                        )
                    )
                self.define(node, path, where, f"{qualified}.")
            else:
                self.define(node, path, where, prefix)

    def store(self, scope: ast.AST, where: str, prefix: str) -> None:
        """Record every attribute store under *scope*: a store on ``self``
        is named after its class (``dbms/jdbc.py::Cursor.prefetch``), any
        other after its module (``core/engine.py::timed``)."""
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
                name = f"{prefix}{node.attr}" if on_self else node.attr
                self.stored.setdefault(node.attr, set()).add(f"{where}::{name}")
            inner = f"{prefix}{node.name}." if isinstance(node, ast.ClassDef) else prefix
            self.store(node, where, inner)

    def refer(self, name: str, path: str, line: int) -> None:
        self.references.setdefault(name, []).append((path, line))


def analyse(files: dict[str, str]) -> Program:
    program = Program()
    parsed = {}
    for path, text in files.items():
        module = module_name(path)
        parsed[path] = (module, ast.parse(text, filename=path))
        if path.startswith("src/"):
            (program.packages if path.endswith("__init__.py") else program.modules).add(module)
    program.read_reexports(parsed)
    for path, (module, tree) in parsed.items():
        program.read(path, module, tree)
    return program


def uncalled(program: Program) -> list[str]:
    """Rule (a): definitions nothing outside their own body names."""
    return [
        d.site
        for d in program.definitions
        if not any(
            path != d.path or not d.start <= line <= d.end
            for path, line in program.references.get(d.name, ())
        )
    ]


def unimported(program: Program) -> list[str]:
    """Rule (b): modules nothing imports."""
    return [
        site(m, False)
        for m in sorted(program.modules - program.imported)
        if not m.endswith(".__main__")
    ]


def unused_reexports(program: Program) -> list[str]:
    """Rule (c): names a subpackage re-exports that nobody imports through it."""
    return [
        f"{site(package, True)}::{name}"
        for package, exports in sorted(program.reexports.items())
        for name in sorted(exports)
        if name not in program.through.get(package, set())
    ]


def unloaded(program: Program) -> list[str]:
    """Rule (d): attributes stored and never loaded."""
    return sorted(
        site
        for name, sites in program.stored.items()
        if name not in program.loaded
        for site in sites
    )


def hits(files: dict[str, str]) -> list[str]:
    program = analyse(files)
    return (
        uncalled(program)
        + unimported(program)
        + unused_reexports(program)
        + unloaded(program)
    )


def allowlist(path: Path = ALLOWLIST) -> dict[str, str]:
    """``{entry: reason}``: an entry is ``<file>::<name>[,<name>...]``."""
    entries = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            entry, _, reason = line.partition(" ")
            entries[entry] = reason.strip()
    return entries


def allowed(entries: dict[str, str]) -> set[str]:
    """The sites the entries name; a bare ``<file>`` names the module."""
    sites = set()
    for entry in entries:
        where, _, names = entry.partition("::")
        if names:
            sites.update(f"{where}::{name}" for name in names.split(","))
        else:
            sites.add(where)
    return sites


def test_everything_in_src_has_a_caller_outside_tests():
    unexplained = [h for h in hits(sources()) if h not in allowed(allowlist())]
    # Delete each with its tests, give it a caller, or allowlist it with a reason.
    assert not unexplained, "no caller outside tests/:\n" + "\n".join(unexplained)


def test_the_allowlist_is_short_reasoned_and_live():
    entries = allowlist()
    assert len(entries) <= MAX_ALLOWED
    assert all(entries.values()), "every allowlist entry needs a reason"
    assert allowed(entries) <= set(hits(sources())), "an allowlist entry names no hit"


TOY = {
    "src/repro/__init__.py": "",
    "src/repro/toy/__init__.py": "from repro.toy.shapes import Shape\n__all__ = ['Shape']\n",
    "src/repro/toy/shapes.py": (
        '"""Shape helpers."""\n'
        "class Shape:\n"
        "    def area(self):\n"
        "        return getattr(self, 'width')\n"
        "    def width(self):\n"
        "        return 1\n"
        "def depth(tree):\n"
        "    return 1 + max(depth(c) for c in tree)\n"
    ),
}


def test_the_toy_program_is_read_as_documented():
    # The package import counts for the module that defines the name; the
    # string names ``width``; ``depth`` only names itself.
    used = {**TOY, "examples/use.py": "from repro.toy import Shape\nShape().area()\n"}
    assert hits(used) == ["toy/shapes.py::depth"]
    assert hits(TOY) == [
        "toy/shapes.py::Shape",
        "toy/shapes.py::Shape.area",
        "toy/shapes.py::depth",
        "toy/shapes.py",
        "toy/__init__.py::Shape",
    ]


def test_a_stored_attribute_nothing_loads_is_found():
    # ``size`` is read and getattr's string names ``kind``; ``count`` is only
    # incremented, ``label`` only named in a docstring, ``flag`` never read.
    toy = {
        "src/repro/__init__.py": "",
        "src/repro/toy.py": (
            "class Box:\n"
            '    """Holds a ``label``."""\n'
            "    def __init__(self, other):\n"
            "        self.size = 1\n"
            "        self.count = 0\n"
            "        self.label = 'x'\n"
            "        self.kind = 'k'\n"
            "        other.flag = True\n"
            "    def grow(self):\n"
            "        self.count += 1\n"
            "        return self.size, getattr(self, 'kind')\n"
        ),
        "examples/use.py": "from repro.toy import Box\nBox(None).grow()\n",
    }
    assert hits(toy) == ["toy.py::Box.count", "toy.py::Box.label", "toy.py::flag"]


def test_an_orphan_anywhere_in_src_is_found():
    files = sources()
    modules = [p for p in files if p.startswith("src/") and not p.endswith("__init__.py")]
    for number, path in enumerate(modules):
        files[path] += f"\n\ndef orphan_{number}():\n    return None\n"
    files["src/repro/xxl/orphan.py"] = "ORPHAN = 1\n"
    files["src/repro/xxl/__init__.py"] += "from repro.xxl.cursor import BATCH_SIZE as ORPHAN_SIZE\n"
    found = set(hits(files))
    for number, path in enumerate(modules):
        module = module_name(path)
        assert f"{site(module, False)}::orphan_{number}" in found
    assert {"xxl/orphan.py", "xxl/__init__.py::ORPHAN_SIZE"} <= found


if __name__ == "__main__":
    for line in hits(sources()):
        print(line)
