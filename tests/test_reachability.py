"""Every ``src/repro`` module is reached from a real entry point.

The entry points are the CLI (``python -m repro``), ``examples/``,
``benchmarks/`` and ``perfbench/``.  Tests are deliberately not entry
points: a module that only its own tests import is dead weight in
``src/`` and should be deleted (git history keeps it).

The import graph is built with :mod:`ast` alone, so nothing is imported
or executed.  Imports anywhere in a file count, including the lazy ones
inside functions.  ``from repro.pkg import Name`` resolves through the
package ``__init__``'s re-exports to the module that defines ``Name``,
so re-exporting a module does not make it reached.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.__main__",)
ENTRY_DIRS = ("examples", "benchmarks", "perfbench")


def _modules():
    """Dotted name -> path of every module and package under src/repro."""
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _modules()


def _tree(name):
    return ast.parse(MODULES[name].read_text(), filename=str(MODULES[name]))


def _is_package(name):
    return MODULES[name].name == "__init__.py"


def _resolve(module, name):
    """The module that defines ``name`` as seen by ``from module import``."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if not _is_package(module):
        return module
    for node in _tree(module).body:
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module in MODULES:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _resolve(node.module, alias.name)
    return module  # defined in the __init__ itself


def _imports(tree):
    """Modules under ``repro`` that one file's imports reach."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module in MODULES:
            for alias in node.names:
                yield _resolve(node.module, alias.name)


def _reached():
    todo = list(ENTRY_MODULES)
    for folder in ENTRY_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            todo.extend(_imports(ast.parse(path.read_text())))
    seen = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_imports(_tree(name)))
    return seen


def test_every_module_is_reached_from_an_entry_point():
    reached = _reached()
    unreached = sorted(name for name in MODULES
                       if name not in reached and not _is_package(name))
    assert unreached == [], (
        f"modules only tests reach: {unreached}; delete them or wire "
        f"them into the CLI, an example or a benchmark")


def test_resolves_reexports_to_the_defining_module():
    assert _resolve("repro.memory", "MemoryHierarchy") \
        == "repro.memory.hierarchy"
    assert _resolve("repro", "SystemConfig") == "repro.config"
    assert _resolve("repro.apps", "build_workload") == "repro.apps"
