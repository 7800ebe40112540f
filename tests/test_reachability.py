"""Every ``src/repro`` module and member is reached from a real entry point.

The entry points are the CLI (``python -m repro``), ``examples/``,
``benchmarks/`` and ``perfbench/``.  Tests are deliberately not entry
points: code that only its own tests use is dead weight in ``src/`` and
should be deleted (git history keeps it).

Two static checks, built with :mod:`ast` and :mod:`tokenize` alone, so
nothing is imported or executed:

* *modules* — the import graph.  Imports anywhere in a file count,
  including the lazy ones inside functions.  ``from repro.pkg import
  Name`` resolves through the package ``__init__``'s re-exports to the
  module that defines ``Name``, so re-exporting a module does not make
  it reached.
* *members* — every top-level function and class, and every method, of
  ``src/repro`` must have its name used somewhere in ``src/``,
  ``examples/``, ``benchmarks/`` or ``perfbench/`` outside its own
  definition, import lines, ``__all__`` and docstrings.  A use is a
  code identifier or a word inside a string literal (perfbench wraps
  callables by their attribute names).  Dunder methods are called
  implicitly and are not checked.

The member check is a name scan: a member whose name is shared with a
live one (``access``, ``reset``, ...) passes even when dead.  The call
census recipe in ``.claude/skills/verify/SKILL.md`` finds those.
"""

import ast
import io
import re
import tokenize
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


# -- members ----------------------------------------------------------------

#: Members only tests use, kept on purpose: ``qualified name`` -> reason.
#: The scan cannot see members whose names live code shares.  Of those,
#: these are kept on purpose too: ``FastLruCache.contains`` (without it
#: the cache tests would read ``_lines``), and ``Compressor.for_core`` and
#: the decode sides of ``CompressedCsr``, ``WebGraphCsr`` and
#: ``SparseMatrix``, which ROADMAP item 7 leaves for a later change.
ALLOWED_UNREACHED = {
    "CsrGraph.in_degrees": "public graph API; the degree-count reference "
                           "test compares against it",
    "CsrGraph.iter_rows": "public graph API; the reference apps walk "
                          "rows with it",
    "MarkerQueue.peek": "public queue API, read by the queue tests",
    "MarkerQueue.used_bytes": "queue occupancy, read by the reservation "
                              "tests",
    "MarkerQueue.reserved_bytes": "reserved credit, read by the "
                                  "reservation tests",
    "MutableGraphHandle.lineage": "a handle's content address, which the "
                                  "delta tests compare",
    "GraphStore.open_segments": "test fixture: the release tests count "
                                "mapped segments",
    "reset_stage_counters": "test fixture: zeroes the stage counters "
                            "between tests",
    "spans_by_parent": "public trace-reader API, kept for a critical-"
                       "path reader (ROADMAP item 8)",
    "MemoryHierarchy.offchip_bytes": "traffic reader the engine-vs-pricer "
                                     "differential needs (ROADMAP item 5)",
    "MemoryHierarchy.traffic_by_class": "traffic reader the engine-vs-"
                                        "pricer differential needs "
                                        "(ROADMAP item 5)",
    "MemoryHierarchy.finalize_writebacks": "traffic reader: LLC dirty "
                                           "evictions as write traffic, "
                                           "for the same differential",
    "FastLruCache.flush_dirty": "end-of-run writeback of the dirty "
                                "lines still cached, for the same "
                                "differential",
}

USE_DIRS = ("src", "examples", "benchmarks", "perfbench")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _members(tree):
    """(qualified name, node) of every top-level def/class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        yield f"{node.name}.{sub.name}", sub


def _ignored_lines(tree):
    """Lines that do not count as uses: imports, ``__all__``, docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                               ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _uses(root):
    """Name -> [(path, line)] of every use under the entry-point dirs."""
    uses = {}
    for folder in USE_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            text = path.read_text()
            ignored = _ignored_lines(ast.parse(text))
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                if tok.start[0] in ignored:
                    continue
                if tok.type == tokenize.NAME:
                    words = (tok.string,)
                elif tok.type == tokenize.STRING:
                    words = _WORD.findall(tok.string)
                else:
                    continue
                for word in words:
                    uses.setdefault(word, []).append((path, tok.start[0]))
    return uses


def unreached_members(root=ROOT):
    """Qualified names of ``src/repro`` members no entry point names."""
    uses = _uses(root)
    out = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        for qualified, node in _members(ast.parse(path.read_text())):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            own = range(first, node.end_lineno + 1)
            if not any(use_path != path or line not in own
                       for use_path, line in uses.get(name, ())):
                out.append(qualified)
    return out


def test_every_member_is_reached_from_an_entry_point():
    unreached = sorted(set(unreached_members()) - set(ALLOWED_UNREACHED))
    assert unreached == [], (
        f"members only tests use: {unreached}; delete them, or add one "
        f"to ALLOWED_UNREACHED with the reason it stays")


def test_allowlist_holds_only_unreached_members():
    stale = sorted(set(ALLOWED_UNREACHED) - set(unreached_members()))
    assert stale == [], f"allowlisted but reached (or gone): {stale}"


def test_member_scan_ignores_definitions_imports_and_docstrings(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "examples").mkdir()
    (tmp_path / "src" / "repro" / "mod.py").write_text(
        '"""Mentions dead() and Box.spare in prose."""\n'
        "__all__ = ['dead', 'live']\n"
        "def dead():\n    return dead()\n"
        "def live():\n    return 1\n"
        "class Box:\n"
        "    def used(self):\n        return self.spare\n"
        "    def spare(self):\n        return 'Box'\n")
    (tmp_path / "examples" / "run.py").write_text(
        "from repro.mod import dead, live\n"
        "getattr(live, 'used')\nprint(live())\n")
    assert unreached_members(tmp_path) == ["dead", "Box"]
