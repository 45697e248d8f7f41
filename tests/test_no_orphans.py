"""Orphan guards: nothing under ``src/repro`` that nothing runs.

Module level: every module is on the CLI's import path.  A module that
nothing imports is code the program never runs.  The walk starts at
``repro.__main__`` (``python -m repro``, whose one import is
``repro.cli``) and follows every ``import`` and ``from … import`` the
project index records, function-level ones included.  A name imported
from a package resolves through that package's own ``from`` imports to
the module that defines it, so a package re-exporting a module does not
keep it alive; a package counts as used, imports and all, only when
something imports the package itself or a name the package defines.

Def level: every public function, class and method has a user.  A def
counts as used when its name appears as a ``Name`` or an ``Attribute``
somewhere in ``src/repro`` outside its own body, or as a ``Name``, an
``Attribute`` or a dotted part of a string in ``perf/`` (whose trace
targets are strings) or ``examples/``.  Import statements and
``__all__`` are neither, so a re-export keeps nothing alive, and tests
never count.  Matching is by bare name, so a collision (a method named
like a ``str`` method) can hide an orphan but never flags live code.
"""

import ast
import collections
import functools
import pathlib

from repro.analysis.callgraph import build_project_index, parse_file

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ROOT = "repro.__main__"

#: public defs only tests use, each a reference the tests compare
#: against or build from, with the test that does
ALLOWED_ORPHANS = {
    "repro.graph.algorithms.count_triangles":
        "oracle: tests/test_apps.py compares TC's count against it",
    "repro.graph.algorithms.dijkstra":
        "oracle: tests/test_frontier_traversal.py compares SSSP against it",
    "repro.graph.algorithms.two_hop_neighbors":
        "oracle: tests/test_apps.py compares TFL's lists against it",
    "repro.apps.diameter.neighborhood_function_exact":
        "oracle: tests/test_apps_extensions.py compares HADI against it",
    "repro.graph.generators.ring":
        "fixture: tests/conftest.py and a dozen suites build graphs from it",
    "repro.graph.generators.grid":
        "fixture: tests/conftest.py and tests/test_core_sketch_properties.py"
        " build graphs from it",
    "repro.graph.io.write_edge_list":
        "fixture: tests/test_cli_graphinfo.py writes the edge-list file "
        "`repro graphinfo` reads; tests/test_properties.py round-trips it",
}


def _project_index():
    return build_project_index(
        parse_file(str(path), path.read_text(encoding="utf-8"))
        for path in SRC.rglob("*.py"))


def _is_package(index, module):
    return index.modules[module].path.endswith("__init__.py")


def _defining_module(index, qname):
    """The project module ``qname`` is, or is defined in, following
    package re-exports; None outside the project."""
    while qname not in index.modules:
        owner, _, name = qname.rpartition(".")
        if owner not in index.modules:
            return None
        reexport = index.modules[owner].from_imports.get(name)
        if reexport is None or not _is_package(index, owner):
            return owner
        qname = reexport
    return qname


def _import_closure(index, root):
    reached, todo = set(), [root]
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        reached.add(module)
        mod = index.modules[module]
        for target in [*mod.import_aliases.values(),
                       *mod.from_imports.values()]:
            defining = _defining_module(index, target)
            if defining is not None:
                todo.append(defining)
    return reached


def test_every_module_is_reachable_from_the_cli():
    index = _project_index()
    closure = _import_closure(index, ROOT)
    assert "repro.cli" in closure
    orphans = sorted(module for module in index.modules
                     if not _is_package(index, module)
                     and module not in closure)
    assert orphans == [], f"nothing on the CLI path imports {orphans}"


def test_package_reexports_do_not_count_as_use():
    index = build_project_index(parse_file(path, text) for path, text in {
        "src/repro/__main__.py": "from repro.pkg import used\n",
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.a import used\n"
            "from repro.pkg.b import unused\n"),
        "src/repro/pkg/a.py": "def used():\n    from repro.pkg import c\n",
        "src/repro/pkg/b.py": "def unused():\n    pass\n",
        "src/repro/pkg/c.py": "",
    }.items())
    assert _import_closure(index, ROOT) == {
        "repro.__main__", "repro.pkg.a", "repro.pkg.c"}


# ----------------------------------------------------------------------
# Def level
# ----------------------------------------------------------------------
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_public(name):
    return not name.startswith("_") and not name.startswith("visit_")


def _public_defs(module, tree):
    """``(qualified name, node)`` of every public top-level function or
    class and every public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        if _is_public(node.name):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, _DEFS) and _is_public(child.name):
                    yield f"{module}.{node.name}.{child.name}", child


def _names(tree, strings=False):
    """How often each name appears as a ``Name`` or ``Attribute`` (and,
    with ``strings``, as a dotted part of a string constant)."""
    counts = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            counts.update(part for part in node.value.split(".")
                          if part.isidentifier())
    return counts


def _module_name(path):
    parts = pathlib.PurePosixPath(path).with_suffix("").parts[1:]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def unused_defs(files):
    """Qualified names of the public defs under ``src/repro`` that no
    code in ``files`` (repo-relative path -> source) uses."""
    defs, in_src, outside = [], collections.Counter(), collections.Counter()
    for path, text in files.items():
        tree = ast.parse(text)
        if path.startswith("src/repro/"):
            in_src += _names(tree)
            defs.extend(_public_defs(_module_name(path), tree))
        elif path.startswith(("perf/", "examples/")):
            outside += _names(tree, strings=True)
    return sorted(
        qname for qname, node in defs
        if not outside[node.name]
        and in_src[node.name] == _names(node)[node.name])


def stale_allowances(allowed, files):
    """Allow-list entries that no longer name an unused def."""
    return sorted(set(allowed) - set(unused_defs(files)))


@functools.cache
def _repo_files():
    return {
        path.relative_to(REPO).as_posix(): path.read_text(encoding="utf-8")
        for root in (SRC, REPO / "perf", REPO / "examples")
        for path in root.rglob("*.py")}


def test_every_public_def_has_a_user():
    orphans = [qname for qname in unused_defs(_repo_files())
               if qname not in ALLOWED_ORPHANS]
    assert orphans == [], (
        f"nothing outside tests uses {orphans}: delete them (and the "
        f"tests that only test them), or add each to ALLOWED_ORPHANS "
        f"with the test that compares against or builds from it")


def test_allowed_orphans_are_still_orphans():
    assert stale_allowances(ALLOWED_ORPHANS, _repo_files()) == []


FIXTURE = {
    "src/repro/__init__.py": (
        "from repro.mod import reexported\n"
        "__all__ = ['reexported', 'listed']\n"),
    "src/repro/mod.py": (
        "def used():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def reexported():\n    pass\n"
        "def listed():\n    pass\n"
        "def tested():\n    pass\n"
        "def traced():\n    pass\n"
        "def shown():\n    pass\n"
        "def _private():\n    pass\n"
        "class Box:\n"
        "    def __init__(self):\n        self.run()\n"
        "    def run(self):\n        used()\n"
        "    def idle(self):\n        pass\n"
        "    def visit_Name(self, node):\n        pass\n"),
    "src/repro/other.py": "from repro.mod import Box\nBox()\n",
    "tests/test_mod.py": "from repro.mod import tested\ntested()\n",
    "perf/trace.py": "TARGETS = ('repro.mod', 'traced')\n",
    "examples/demo.py": "import repro.mod\nrepro.mod.shown()\n",
}


def test_defs_only_tests_reexports_or_all_reach_are_reported():
    assert unused_defs(FIXTURE) == [
        "repro.mod.Box.idle", "repro.mod.listed", "repro.mod.recursive",
        "repro.mod.reexported", "repro.mod.tested"]


def test_a_stale_allowance_is_reported():
    allowed = {"repro.mod.tested": "", "repro.mod.used": "",
               "repro.mod.gone": ""}
    assert stale_allowances(allowed, FIXTURE) == [
        "repro.mod.gone", "repro.mod.used"]
