"""Orphan guard: every module under ``src/repro`` is on the CLI's import path.

A module that nothing imports is code the program never runs.  The walk
starts at ``repro.__main__`` (``python -m repro``, whose one import is
``repro.cli``) and follows every ``import`` and ``from … import`` the
project index records, function-level ones included.  A name imported
from a package resolves through that package's own ``from`` imports to
the module that defines it, so a package re-exporting a module does not
keep it alive; a package counts as used, imports and all, only when
something imports the package itself or a name the package defines.
"""

import pathlib

from repro.analysis.callgraph import build_project_index, parse_file

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ROOT = "repro.__main__"

#: modules with no caller on the CLI path, each kept for the reason beside it
ALLOWED_ORPHANS = {
    # the Section 4.1 partition-sketch property checker (local optimality,
    # monotonicity, proximity) the tests hold the partitioner's output to
    "repro.core.sketch",
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
    orphans = sorted(
        module for module in index.modules
        if not _is_package(index, module)
        and module not in closure and module not in ALLOWED_ORPHANS)
    assert orphans == [], (
        f"nothing on the CLI path imports {orphans}: delete them, or add "
        f"each to ALLOWED_ORPHANS with the reason it stays")


def test_allowed_orphans_are_still_orphans():
    index = _project_index()
    closure = _import_closure(index, ROOT)
    for module in ALLOWED_ORPHANS:
        assert module in index.modules, f"{module} no longer exists"
        assert module not in closure, f"{module} has a caller now"


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
