"""Parsed files, the project symbol table and call graph (pure stdlib
``ast``).

:func:`parse_file` is where ``repro check`` reads a file: it tokenizes
the source once (for the inline suppression markers) and parses it
once, into a :class:`SourceFile` that every pass consumes.  A ``repro``
package module also gets its :class:`ModuleIndex` there, whose
``bindings`` are the one import view the passes resolve names through
(:func:`qualified_name`).

The interprocedural passes (:mod:`repro.analysis.taint`) need to answer
one question the per-file lints cannot: *which function does this call
site reach?*  This module builds the index that answers it:

* a :class:`ModuleIndex` per scanned ``repro`` module — its top-level
  functions, classes (with methods and base names) and import aliases;
* a :class:`ProjectIndex` over all of them, keyed by dotted qualified
  name (``repro.graph.store.ShardStore.shard_indices``), with
  :meth:`ProjectIndex.resolve_call` mapping a call-site AST node to the
  :class:`FunctionInfo` it reaches.

Resolution is deliberately conservative: plain-name calls to same-module
or ``from``-imported functions, ``self.method`` within a class (walking
known base classes), and ``module_alias.func`` attribute calls.  A call
that cannot be proven to reach a known function resolves to ``None`` —
the taint pass never guesses.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.analysis.findings import collect_suppressions

__all__ = [
    "SourceFile",
    "parse_file",
    "qualified_name",
    "FunctionInfo",
    "ClassInfo",
    "ModuleIndex",
    "ProjectIndex",
    "module_path",
    "dotted_module",
    "build_project_index",
]


def module_path(path: str) -> str | None:
    """Path relative to the ``repro`` package, or None if outside it:
    what every pass scopes its rules by."""
    norm = path.replace("\\", "/")
    marker = "repro/"
    idx = norm.rfind(marker)
    if idx < 0:
        return None
    return norm[idx + len(marker):]


def dotted_module(path: str) -> str | None:
    """Dotted module name (``repro.graph.store``) for a repo path."""
    mod = module_path(path)
    if mod is None or not mod.endswith(".py"):
        return None
    parts = mod[:-3].split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro", *parts]) if parts else "repro"


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qname: str
    module: str
    path: str
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class ClassInfo:
    """One class definition: methods plus (unresolved) base names."""

    qname: str
    module: str
    name: str
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleIndex:
    """Symbols and import aliases of one scanned module."""

    module: str
    path: str
    tree: ast.Module
    #: local alias -> dotted module name (``import repro.hashing as h``)
    import_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> dotted qname (``from repro.hashing import stable_hash``)
    from_imports: dict[str, str] = field(default_factory=dict)
    #: the import view: local name -> dotted name of the module or member
    #: it binds (``import numpy.random`` binds ``numpy``; ``import
    #: numpy.random as npr`` binds ``numpy.random``)
    bindings: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


def _resolve_relative(module: str, node: ast.ImportFrom) -> str | None:
    """Absolute dotted module for a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    # level=1 strips the module's own name, each extra level one package
    if node.level > len(parts):
        return None
    base = parts[: len(parts) - node.level]
    if node.module:
        base.append(node.module)
    return ".".join(base) if base else None


def _index_module(path: str, tree: ast.Module, module: str) -> ModuleIndex:
    idx = ModuleIndex(module=module, path=path, tree=tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                idx.import_aliases[local] = alias.name
                idx.bindings[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_relative(module, node)
            if target is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                idx.from_imports[local] = idx.bindings[local] = (
                    f"{target}.{alias.name}")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qname = f"{module}.{node.name}"
            idx.functions[node.name] = FunctionInfo(
                qname, module, path, node.name, None, node)
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(f"{module}.{node.name}", module, node.name)
            for base in node.bases:
                if isinstance(base, ast.Name):
                    cls.bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    cls.bases.append(base.attr)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    cls.methods[item.name] = FunctionInfo(
                        f"{cls.qname}.{item.name}", module, path,
                        item.name, node.name, item)
            idx.classes[node.name] = cls
    return idx


@dataclass
class ProjectIndex:
    """The cross-module symbol table the interprocedural passes query."""

    modules: dict[str, ModuleIndex] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def _base_class(self, mod: ModuleIndex, name: str) -> ClassInfo | None:
        """Resolve a base-class *name* as written in ``mod``."""
        if name in mod.classes:
            return mod.classes[name]
        qname = mod.from_imports.get(name)
        if qname is not None:
            return self.classes.get(qname)
        return None

    def _method_on(self, mod: ModuleIndex, cls: ClassInfo,
                   method: str, depth: int = 0) -> FunctionInfo | None:
        """``cls.method`` walking known base classes (bounded depth)."""
        if method in cls.methods:
            return cls.methods[method]
        if depth >= 4:
            return None
        for base_name in cls.bases:
            base = self._base_class(mod, base_name)
            if base is None:
                continue
            base_mod = self.modules.get(base.module)
            if base_mod is None:
                continue
            found = self._method_on(base_mod, base, method, depth + 1)
            if found is not None:
                return found
        return None

    def resolve_call(self, call: ast.Call, module: str,
                     cls: str | None = None) -> FunctionInfo | None:
        """The function a call site provably reaches, or None."""
        mod = self.modules.get(module)
        if mod is None:
            return None
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in mod.functions:
                return mod.functions[func.id]
            qname = mod.from_imports.get(func.id)
            if qname is not None:
                return self.functions.get(qname)
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            recv = func.value.id
            if recv in ("self", "cls") and cls is not None:
                owner = mod.classes.get(cls)
                if owner is not None:
                    return self._method_on(mod, owner, func.attr)
                return None
            target_module = mod.import_aliases.get(recv)
            if target_module is None:
                # ``from repro.graph import store`` binds a module too
                maybe = mod.from_imports.get(recv)
                if maybe is not None and maybe in {
                    m for m in self.modules
                }:
                    target_module = maybe
            if target_module is not None:
                return self.functions.get(f"{target_module}.{func.attr}")
        return None


def build_project_index(files: Iterable[SourceFile]) -> ProjectIndex:
    """One :class:`ProjectIndex` over the package modules of ``files``
    (files outside the package, or unparsable, carry no index)."""
    index = ProjectIndex()
    for file in sorted(files, key=lambda f: f.path):
        idx = file.index
        if idx is None:
            continue
        index.modules[idx.module] = idx
        for info in idx.functions.values():
            index.functions[info.qname] = info
        for cls in idx.classes.values():
            index.classes[cls.qname] = cls
            for info in cls.methods.values():
                index.functions[info.qname] = info
    return index


@dataclass
class SourceFile:
    """One scanned file, tokenized and parsed once for every pass."""

    path: str
    #: path relative to the ``repro`` package; None outside it
    mod: str | None
    #: line -> rule ids waived by an inline marker on that line
    suppressions: dict[int, set[str]]
    #: None when the source failed to parse (``error`` says where)
    tree: ast.Module | None
    error: SyntaxError | None = None
    #: symbols and import view; None outside the package or unparsable
    index: ModuleIndex | None = None


def parse_file(path: str, source: str) -> SourceFile:
    """Tokenize and parse ``source`` as the file at ``path``."""
    suppressions = collect_suppressions(source)
    mod = module_path(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return SourceFile(path, mod, suppressions, None, exc)
    module = dotted_module(path)
    return SourceFile(
        path, mod, suppressions, tree,
        index=None if module is None else _index_module(path, tree, module))


def qualified_name(node: ast.expr, bindings: dict[str, str]) -> str | None:
    """The dotted name ``node`` denotes through a module's import view
    (``np.random.rand`` -> ``numpy.random.rand``), or None."""
    if isinstance(node, ast.Name):
        return bindings.get(node.id)
    if isinstance(node, ast.Attribute):
        base = qualified_name(node.value, bindings)
        return None if base is None else f"{base}.{node.attr}"
    return None
