"""Strict typing gate (TYP001).

A stdlib AST annotation-completeness lint over the strict modules
(``hashing.py``, ``runtime/``, ``mapreduce/``, ``propagation/``): every
top-level and method ``def`` must annotate every parameter
(``self``/``cls`` excepted) and its return type.  This is the subset of
mypy-strict that is checkable without a type checker, so the strict
surface stays honest where mypy is not installed; CI's ``check`` job
also runs mypy itself with the pyproject config, which turns on
``disallow_untyped_defs`` for the same modules.

Nested functions (closures like an engine's ``emit``) are exempt from
TYP001: they are implementation detail of an annotated parent and mypy
infers them from context.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import SourceFile
from repro.analysis.findings import Finding

__all__ = ["STRICT_PREFIXES", "check_annotations"]

#: module paths (relative to the ``repro`` package) under strict typing
STRICT_PREFIXES: tuple[str, ...] = (
    "hashing.py", "runtime/", "mapreduce/", "propagation/",
)


class _AnnotationVisitor(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.findings: list[Finding] = []
        self._depth = 0

    def _check(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        missing: list[str] = []
        args = node.args
        positional = args.posonlyargs + args.args
        for i, arg in enumerate(positional):
            if i == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        for arg in args.kwonlyargs:
            if arg.annotation is None:
                missing.append(arg.arg)
        for star in (args.vararg, args.kwarg):
            if star is not None and star.annotation is None:
                missing.append("*" + star.arg)
        if node.returns is None:
            missing.append("return")
        if missing:
            self.findings.append(Finding(
                "TYP001", self.path, node.lineno,
                f"{node.name}() in a strict-typed module is missing "
                f"annotations for: {', '.join(missing)}",
            ))

    def _visit_def(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                   ) -> None:
        if self._depth == 0:
            self._check(node)
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_def(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1


def check_annotations(file: SourceFile) -> list[Finding]:
    """TYP001 over one parsed file if it is inside the strict surface."""
    if (file.index is None or file.mod is None
            or not file.mod.startswith(STRICT_PREFIXES)):
        return []
    visitor = _AnnotationVisitor(file.path)
    visitor.visit(file.index.tree)
    return visitor.findings
