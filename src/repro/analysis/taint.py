"""Interprocedural nondeterminism taint analysis (DET005/DET006).

DET001–DET004 flag nondeterminism *sources* where they are written, but
a helper function launders them trivially::

    def fresh_key(obj):          # lives in an unscoped utility module
        return hash(obj)         # DET001 only fires in DET scopes

    route = fresh_key(msg) % n   # engine code: invisible to v1

This pass closes that hole.  Using the project call graph
(:mod:`repro.analysis.callgraph`) it computes, by fixpoint, the set of
functions whose **return value carries nondeterminism** — a direct
source (:func:`repro.analysis.determinism.classify_source`: ``hash()``/
``id()``, wall clock, unseeded RNG, frozen set order) flowing into a
``return``, or a call to an already-tainted function doing so.  Then:

* **DET005** — a call site inside the determinism-critical scopes
  (:data:`repro.analysis.determinism.DET003_SCOPE`) that provably
  reaches a tainted function.
* **DET006** — a function default argument, anywhere in the package,
  that evaluates a source (or calls a tainted function) at import time:
  the value is frozen per-process, so two workers disagree forever.

Sources that carry an inline ``# repro: ignore[DET00x]`` waiver do not
taint — a reviewed, justified source is by definition not laundered.
Functions named ``__hash__`` are exempt end to end, mirroring DET001.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.callgraph import (
    FunctionInfo,
    ModuleIndex,
    ProjectIndex,
    module_path,
)
from repro.analysis.determinism import (DET003_SCOPE, classify_source,
                                        set_binding)
from repro.analysis.findings import Finding

__all__ = ["check_taint", "compute_tainted"]


def _iter_body_nodes(fn_node: ast.AST):
    """Statements/expressions of a function, skipping nested defs."""
    stack = list(getattr(fn_node, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class _FnFacts:
    """Return-flow facts for one function."""

    sources: list[tuple[int, str]] = field(default_factory=list)
    #: resolved callee qname -> first call-site line, for calls whose
    #: result can flow into a return
    return_calls: dict[str, int] = field(default_factory=dict)


def _fn_facts(
    info: FunctionInfo,
    bindings: dict[str, str],
    index: ProjectIndex,
    suppressed: dict[int, set[str]],
) -> _FnFacts:
    assigns: dict[str, list[ast.expr]] = {}
    returns: list[ast.expr] = []
    binds: list[ast.Assign | ast.AnnAssign] = []
    for node in _iter_body_nodes(info.node):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            binds.append(node)
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigns.setdefault(target.id, []).append(node.value)
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
                and isinstance(node.target, ast.Name)):
            assigns.setdefault(node.target.id, []).append(node.value)
        elif (isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Name)):
            assigns.setdefault(node.target.id, []).append(node.value)
        elif isinstance(node, ast.Return) and node.value is not None:
            returns.append(node.value)

    # closure of return-feeding expressions: the returns themselves plus
    # everything assigned to any name mentioned in one
    exprs: list[ast.expr] = list(returns)
    seen_names: set[str] = set()
    i = 0
    while i < len(exprs):
        for sub in ast.walk(exprs[i]):
            if isinstance(sub, ast.Name) and sub.id not in seen_names:
                seen_names.add(sub.id)
                exprs.extend(assigns.get(sub.id, ()))
        i += 1

    # the function's set-valued locals, bound in source order as the
    # DET lint binds them
    local_sets: set[str] = set()
    for node in sorted(binds, key=lambda n: (n.lineno, n.col_offset)):
        name = set_binding(node, local_sets)
        if name is not None:
            local_sets.add(name)

    facts = _FnFacts()
    modpath = module_path(info.path) or ""
    for expr in exprs:
        for sub in ast.walk(expr):
            if not isinstance(sub, ast.Call):
                continue
            hit = classify_source(sub, bindings, modpath, local_sets)
            if hit is not None:
                rule, reason = hit
                waived = suppressed.get(sub.lineno, set())
                if rule not in waived and "*" not in waived:
                    facts.sources.append((sub.lineno, reason))
            callee = index.resolve_call(sub, info.module, info.cls)
            if callee is not None:
                facts.return_calls.setdefault(callee.qname, sub.lineno)
    return facts


def compute_tainted(
    index: ProjectIndex,
    suppressions: dict[str, dict[int, set[str]]] | None = None,
) -> dict[str, str]:
    """qname -> reason for every function whose return is tainted."""
    suppressions = suppressions or {}
    facts: dict[str, _FnFacts] = {}
    for qname, info in index.functions.items():
        if info.name == "__hash__":
            continue
        mod = index.modules.get(info.module)
        if mod is None:
            continue
        facts[qname] = _fn_facts(
            info, mod.bindings, index, suppressions.get(info.path, {}))

    tainted: dict[str, str] = {}
    for qname, fn in sorted(facts.items()):
        if fn.sources:
            _, reason = min(fn.sources)
            tainted[qname] = reason
    changed = True
    while changed:
        changed = False
        for qname, fn in sorted(facts.items()):
            if qname in tainted:
                continue
            for callee in sorted(fn.return_calls):
                if callee in tainted:
                    base = tainted[callee]
                    root = (base.split(": ", 1)[1]
                            if base.startswith("via ") else base)
                    tainted[qname] = f"via {callee}: {root}"
                    changed = True
                    break
    return tainted


class _CallSiteVisitor(ast.NodeVisitor):
    """DET005: in-scope call sites reaching tainted functions."""

    def __init__(self, mod: ModuleIndex, index: ProjectIndex,
                 tainted: dict[str, str]):
        self.mod = mod
        self.index = index
        self.tainted = tainted
        self.findings: list[Finding] = []
        self._cls: list[str] = []
        self._hash_exempt = 0
        self._fn_qnames: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._cls.append(node.name)
        self.generic_visit(node)
        self._cls.pop()

    def _visit_fn(self, node: ast.AST, name: str) -> None:
        parts = [self.mod.module, *self._cls, name]
        self._fn_qnames.append(".".join(parts))
        if name == "__hash__":
            self._hash_exempt += 1
        self.generic_visit(node)
        if name == "__hash__":
            self._hash_exempt -= 1
        self._fn_qnames.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_fn(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_fn(node, node.name)

    def visit_Call(self, node: ast.Call) -> None:
        if not self._hash_exempt:
            cls = self._cls[-1] if self._cls else None
            callee = self.index.resolve_call(node, self.mod.module, cls)
            if (callee is not None and callee.qname in self.tainted
                    and callee.qname not in self._fn_qnames):
                self.findings.append(Finding(
                    "DET005", self.mod.path, node.lineno,
                    f"call to {callee.qname}() whose return value "
                    "carries nondeterminism "
                    f"({self.tainted[callee.qname]}); route through a "
                    "seeded/stable API before it reaches routing, "
                    "payloads or counters",
                ))
        self.generic_visit(node)


def _check_defaults(
    info: FunctionInfo,
    bindings: dict[str, str],
    index: ProjectIndex,
    tainted: dict[str, str],
) -> list[Finding]:
    args = info.node.args
    defaults = list(getattr(args, "defaults", []))
    defaults += [d for d in getattr(args, "kw_defaults", []) if d is not None]
    findings: list[Finding] = []
    modpath = module_path(info.path) or ""
    for default in defaults:
        for sub in ast.walk(default):
            if not isinstance(sub, ast.Call):
                continue
            hit = classify_source(sub, bindings, modpath)
            reason = hit[1] if hit is not None else None
            if reason is None:
                callee = index.resolve_call(sub, info.module, info.cls)
                if callee is not None and callee.qname in tainted:
                    reason = (f"calls {callee.qname}(): "
                              f"{tainted[callee.qname]}")
            if reason is not None:
                findings.append(Finding(
                    "DET006", info.path, sub.lineno,
                    f"default argument of {info.name}() evaluates a "
                    f"nondeterminism source at import time ({reason}); "
                    "default to None and resolve per call instead",
                ))
    return findings


def check_taint(
    index: ProjectIndex, suppressions: dict[str, dict[int, set[str]]]
) -> list[Finding]:
    """DET005/DET006 over an indexed project (raw findings).

    ``suppressions`` maps each indexed path to its inline markers: a
    waived source does not taint.
    """
    tainted = compute_tainted(index, suppressions)
    out: list[Finding] = []
    for mod in index.modules.values():
        modpath = module_path(mod.path)
        if modpath is not None and modpath.startswith(DET003_SCOPE):
            visitor = _CallSiteVisitor(mod, index, tainted)
            visitor.visit(mod.tree)
            out.extend(visitor.findings)
    for _, info in sorted(index.functions.items()):
        mod = index.modules.get(info.module)
        if mod is not None:
            out.extend(_check_defaults(info, mod.bindings, index, tainted))
    return out
