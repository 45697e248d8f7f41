"""Counter-conservation pass (CNT001 / CNT002).

PR 3's ``reconcile()`` audits cost conservation *at runtime, per job*:
it can only cross-check the counters the executed codepath happened to
touch.  This pass closes the loop statically.  The declarative side is
:data:`repro.runtime.events.CANONICAL_COUNTERS` (plus
``DYNAMIC_COUNTER_PREFIXES`` for families minted with f-strings, e.g.
``recovery.<kind>``).  The scan side is every
``metrics.add("dotted.name", ...)`` / ``metrics.get("dotted.name")``
call in the engines, scheduler, network model and fault path.

* **CNT001** — a counter is incremented or read somewhere but not
  registered: ``reconcile()`` and the bench reports silently never see
  it.
* **CNT002** — a counter is registered but no scanned module ever
  touches it: the registry has drifted from the code (only reported on
  a full-tree run; a partial path list cannot prove absence).

A "counter call" is recognised conservatively so ``dict.get`` never
trips the pass: the receiver's terminal name must be ``m``,
``metrics`` or ``registry`` (covering ``m``, ``metrics``,
``stream.metrics``, ``self.events.metrics``, ``registry``), and the
first argument must be a string literal shaped like a dotted counter
name (``lowercase.words.with.dots``) or an f-string with such a dotted
literal prefix.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.analysis.callgraph import SourceFile
from repro.analysis.findings import Finding

__all__ = ["CounterUse", "collect_counter_uses", "check_counter_uses",
           "check_registry_coverage"]

_COUNTER_NAME_RE = re.compile(r"^[a-z_]+(\.[a-z_]+)+$")
_COUNTER_PREFIX_RE = re.compile(r"^[a-z_]+(\.[a-z_]+)*\.$")
_RECEIVER_NAMES = frozenset({"m", "metrics", "registry"})
_COUNTER_METHODS = frozenset({"add", "get"})

#: location of the registry, for CNT002 findings
_REGISTRY_PATH = "src/repro/runtime/events.py"


@dataclass(frozen=True)
class CounterUse:
    """One ``metrics.add/get`` site: a literal name or f-string prefix."""

    name: str
    is_prefix: bool
    path: str
    line: int


def _receiver_terminal(func: ast.Attribute) -> str | None:
    base = func.value
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


def _counter_arg(node: ast.Call) -> tuple[str, bool] | None:
    """(name, is_prefix) of the first argument, if counter-shaped."""
    if not node.args:
        return None
    arg = node.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        if _COUNTER_NAME_RE.match(arg.value):
            return arg.value, False
        return None
    if isinstance(arg, ast.JoinedStr) and arg.values:
        head = arg.values[0]
        if (isinstance(head, ast.Constant) and isinstance(head.value, str)
                and _COUNTER_PREFIX_RE.match(head.value)):
            return head.value, True
    return None


def collect_counter_uses(file: SourceFile) -> list[CounterUse]:
    """Every counter-shaped ``.add()``/``.get()`` site in one parsed file.

    Only files inside the ``repro`` package participate: the canonical
    registry governs the production counters; tests minting synthetic
    names to exercise registry mechanics are not conservation
    violations.
    """
    if file.index is None:
        return []
    uses: list[CounterUse] = []
    for node in ast.walk(file.index.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _COUNTER_METHODS):
            continue
        recv = _receiver_terminal(node.func)
        if recv not in _RECEIVER_NAMES:
            continue
        arg = _counter_arg(node)
        if arg is None:
            continue
        name, is_prefix = arg
        uses.append(CounterUse(name, is_prefix, file.path, node.lineno))
    return uses


def _registry() -> tuple[dict[str, str], tuple[str, ...]]:
    from repro.runtime.events import (
        CANONICAL_COUNTERS,
        DYNAMIC_COUNTER_PREFIXES,
    )
    return CANONICAL_COUNTERS, DYNAMIC_COUNTER_PREFIXES


def check_counter_uses(uses: list[CounterUse]) -> list[Finding]:
    """CNT001 for every use site naming an unregistered counter."""
    registered, prefixes = _registry()
    findings: list[Finding] = []
    for use in uses:
        if use.is_prefix:
            if use.name in prefixes:
                continue
            findings.append(Finding(
                "CNT001", use.path, use.line,
                f"dynamic counter family {use.name!r}* is not listed in "
                "runtime.events.DYNAMIC_COUNTER_PREFIXES; reconcile() "
                "will never audit it",
            ))
        elif use.name not in registered:
            findings.append(Finding(
                "CNT001", use.path, use.line,
                f"counter {use.name!r} is not registered in "
                "runtime.events.CANONICAL_COUNTERS; register it (with a "
                "one-line description) so reconcile() audits both sides",
            ))
    return findings


def check_registry_coverage(
    uses: list[CounterUse],
    registered: dict[str, str] | None = None,
) -> list[Finding]:
    """CNT002: registered counters no scanned module ever touches.

    Only meaningful when ``uses`` came from a full-tree scan — the
    runner calls this exclusively in that case.
    """
    if registered is None:
        registered, _ = _registry()
    touched = {u.name for u in uses if not u.is_prefix}
    findings: list[Finding] = []
    for name in sorted(set(registered) - touched):
        findings.append(Finding(
            "CNT002", _REGISTRY_PATH, 1,
            f"counter {name!r} is registered in CANONICAL_COUNTERS but "
            "no scanned module increments or reads it; remove it or "
            "wire the increment",
        ))
    return findings
