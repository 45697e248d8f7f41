"""Out-of-core safety lints OOC001–OOC003 (AST pass).

PR 9's sharded store keeps the graph on disk and serves bounded,
memmap-backed views; the whole design collapses if a caller silently
materializes O(graph) bytes or writes through a shared mapping.  Three
rules police the hazard class:

* **OOC001** — materializing a memmap/shard-served value with
  ``np.asarray``/``np.array``/``.tolist()``/``.copy()``.  On a memmap
  these either pin a full in-memory copy (``array``/``tolist``/
  ``copy``) or alias the mapping while *looking* like a plain array
  (``asarray``), so both failure modes hide behind one idiom.
* **OOC002** — in-place write into a subscript of a read-only-intent
  mapping (``mmap_mode="r"`` loads, ``mode="r"`` memmaps, shard
  accessor results).  The pages are shared: a write either faults at
  runtime or, worse, corrupts every other reader of the shard.
* **OOC003** — a ``Graph`` subclass that holds a shard ``store`` must
  guard the whole-graph accessor: its ``out_indices`` property must
  raise (``GraphError``) rather than serve O(m) edges.  Subclasses of
  ``ShardBackedGraph`` inherit the raising guard and are only flagged
  if they override it with a non-raising body.

Values are typed by *construction site* (``np.load(mmap_mode=...)``,
``np.memmap``, ``open_memmap``, and the shard accessor methods of
``graph/store.py``/``graph/stream.py``) and flow through names and
subscripts within a function; names resolve through the module's import
view.  Like every rule, findings honour inline
``# repro: ignore[OOC00x] -- reason`` waivers for the sites where the
materialization is the documented contract (e.g. ``to_graph()``).
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import SourceFile, qualified_name
from repro.analysis.findings import Finding

__all__ = ["check_ooc_safety", "SHARD_ACCESSORS"]

#: methods of the shard store / stream layer that serve memmap-backed,
#: read-only views (the "constructors" of shard-served values)
SHARD_ACCESSORS = frozenset(
    {"shard_indices", "shard_indptr", "indices_range",
     "out_indices_range", "global_indptr"}
)

_MATERIALIZERS = frozenset({"asarray", "array", "ascontiguousarray"})


class _OocVisitor(ast.NodeVisitor):
    def __init__(self, path: str, bindings: dict[str, str]):
        self.path = path
        self.bindings = bindings
        self.findings: list[Finding] = []
        #: scope stack: name -> "ro" | "rw"
        self._scopes: list[dict[str, str]] = [{}]

    # -- helpers -------------------------------------------------------
    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(rule, self.path, getattr(node, "lineno", 1), message))

    def _np_attr(self, func: ast.expr) -> str | None:
        """The ``X`` of a call to ``numpy.X`` (``np.X``, or ``X``
        from-imported from numpy)."""
        module, _, attr = (qualified_name(func, self.bindings)
                           or "").rpartition(".")
        return attr if module == "numpy" else None

    def _kw_mode(self, call: ast.Call, name: str) -> str | None:
        for kw in call.keywords:
            if kw.arg == name:
                if isinstance(kw.value, ast.Constant) and isinstance(
                        kw.value.value, str):
                    return kw.value.value
                return "?"
        return None

    def _ctor_intent(self, call: ast.Call) -> str | None:
        """Memmap intent when ``call`` constructs a mapped value."""
        func = call.func
        attr = self._np_attr(func)
        if attr == "load":
            mode = self._kw_mode(call, "mmap_mode")
            if mode is None:
                return None  # eager load: plain in-memory array
            return "ro" if mode in ("r", "?") else "rw"
        if attr == "memmap":
            mode = self._kw_mode(call, "mode") or "r+"
            return "ro" if mode == "r" else "rw"
        is_open_memmap = (
            qualified_name(func, self.bindings)
            == "numpy.lib.format.open_memmap"
            or (isinstance(func, ast.Attribute)
                and func.attr == "open_memmap"))
        if is_open_memmap:
            mode = self._kw_mode(call, "mode") or "r+"
            return "ro" if mode == "r" else "rw"
        if (isinstance(func, ast.Attribute)
                and func.attr in SHARD_ACCESSORS):
            return "ro"
        return None

    def _intent(self, node: ast.expr) -> str | None:
        """Memmap intent of an arbitrary expression, or None."""
        if isinstance(node, ast.Name):
            for frame in reversed(self._scopes):
                if node.id in frame:
                    return frame[node.id]
            return None
        if isinstance(node, ast.Call):
            return self._ctor_intent(node)
        if isinstance(node, ast.Subscript):
            return self._intent(node.value)
        return None

    # -- scopes and assignments ---------------------------------------
    def _visit_fn(self, node: ast.AST) -> None:
        self._scopes.append({})
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_fn(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_fn(node)

    def _check_write(self, target: ast.expr) -> None:
        if (isinstance(target, ast.Subscript)
                and self._intent(target.value) == "ro"):
            self._report(
                "OOC002", target,
                "in-place write into a read-only-intent memmap/shard "
                "view: the pages are shared with every other reader — "
                "gather into a fresh array instead",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_write(target)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            intent = self._intent(node.value)
            if intent is not None:
                self._scopes[-1][node.targets[0].id] = intent
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_write(node.target)
        if isinstance(node.target, ast.Name) and node.value is not None:
            intent = self._intent(node.value)
            if intent is not None:
                self._scopes[-1][node.target.id] = intent
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write(node.target)
        self.generic_visit(node)

    # -- materialization sites ----------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        attr = self._np_attr(func)
        if (attr in _MATERIALIZERS and node.args
                and self._intent(node.args[0]) is not None):
            self._report(
                "OOC001", node,
                f"np.{attr}() over a memmap/shard-served value "
                "materializes (or silently aliases) O(graph) bytes; "
                "stream per-shard slices instead",
            )
        if (isinstance(func, ast.Attribute)
                and func.attr in ("tolist", "copy")
                and not node.args
                and self._intent(func.value) is not None):
            self._report(
                "OOC001", node,
                f".{func.attr}() on a memmap/shard-served value pins a "
                "full in-memory copy; operate on bounded slices",
            )
        self.generic_visit(node)

    # -- OOC003: whole-graph accessor guard ---------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        base_names = {
            b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "")
            for b in node.bases
        }
        if base_names & {"Graph", "ShardBackedGraph"}:
            self._check_graph_subclass(node, base_names)
        self._visit_fn(node)

    def _holds_store(self, node: ast.ClassDef) -> bool:
        for item in ast.walk(node):
            if isinstance(item, ast.Assign):
                for target in item.targets:
                    if (isinstance(target, ast.Name)
                            and target.id == "__slots__"):
                        for elt in ast.walk(item.value):
                            if (isinstance(elt, ast.Constant)
                                    and elt.value in ("store", "_store")):
                                return True
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr in ("store", "_store")):
                        return True
        return False

    def _check_graph_subclass(
        self, node: ast.ClassDef, base_names: set[str]
    ) -> None:
        accessor: ast.FunctionDef | ast.AsyncFunctionDef | None = None
        for item in node.body:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "out_indices"):
                accessor = item
        if accessor is not None:
            raises = any(isinstance(n, ast.Raise)
                         for n in ast.walk(accessor))
            if not raises:
                self._report(
                    "OOC003", accessor,
                    f"{node.name}.out_indices does not raise: a "
                    "shard-backed graph must guard the whole-graph "
                    "accessor with GraphError and serve bounded "
                    "ranges instead",
                )
            return
        if "ShardBackedGraph" in base_names:
            return  # inherits the raising guard
        if self._holds_store(node):
            self._report(
                "OOC003", node,
                f"{node.name} holds a shard store but defines no "
                "raising out_indices guard: the inherited accessor "
                "serves O(m) edges — add a GraphError-raising "
                "property",
            )


def check_ooc_safety(file: SourceFile) -> list[Finding]:
    """OOC001–OOC003 over one parsed file; only package modules are
    scanned."""
    if file.index is None:
        return []
    visitor = _OocVisitor(file.path, file.index.bindings)
    visitor.visit(file.index.tree)
    return visitor.findings
