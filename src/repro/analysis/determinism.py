"""Determinism lints DET001–DET004 and the one nondeterminism-source
classifier (AST pass).

The rules encode invariants the runtime's correctness rests on and that
only ever broke *dynamically* before (PR 2's ``PYTHONHASHSEED`` routing
drift is the canonical example):

* **DET001** — ``hash()`` / ``id()`` as a routing or keying primitive.
  Python salts ``str`` hashes per process, so two workers disagree on
  where a key lives; ``id()`` is an address.  Routing must go through
  :func:`repro.hashing.stable_hash` / ``stable_hash_array``.  Exempt:
  ``__hash__`` implementations (in-process identity is their job).
* **DET002** — unseeded randomness: the stdlib ``random`` module
  (process-global, seed-racy) anywhere, the legacy ``numpy.random.*``
  global functions, and ``default_rng()`` called without a seed.
  Exempt paths: the bench harness (measures real machines) and the
  fault-plan seeding helpers.
* **DET003** — iterating a ``set``/``frozenset`` (or freezing one into
  a ``list``/``tuple``/``iter``) in the engine, partitioning, core,
  runtime or app trees without an explicit ``sorted()``:
  set order depends on the per-process hash salt, so anything it feeds
  (message routing, partition assignment, shuffle order, tie-breaks)
  diverges across processes.
* **DET004** — consulting the wall clock (``time.time``,
  ``perf_counter``, ``monotonic``, ``process_time``) inside the
  simulated-time regions (``runtime/``, the two engines, the CLI job
  paths).  Real time must flow through the one sanctioned API,
  :func:`repro.runtime.events.wall_timer`, so simulated cost and
  simulator overhead can never mix.

:func:`classify_source` is the one definition of a nondeterminism
source: the lint reports its answer where the rule's path scope
applies, and the taint pass (DET005/DET006) uses it as taint roots.
Fixtures in tests exercise the rules by passing engine-like virtual
paths.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import SourceFile, qualified_name
from repro.analysis.findings import Finding

__all__ = ["lint_file", "classify_source", "DET003_SCOPE", "DET004_SCOPE"]

#: module-path prefixes (relative to the ``repro`` package) where DET003
#: applies: trees whose iteration order feeds routing, partition
#: assignment, shuffle order or scheduling tie-breaks — and the apps,
#: whose scalar ``map`` emission order is a shuffle's record order.
DET003_SCOPE: tuple[str, ...] = (
    "propagation/", "mapreduce/", "partitioning/", "core/", "runtime/",
    "apps/",
)

#: module-path prefixes where DET004 applies (simulated-time regions).
DET004_SCOPE: tuple[str, ...] = (
    "runtime/", "propagation/", "mapreduce/", "cli.py",
)

#: where the lint reports each rule ("" is the whole package)
_LINT_SCOPE: dict[str, tuple[str, ...]] = {
    "DET001": ("",), "DET002": ("",), "DET003": DET003_SCOPE,
    "DET004": DET004_SCOPE,
}

#: paths whose sources of a rule are sanctioned: benchmarking measures
#: the real machine and the fault plan derives per-scenario seeds by
#: design (DET002); ``runtime/events.py`` *is* the sanctioned clock
_EXEMPT: dict[str, tuple[str, ...]] = {
    "DET002": ("bench/", "cluster/faults.py"),
    "DET004": ("runtime/events.py",),
}

#: the lint's advice, appended to the classifier's reason
_ADVICE: dict[str, str] = {
    "DET001": " and must not key routing, partitioning or shuffle "
              "decisions; use repro.hashing.stable_hash*",
    "DET002": "; use numpy.random.default_rng(seed)",
    "DET003": " — wrap in sorted() before it can feed "
              "routing/partitioning/shuffle order",
    "DET004": " read inside a simulated-time region; route real-time "
              "measurement through repro.runtime.events.wall_timer()",
}

_NUMPY_SEEDED_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}
)
_WALL_CLOCK_ATTRS = frozenset(
    {"time", "perf_counter", "monotonic", "process_time", "clock",
     "perf_counter_ns", "time_ns", "monotonic_ns"}
)
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)
#: builtins that freeze an unordered set's iteration order into a value
_SET_CONSUMERS = frozenset({"list", "tuple", "iter"})


def _is_set_expr(node: ast.expr, local_sets: set[str] | None = None
                 ) -> bool:
    """Whether ``node`` syntactically produces an unordered set
    (``local_sets``: names known to hold one in the current scope)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return True
    if isinstance(node, ast.Name):
        return local_sets is not None and node.id in local_sets
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor)
    ):
        # ``a & b`` is only a set when an operand is one
        return (_is_set_expr(node.left, local_sets)
                or _is_set_expr(node.right, local_sets))
    return False


def set_binding(node: ast.AST, local_sets: set[str]) -> str | None:
    """The local name ``node`` binds to an unordered set, or None:
    ``s = set(...)``, a set literal, comprehension or operator
    (:func:`_is_set_expr`, ``local_sets`` naming the sets bound so far),
    or an annotated ``s: set[...]``."""
    if isinstance(node, ast.Assign):
        if (len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                and _is_set_expr(node.value, local_sets)):
            return node.targets[0].id
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                        ast.Name):
        ann = ast.unparse(node.annotation) if node.annotation else ""
        if (ann.startswith(("set[", "set ", "frozenset"))
                or ann in ("set", "Set")
                or (node.value is not None
                    and _is_set_expr(node.value, local_sets))):
            return node.target.id
    return None


def _seedless(call: ast.Call) -> bool:
    """No positional seed and no ``seed=``, or the seed is ``None``."""
    seeds = [*call.args[:1],
             *(kw.value for kw in call.keywords if kw.arg == "seed")]
    return not seeds or (isinstance(seeds[0], ast.Constant)
                         and seeds[0].value is None)


def classify_source(
    call: ast.Call,
    bindings: dict[str, str],
    mod: str,
    local_sets: set[str] | None = None,
) -> tuple[str, str] | None:
    """``(rule, reason)`` when ``call`` is a nondeterminism source in
    the package module at ``mod``, resolving names through the module's
    import view ``bindings``; None otherwise, or where ``mod`` is
    exempt from the rule."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else None
    qname = qualified_name(func, bindings) or ""
    module, _, attr = qname.rpartition(".")
    hit: tuple[str, str]
    if name in ("hash", "id"):
        hit = "DET001", f"built-in {name}() is process-salted/address-based"
    elif module == "time" and attr in _WALL_CLOCK_ATTRS:
        hit = "DET004", f"wall clock time.{attr}()"
    elif module == "numpy.random" and attr not in _NUMPY_SEEDED_OK:
        hit = ("DET002", f"legacy numpy.random.{attr} uses the unseeded "
               "process-global state")
    elif qname == "numpy.random.default_rng" and _seedless(call):
        hit = "DET002", "default_rng() without a seed draws OS entropy"
    elif module == "random":
        hit = ("DET002", f"stdlib random.{attr} is a process-global, "
               "implicitly-seeded source")
    elif (name in _SET_CONSUMERS and call.args
            and _is_set_expr(call.args[0], local_sets)):
        hit = "DET003", f"{name}() freezes an unordered set's order"
    else:
        return None
    if mod.startswith(_EXEMPT.get(hit[0], ())):
        return None
    return hit


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str, mod: str, bindings: dict[str, str]):
        self.path = path
        self.mod = mod
        self.bindings = bindings
        self.findings: list[Finding] = []
        #: function-scope stack; each frame holds locally-inferred set
        #: variable names for DET003
        self._scopes: list[set[str]] = [set()]
        self._hash_exempt = 0

    # -- helpers -------------------------------------------------------
    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        if self.mod.startswith(_LINT_SCOPE[rule]):
            self.findings.append(
                Finding(rule, self.path, getattr(node, "lineno", 1), message)
            )

    def _local_sets(self) -> set[str]:
        return self._scopes[-1]

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if _is_set_expr(iter_node, self._local_sets()):
            self._report(
                "DET003", iter_node,
                "iteration over an unordered set: order depends on the "
                "per-process hash salt — wrap in sorted() (or restructure)"
                " before it can feed routing/partitioning/shuffle order",
            )

    # -- imports -------------------------------------------------------
    def _check_random_import(self, node: ast.AST, module: str | None
                             ) -> None:
        if module == "random" and not self.mod.startswith(
                _EXEMPT["DET002"]):
            self._report(
                "DET002", node,
                "stdlib 'random' is a process-global, implicitly-seeded "
                "source" + _ADVICE["DET002"],
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_random_import(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._check_random_import(node, node.module)
        self.generic_visit(node)

    # -- scopes --------------------------------------------------------
    def _visit_function(self, node: ast.AST, is_hash: bool) -> None:
        self._scopes.append(set())
        if is_hash:
            self._hash_exempt += 1
        self.generic_visit(node)
        if is_hash:
            self._hash_exempt -= 1
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name == "__hash__")

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name == "__hash__")

    def _bind(self, node: ast.Assign | ast.AnnAssign) -> None:
        name = set_binding(node, self._local_sets())
        if name is not None:
            self._local_sets().add(name)
        self.generic_visit(node)

    visit_Assign = visit_AnnAssign = _bind

    # -- iteration sites ----------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        hit = classify_source(node, self.bindings, self.mod,
                              self._local_sets())
        if hit is not None and not (hit[0] == "DET001"
                                    and self._hash_exempt):
            rule, reason = hit
            self._report(rule, node, reason + _ADVICE[rule])
        self.generic_visit(node)


def lint_file(file: SourceFile) -> list[Finding]:
    """DET001–DET004 over one parsed file, scoped by its path (see the
    module docstring); files outside the package are not linted."""
    if file.index is None or file.mod is None:
        return []
    visitor = _DeterminismVisitor(file.path, file.mod, file.index.bindings)
    visitor.visit(file.index.tree)
    return visitor.findings
