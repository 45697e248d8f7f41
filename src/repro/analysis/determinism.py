"""Determinism lints DET001–DET004 (AST pass).

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
* **DET003** — iterating a ``set``/``frozenset`` in the engine,
  partitioning, core, runtime or app trees without an explicit
  ``sorted()``:
  set order depends on the per-process hash salt, so anything it feeds
  (message routing, partition assignment, shuffle order, tie-breaks)
  diverges across processes.
* **DET004** — consulting the wall clock (``time.time``,
  ``perf_counter``, ``monotonic``, ``process_time``) inside the
  simulated-time regions (``runtime/``, the two engines, the CLI job
  paths).  Real time must flow through the one sanctioned API,
  :func:`repro.runtime.events.wall_timer`, so simulated cost and
  simulator overhead can never mix.

Each rule is scoped by repo path (see ``_module_path``); fixtures in
tests exercise the rules by passing engine-like virtual paths.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import (
    Finding,
    apply_suppressions,
    collect_suppressions,
)

__all__ = ["lint_source", "DET003_SCOPE", "DET004_SCOPE"]

#: module-path prefixes (relative to the ``repro`` package) where DET003
#: applies: trees whose iteration order feeds routing, partition
#: assignment, shuffle order or scheduling tie-breaks — and the apps,
#: whose scalar ``map`` emission order is a shuffle's record order.
DET003_SCOPE: tuple[str, ...] = (
    "propagation/", "mapreduce/", "partitioning/", "core/", "runtime/",
    "apps/",
)

#: module-path prefixes where DET004 applies (simulated-time regions).
#: ``runtime/events.py`` is carved out: it *is* the sanctioned clock.
DET004_SCOPE: tuple[str, ...] = (
    "runtime/", "propagation/", "mapreduce/", "cli.py",
)
_DET004_EXEMPT: tuple[str, ...] = ("runtime/events.py",)

#: paths exempt from DET002: benchmarking measures the real machine, and
#: the fault plan derives per-scenario seeds by design.
_DET002_EXEMPT: tuple[str, ...] = ("bench/", "cluster/faults.py")

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


def _module_path(path: str) -> str | None:
    """Path relative to the ``repro`` package, or None if outside it."""
    norm = path.replace("\\", "/")
    marker = "repro/"
    idx = norm.rfind(marker)
    if idx < 0:
        return None
    return norm[idx + len(marker):]


def _in_scope(mod: str | None, prefixes: tuple[str, ...]) -> bool:
    return mod is not None and mod.startswith(prefixes)


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str, mod: str | None):
        self.path = path
        self.mod = mod
        self.findings: list[Finding] = []
        #: import aliases of the stdlib ``time`` module
        self.time_aliases: set[str] = set()
        #: names imported *from* ``time`` -> original attribute name
        self.time_names: dict[str, str] = {}
        #: aliases of numpy itself (``np``) and of ``numpy.random``
        self.numpy_aliases: set[str] = set()
        self.npr_aliases: set[str] = set()
        #: names imported from ``numpy.random`` -> original name
        self.npr_names: dict[str, str] = {}
        #: function-scope stack; each frame holds locally-inferred set
        #: variable names for DET003
        self._scopes: list[set[str]] = [set()]
        self._hash_exempt = 0

    # -- helpers -------------------------------------------------------
    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(rule, self.path, getattr(node, "lineno", 1), message)
        )

    def _local_sets(self) -> set[str]:
        return self._scopes[-1]

    def _is_set_expr(self, node: ast.expr) -> bool:
        """Whether ``node`` syntactically produces an unordered set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set",
                                                          "frozenset"):
                return True
            if (isinstance(func, ast.Attribute)
                    and func.attr in _SET_METHODS):
                return True
        if isinstance(node, ast.Name) and node.id in self._local_sets():
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor)
        ):
            # ``a & b`` is only a set when an operand is one
            return (self._is_set_expr(node.left)
                    or self._is_set_expr(node.right))
        return False

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if not _in_scope(self.mod, DET003_SCOPE):
            return
        if self._is_set_expr(iter_node):
            self._report(
                "DET003", iter_node,
                "iteration over an unordered set: order depends on the "
                "per-process hash salt — wrap in sorted() (or restructure)"
                " before it can feed routing/partitioning/shuffle order",
            )

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if alias.name == "time":
                self.time_aliases.add(name)
            elif alias.name in ("numpy", "numpy.random"):
                if alias.name == "numpy.random" and alias.asname:
                    self.npr_aliases.add(alias.asname)
                else:
                    self.numpy_aliases.add(name)
            elif alias.name == "random" and self.mod is not None:
                if not self.mod.startswith(_DET002_EXEMPT):
                    self._report(
                        "DET002", node,
                        "stdlib 'random' is a process-global, "
                        "implicitly-seeded source; use "
                        "numpy.random.default_rng(seed)",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                self.time_names[alias.asname or alias.name] = alias.name
        elif node.module == "numpy.random":
            for alias in node.names:
                self.npr_names[alias.asname or alias.name] = alias.name
        elif node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.npr_aliases.add(alias.asname or "random")
        elif node.module == "random" and self.mod is not None:
            if not self.mod.startswith(_DET002_EXEMPT):
                self._report(
                    "DET002", node,
                    "stdlib 'random' is a process-global, implicitly-"
                    "seeded source; use numpy.random.default_rng(seed)",
                )
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

    def visit_Assign(self, node: ast.Assign) -> None:
        if (len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and self._is_set_expr(node.value)):
            self._local_sets().add(node.targets[0].id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        ann = ast.unparse(node.annotation) if node.annotation else ""
        if isinstance(node.target, ast.Name) and (
            ann.startswith(("set[", "set ", "frozenset"))
            or ann in ("set", "Set")
            or (node.value is not None and self._is_set_expr(node.value))
        ):
            self._local_sets().add(node.target.id)
        self.generic_visit(node)

    # -- iteration sites ----------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def _numpy_random_attr(self, func: ast.expr) -> str | None:
        """The ``X`` of ``np.random.X`` / ``numpy.random.X`` calls."""
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if (isinstance(base, ast.Attribute) and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in self.numpy_aliases):
            return func.attr
        if isinstance(base, ast.Name) and base.id in self.npr_aliases:
            return func.attr
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        mod = self.mod

        # DET001 — hash()/id() on routing paths
        if (isinstance(func, ast.Name) and func.id in ("hash", "id")
                and mod is not None and not self._hash_exempt):
            self._report(
                "DET001", node,
                f"built-in {func.id}() is process-salted/address-based "
                "and must not key routing, partitioning or shuffle "
                "decisions; use repro.hashing.stable_hash*",
            )

        # DET002 — unseeded numpy randomness
        if mod is not None and not mod.startswith(_DET002_EXEMPT):
            attr = self._numpy_random_attr(func)
            if attr is None and isinstance(func, ast.Name):
                attr = self.npr_names.get(func.id)
            if attr is not None:
                if attr not in _NUMPY_SEEDED_OK:
                    self._report(
                        "DET002", node,
                        f"legacy numpy.random.{attr} uses the unseeded "
                        "process-global state; use "
                        "numpy.random.default_rng(seed)",
                    )
                elif attr == "default_rng" and (
                    not node.args
                    or (isinstance(node.args[0], ast.Constant)
                        and node.args[0].value is None)
                ):
                    self._report(
                        "DET002", node,
                        "default_rng() without a seed draws OS entropy; "
                        "thread an explicit seed or Generator through",
                    )

        # DET004 — wall clock inside simulated-time regions
        if (_in_scope(mod, DET004_SCOPE)
                and mod is not None
                and not mod.startswith(_DET004_EXEMPT)):
            is_wall = False
            if (isinstance(func, ast.Attribute)
                    and func.attr in _WALL_CLOCK_ATTRS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in self.time_aliases):
                is_wall = True
            elif (isinstance(func, ast.Name)
                    and self.time_names.get(func.id) in _WALL_CLOCK_ATTRS):
                is_wall = True
            if is_wall:
                self._report(
                    "DET004", node,
                    "wall clock read inside a simulated-time region; "
                    "route real-time measurement through "
                    "repro.runtime.events.wall_timer()",
                )

        self.generic_visit(node)


def lint_source(source: str, path: str) -> list[Finding]:
    """Run DET001–DET004 over ``source`` as if it lived at ``path``.

    ``path`` determines rule scoping (see the module docstring); inline
    ``# repro: ignore[...]`` markers are honoured.  A syntax error
    yields a single ``E999`` finding.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding("E999", path, exc.lineno or 1,
                        f"source failed to parse: {exc.msg}")]
    visitor = _DeterminismVisitor(path, _module_path(path))
    visitor.visit(tree)
    return apply_suppressions(visitor.findings,
                              collect_suppressions(source))
