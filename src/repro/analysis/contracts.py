"""UDF contract verifier (UDF001 / UDF002 / PAR001).

Section 5's local combination is only sound when the app's
``combine``/``merge`` obey the contract the engine assumes: arrival
order must not matter (messages race across partitions), partial folds
shipped from remote partitions must equal the unfolded bag, and the
vectorized hooks must agree with their scalar counterparts.  The paper
*assumes* these properties of the UDFs; nothing enforced them.

Three checks, hybrid static + dynamic:

* **UDF001** (static) — purity scan over every ``PropagationApp`` /
  ``MapReduceApp`` subclass body found in a source file: UDFs
  (``transfer``/``combine``/``map``/``reduce``/``merge``/…) must not do
  I/O, touch process-global modules (``random``, ``os``, ``time``,
  ``subprocess``…), use ``global``/``nonlocal``, or mutate ``self`` —
  assign, augment or delete ``self.X`` or an item of it
  (``self.X[k] = …``): a re-executed task (fault tolerance,
  speculation) would observe the mutation from the first attempt, and a
  reused app instance carries it into the next job.  Per-job scratch
  belongs in ``VertexState.extra``, which the engines re-create on
  re-execution.
* **UDF002** (dynamic) — property checks on *real* payloads: the app's
  own ``transfer``/``map`` runs on a tiny partitioned graph and the
  harvested bags feed associativity / commutativity / partial-fold /
  ufunc-parity checks of ``combine`` and ``merge``, and are replayed
  through ``combine_array`` (exact equality with ``combine``, the
  empty bag included for ``combine_all_vertices`` apps) and
  ``reduce_array`` (exact equality with ``reduce``; output keys are
  group keys, each at most once).  Virtual-vertex
  apps (VDD) are harvested through ``virtual_transfer`` /
  ``virtual_combine`` so the Section 3.3 path is exercised explicitly.
* **PAR001** (static) — any app overriding an array fast-path hook
  (``transfer_array``, ``select_array``, ``combine_array``,
  ``update_array``, ``map_array``, ``reduce_array``,
  ``combine_ufunc``, ``merge_ufunc``) must override
  the scalar counterpart it claims to mirror *and* appear in a
  registered parity test (the fast-path suites), otherwise the
  bit-identical guarantee is unenforced.

Float comparisons use a tolerance: IEEE addition is not bitwise
associative, and the engine's guarantee is "same result up to float
re-association" for reordered partial folds.
"""

from __future__ import annotations

import ast
import inspect
from typing import Any, Callable

import numpy as np

from repro.analysis.callgraph import SourceFile
from repro.analysis.findings import Finding

__all__ = [
    "check_udf_purity",
    "check_array_parity",
    "verify_propagation_app",
    "verify_mapreduce_app",
    "verify_registered_apps",
    "make_contract_pgraph",
]

#: method names treated as UDF bodies for the purity scan
UDF_METHOD_NAMES = frozenset({
    "select", "select_array", "transfer", "transfer_array",
    "virtual_transfer", "virtual_combine", "combine", "combine_array",
    "merge", "update_array", "frontier", "map", "map_array", "reduce",
    "reduce_array",
})
_APP_BASES = frozenset({"PropagationApp", "MapReduceApp"})
_IO_CALLS = frozenset({"open", "input", "print", "exec", "eval",
                       "breakpoint"})
_IMPURE_ROOTS = frozenset({"random", "os", "sys", "time", "socket",
                           "subprocess", "shutil", "pathlib"})

_REL_TOL = 1e-9
_ABS_TOL = 1e-12

#: constructor overrides (keyed by the app's paper short name) so every
#: app produces multi-value bags on the 24-vertex contract graph — RS
#: at its default 5% initial adoption seeds a single adopter there,
#: which yields no bag to fold
_CONTRACT_KWARGS: dict[str, dict[str, Any]] = {
    "RS": {"initial_ratio": 0.6},
}


def _instantiate(cls: type) -> Any:
    return cls(**_CONTRACT_KWARGS.get(getattr(cls, "name", ""), {}))


# ---------------------------------------------------------------------------
# UDF001 — static purity scan
# ---------------------------------------------------------------------------

def _base_names(cls: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _purity_violations(method: ast.FunctionDef, path: str,
                       cls_name: str) -> list[Finding]:
    findings: list[Finding] = []

    def report(node: ast.AST, what: str) -> None:
        findings.append(Finding(
            "UDF001", path, getattr(node, "lineno", method.lineno),
            f"{cls_name}.{method.name}: {what} — UDFs re-execute under "
            "fault tolerance/speculation and must be pure (job scratch "
            "belongs in VertexState.extra)",
        ))

    for node in ast.walk(method):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            report(node, "global/nonlocal state access")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _IO_CALLS:
                report(node, f"I/O or dynamic-execution call {func.id}()")
            elif isinstance(func, ast.Attribute):
                root = func.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if (isinstance(root, ast.Name)
                        and root.id in _IMPURE_ROOTS):
                    report(node,
                           f"call into process-global module {root.id!r}")
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = ([node.target] if isinstance(node, ast.AugAssign)
                       else node.targets)
            for target in targets:
                stored = _self_store(target)
                if stored is not None:
                    verb = ("deletes" if isinstance(node, ast.Delete)
                            else "mutates")
                    report(node, f"{verb} self.{stored}")
    return findings


def _self_store(target: ast.expr) -> str | None:
    """``X`` or ``X[...]`` when ``target`` is ``self.X`` or an item of
    it (``self.X[k]``, ``self.X[k][j]``), else None."""
    item = False
    while isinstance(target, ast.Subscript):
        target, item = target.value, True
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return target.attr + ("[...]" if item else "")
    return None


def check_udf_purity(file: SourceFile) -> list[Finding]:
    """UDF001 over every app subclass defined directly in one parsed
    file."""
    findings: list[Finding] = []
    if file.tree is None:
        return findings
    for node in ast.walk(file.tree):
        if not (isinstance(node, ast.ClassDef)
                and _base_names(node) & _APP_BASES):
            continue
        for item in node.body:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in UDF_METHOD_NAMES):
                findings.extend(
                    _purity_violations(item, file.path, node.name))
    return findings


# ---------------------------------------------------------------------------
# PAR001 — array hook / scalar counterpart / parity-test registration
# ---------------------------------------------------------------------------

def _overrides(cls: type, base: type, name: str) -> bool:
    return getattr(cls, name, None) is not getattr(base, name, None)


def _cls_location(cls: type) -> tuple[str, int]:
    try:
        path = inspect.getsourcefile(cls) or "<unknown>"
        _, line = inspect.getsourcelines(cls)
    except (OSError, TypeError):
        return "<unknown>", 1
    norm = path.replace("\\", "/")
    idx = norm.rfind("/src/repro/")
    if idx >= 0:
        norm = norm[idx + 1:]
    return norm, line


def check_array_parity(classes: list[type],
                       parity_source: str) -> list[Finding]:
    """PAR001 for every app class overriding an array fast-path hook.

    ``parity_source`` is the concatenated text of the registered parity
    suites (the fast-path tests); an app whose class name never appears
    there has no bit-identical check backing its fast path.
    """
    from repro.mapreduce.api import MapReduceApp
    from repro.propagation.api import PropagationApp

    findings: list[Finding] = []
    for cls in classes:
        if issubclass(cls, PropagationApp):
            base: type = PropagationApp
            hook_pairs = [("transfer_array", "transfer"),
                          ("select_array", "select"),
                          ("combine_array", "combine"),
                          ("update_array", "update")]
            ufunc_pairs = [("merge_ufunc", "merge")]
        elif issubclass(cls, MapReduceApp):
            base = MapReduceApp
            hook_pairs = [("map_array", "map"), ("reduce_array", "reduce"),
                          ("update_array", "update")]
            ufunc_pairs = [("combine_ufunc", "combine")]
        else:
            continue
        path, line = _cls_location(cls)
        overridden: list[tuple[str, str]] = []
        for hook, scalar in hook_pairs:
            if _overrides(cls, base, hook):
                overridden.append((hook, scalar))
        for attr, scalar in ufunc_pairs:
            if getattr(cls, attr, None) is not None:
                overridden.append((attr, scalar))
        if not overridden:
            continue
        for hook, scalar in overridden:
            if not _overrides(cls, base, scalar):
                findings.append(Finding(
                    "PAR001", path, line,
                    f"{cls.__name__} defines {hook} without overriding "
                    f"the scalar counterpart {scalar}(); the fast path "
                    "has no reference semantics to be bit-identical to",
                ))
        if cls.__name__ not in parity_source:
            hooks = ", ".join(h for h, _ in overridden)
            findings.append(Finding(
                "PAR001", path, line,
                f"{cls.__name__} defines array hook(s) {hooks} but is "
                "not exercised by a registered parity test (the "
                "fast-path suites); add it to the scalar-vs-array "
                "parity matrix",
            ))
    return findings


# ---------------------------------------------------------------------------
# UDF002 — dynamic property checks on harvested payloads
# ---------------------------------------------------------------------------

def _approx_eq(a: Any, b: Any) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        if a_arr.shape != b_arr.shape:
            return False
        if a_arr.dtype.kind in "fc" or b_arr.dtype.kind in "fc":
            return bool(np.allclose(a_arr, b_arr,
                                    rtol=_REL_TOL, atol=_ABS_TOL))
        return bool(np.array_equal(a_arr, b_arr))
    if isinstance(a, bool) or isinstance(b, bool):
        return bool(a) == bool(b)
    if isinstance(a, (int, float, np.integer, np.floating)) and isinstance(
            b, (int, float, np.integer, np.floating)):
        return bool(np.isclose(float(a), float(b),
                               rtol=_REL_TOL, atol=_ABS_TOL))
    if isinstance(a, (set, frozenset)) and isinstance(b, (set, frozenset)):
        return a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(_approx_eq(a[k], b[k]) for k in a))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return (len(a) == len(b)
                and all(_approx_eq(x, y) for x, y in zip(a, b)))
    return bool(a == b)


def make_contract_pgraph() -> Any:
    """The tiny graph every contract check harvests payloads from.

    Symmetrized Erdős–Rényi: every app (including the undirected ones —
    TC, TFL, CC) is well-defined on it, and mean in-degree ~10 gives
    every destination a real multi-value bag to fold.
    """
    from repro.core.partitioned import PartitionedGraph
    from repro.graph.generators import erdos_renyi

    graph = erdos_renyi(24, 120, seed=5).symmetrized()
    parts = np.arange(graph.num_vertices, dtype=np.int64) % 3
    return PartitionedGraph(graph, parts, 3)


def _rich_groups(groups: dict[Any, list[Any]]) -> list[tuple[Any, list[Any]]]:
    """Up to four (key, bag) pairs with the largest bags first."""
    ordered = sorted(groups.items(),
                     key=lambda kv: (-len(kv[1]), str(kv[0])))
    return [(k, vals) for k, vals in ordered if len(vals) >= 2][:4]


def _fold(merge: Callable[[Any, Any], Any], values: list[Any]) -> Any:
    acc = values[0]
    for v in values[1:]:
        acc = merge(acc, v)
    return acc


def _rotate(values: list[Any]) -> list[Any]:
    return values[1:] + values[:1]


def _check_frontier_contract(cls: type, app: Any, state: Any,
                             pgraph: Any, path: str,
                             line: int) -> list[Finding]:
    """The frontier API contract: ``frontier()`` is a bool mask over all
    vertices that agrees with per-vertex ``select`` (and ``select_array``
    where overridden) — the engine's sparse mode routes exactly the
    message set the dense mode would, so any disagreement silently
    changes results between modes."""
    from repro.propagation.api import PropagationApp

    findings: list[Finding] = []

    def fail(what: str) -> None:
        findings.append(Finding(
            "UDF002", path, line, f"{cls.__name__}: {what}"))

    try:
        mask = np.asarray(app.frontier(state))
        if mask.dtype != np.bool_ or mask.shape != (pgraph.num_vertices,):
            fail("frontier() must return a bool mask of shape "
                 f"(num_vertices,); got dtype {mask.dtype}, "
                 f"shape {mask.shape}")
            return findings
        for u in range(pgraph.num_vertices):
            if bool(app.select(int(u), state)) != bool(mask[u]):
                fail(f"frontier() disagrees with select() at vertex {u}; "
                     "frontier and dense mode would route different "
                     "message sets")
                break
        if cls.select_array is not PropagationApp.select_array:
            verts = np.arange(pgraph.num_vertices, dtype=np.int64)
            got = np.asarray(app.select_array(verts, state))
            if not np.array_equal(got.astype(bool), mask):
                fail("frontier() disagrees with select_array() over the "
                     "full vertex range")
    except Exception as exc:  # noqa: BLE001 - report, don't crash the gate
        fail(f"frontier contract check raised ({exc!r})")
    return findings


def _is_id_list(value: Any) -> bool:
    return isinstance(value, (tuple, list, set, frozenset))


def _column(values: list[Any]) -> Any:
    """Harvested values as the engines carry them: a ragged column for
    id lists, an ndarray otherwise."""
    from repro.fold import Ragged

    if values and _is_id_list(values[0]):
        return Ragged.from_rows(values)
    return np.asarray(values)


def _rows(column: Any) -> list[Any]:
    return column.tolist() if hasattr(column, "tolist") else list(column)


def _same(want: Any, got: Any) -> bool:
    """Exact equality of a scalar result with its columnar twin; a set
    equals a ragged row that lists each of its ids once."""
    if isinstance(want, (set, frozenset)):
        return len(got) == len(want) and set(got) == want
    return bool(want == got)


def _check_ragged_bytes(what: str, pairs: list[tuple[Any, float]],
                        header: int, fail: Callable[[str], None]) -> None:
    """The closed-form ragged charge — ``header + VALUE_BYTES·len`` per
    id list — must equal the scalar sizing hook on every ``(value,
    scalar bytes)`` pair, or the two paths price the same job apart."""
    from repro.graph.io import VALUE_BYTES

    for value, scalar in pairs:
        closed = float(header + VALUE_BYTES * len(value))
        if scalar != closed:
            fail(f"{what} disagrees with the ragged closed-form charge on "
                 f"{value!r}: {scalar!r} vs {closed!r} "
                 f"({header} + {VALUE_BYTES}·len)")
            return


def _check_combine_array(cls: type, app: Any, state: Any,
                         groups: dict[Any, list[Any]], pgraph: Any,
                         fail: Callable[[str], None]) -> None:
    """``combine_array`` must equal ``combine`` *exactly* on the
    harvested bags — folded in arrival order by ``merge_ufunc``, as the
    engine's Combine stage folds them — and, for
    ``combine_all_vertices`` apps, on the empty bag of every vertex.  A
    ``(values, present)`` answer is replayed as "None is a mask":
    ``present`` must be False exactly where ``combine`` returns None."""
    from repro.fold import RECORD_HEADER, Ragged, fold_by_dest

    ufunc = getattr(cls, "merge_ufunc", None)
    if ufunc is None:
        fail("defines combine_array without merge_ufunc; the engine has "
             "nothing to fold the arrivals with")
        return
    bags = sorted(groups.items())
    values = _column([x for _, bag in bags for x in bag])
    vertices, folded, counts = fold_by_dest(
        np.repeat([v for v, _ in bags], [len(bag) for _, bag in bags]),
        values, ufunc)
    cases = [(vertices, folded, counts, [bag for _, bag in bags])]
    if cls.combine_all_vertices:
        n = pgraph.num_vertices
        filler = (Ragged(np.zeros(n + 1, dtype=np.int64), values.flat[:0])
                  if isinstance(values, Ragged)
                  else np.zeros(n, dtype=values.dtype))
        cases.append((np.arange(n), filler,
                      np.zeros(n, dtype=counts.dtype), [[]] * n))
    for vertices, folded, counts, case_bags in cases:
        got = app.combine_array(vertices, folded, counts, state)
        if got is None:
            continue  # declined: the engine hands combine the bags
        present = np.ones(vertices.size, dtype=bool)
        if isinstance(got, tuple):
            got, present = got[0], np.asarray(got[1], dtype=bool)
        if isinstance(got, Ragged):
            _check_ragged_bytes(
                "result_nbytes",
                [(row, app.result_nbytes(v, app.combine(v, list(bag),
                                                        state)))
                 for v, bag, row, kept in zip(vertices.tolist(), case_bags,
                                              got.tolist(), present)
                 if kept],
                RECORD_HEADER, fail)
        for v, bag, g, kept in zip(vertices.tolist(), case_bags, _rows(got),
                                   present.tolist()):
            want = app.combine(v, list(bag), state)
            if not kept:
                if want is not None:
                    fail(f"combine_array masks out vertex {v}, where "
                         f"combine returns {want!r}")
                    break
                continue
            if want is None or not _same(want, g):
                fail(f"combine_array disagrees with combine at vertex "
                     f"{v} (bag of {len(bag)}): {want!r} vs {g!r}")
                break


def verify_propagation_app(cls: type, pgraph: Any = None) -> list[Finding]:
    """UDF002 checks for one ``PropagationApp`` subclass.

    Harvests real messages by running the app's own ``transfer`` (or
    ``virtual_transfer`` for virtual-vertex apps — VDD's Section 3.3
    path) over ``pgraph``, then property-checks the fold UDFs on the
    harvested bags.  An app that folds ragged id lists (``merge_ufunc``
    one of :data:`~repro.fold.RAGGED_FOLDS`) also has its scalar sizing
    hooks checked against the closed-form ragged charges.
    """
    from repro.fold import MESSAGE_HEADER, RAGGED_FOLDS, fold_by_dest
    from repro.propagation.api import PropagationApp, message_nbytes

    if pgraph is None:
        pgraph = make_contract_pgraph()
    path, line = _cls_location(cls)
    findings: list[Finding] = []

    def fail(what: str) -> None:
        findings.append(Finding(
            "UDF002", path, line, f"{cls.__name__}: {what}"))

    try:
        app = _instantiate(cls)
        state = app.setup(pgraph)
        groups: dict[Any, list[Any]] = {}
        if getattr(cls, "uses_virtual_vertices", False):
            for u in range(pgraph.num_vertices):
                for key, val in app.virtual_transfer(int(u), state):
                    groups.setdefault(key, []).append(val)

            def combine(k: Any, vals: list[Any]) -> Any:
                return app.virtual_combine(k, vals, state)
        else:
            def harvest() -> dict[Any, list[Any]]:
                out: dict[Any, list[Any]] = {}
                for p in range(pgraph.num_parts):
                    src, dst = pgraph.partition_edges(p)
                    for u, v in zip(src.tolist(), dst.tolist()):
                        if not app.select(int(u), state):
                            continue
                        val = app.transfer(int(u), int(v), state)
                        if val is not None:
                            out.setdefault(int(v), []).append(val)
                return out

            groups = harvest()
            if getattr(cls, "uses_frontier", False):
                # frontier apps may start with a near-empty active set
                # (BFS: one source), so the first round rarely yields a
                # multi-value bag — advance real rounds through the
                # app's own combine/update until one appears
                for _ in range(6):
                    if _rich_groups(groups):
                        break
                    combined = {v: app.combine(int(v), list(bag), state)
                                for v, bag in sorted(groups.items())}
                    app.update(state, combined)
                    groups = harvest()

            def combine(k: Any, vals: list[Any]) -> Any:
                return app.combine(k, vals, state)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the gate
        fail(f"contract harness failed to harvest payloads ({exc!r})")
        return findings

    if getattr(cls, "uses_frontier", False):
        findings.extend(_check_frontier_contract(cls, app, state, pgraph,
                                                 path, line))

    rich = _rich_groups(groups)
    if not rich:
        fail("no destination received 2+ messages on the contract "
             "graph; the fold contract cannot be checked")
        return findings

    if cls.combine_array is not PropagationApp.combine_array:
        try:
            _check_combine_array(cls, app, state, groups, pgraph, fail)
        except Exception as exc:  # noqa: BLE001
            fail(f"combine_array contract check raised ({exc!r})")

    has_merge = cls.merge is not PropagationApp.merge
    merge_ufunc = getattr(cls, "merge_ufunc", None)
    is_assoc = bool(getattr(cls, "is_associative", False))
    if is_assoc and not has_merge:
        fail("declares is_associative=True but does not override "
             "merge(); local combination would crash")
    ragged = merge_ufunc in RAGGED_FOLDS
    if ragged:
        # every message, raw or merged by local combination, is charged
        # in closed form on the array path
        messages = [x for bag in groups.values() for x in bag]
        if has_merge:
            messages += [_fold(app.merge, vals) for _, vals in rich]
        _check_ragged_bytes(
            "value_nbytes",
            [(x, message_nbytes(app, x)) for x in messages],
            MESSAGE_HEADER, fail)

    for key, vals in rich:
        try:
            base = combine(key, list(vals))
            # arrival order must not matter: messages race across
            # partition boundaries
            for perm in (list(reversed(vals)), _rotate(vals)):
                got = combine(key, perm)
                if not _approx_eq(base, got):
                    fail(f"combine is order-sensitive at key {key!r}: "
                         f"{base!r} vs {got!r} under reordering")
                    break
            if has_merge and is_assoc:
                a, b, c = (vals + vals)[:3]
                left = app.merge(app.merge(a, b), c)
                right = app.merge(a, app.merge(b, c))
                if not _approx_eq(left, right):
                    fail(f"merge is not associative at key {key!r}: "
                         f"{left!r} vs {right!r}")
                # commutativity modulo combine: shipping partials in
                # either order must yield the same combined value
                fwd = combine(key, [app.merge(a, b)])
                rev = combine(key, [app.merge(b, a)])
                if not _approx_eq(fwd, rev):
                    fail(f"merge order leaks through combine at key "
                         f"{key!r}: {fwd!r} vs {rev!r}")
                # partial-fold soundness (Section 5 local combination):
                # folding any split locally then combining the partials
                # must equal combining the raw bag
                mid = max(1, len(vals) // 2)
                split = combine(key, [_fold(app.merge, vals[:mid]),
                                      _fold(app.merge, vals[mid:])])
                if not _approx_eq(base, split):
                    fail(f"local combination changes the result at key "
                         f"{key!r}: {base!r} vs {split!r}")
            if merge_ufunc is not None and has_merge:
                a, b = vals[0], vals[1]
                want = app.merge(a, b)
                if ragged:
                    _, merged, _ = fold_by_dest(
                        np.zeros(2, dtype=np.int64), _column([a, b]),
                        merge_ufunc)
                    got = merged.tolist()[0]
                    same = _same(want, got)
                else:
                    got = merge_ufunc(a, b)
                    same = _approx_eq(want, got)
                if not same:
                    fail(f"merge_ufunc disagrees with merge at key "
                         f"{key!r}: {want!r} vs {got!r}")
        except Exception as exc:  # noqa: BLE001
            fail(f"contract check raised at key {key!r} ({exc!r})")
    return findings


def _check_reduce_array(
    app: Any, state: Any, records: list[tuple[Any, Any]],
    groups: dict[Any, list[Any]],
    run_reduce: Callable[[Any, list[Any]], list[tuple[Any, Any]]],
    fail: Callable[[str], None],
) -> None:
    """``reduce_array`` must emit *exactly* the scalar ``reduce`` pairs
    of every harvested group — replayed in arrival order through
    :func:`~repro.fold.group_ids`, as a reducer does — with each output
    key one of the group keys, at most once: the engine writes the
    concatenated columns straight into the state.  Ragged output values
    are charged in closed form, so ``output_nbytes`` must agree with
    that charge on every scalar output."""
    from repro.fold import RECORD_HEADER, Ragged, group_ids

    if not records:
        return
    keys = np.asarray([k for k, _ in records])
    values = _column([v for _, v in records])
    uniq, gid, _ = group_ids(keys)
    out = app.reduce_array(uniq, gid, values, state)
    if out is None:
        return  # declined: the engine hands reduce the bags
    out_keys, out_values = out
    want = [pair for key in uniq.tolist()
            for pair in run_reduce(key, list(groups[key]))]
    if isinstance(out_values, Ragged):
        _check_ragged_bytes(
            "output_nbytes",
            [(value, app.output_nbytes(key, value)) for key, value in want],
            RECORD_HEADER, fail)
    got: dict[Any, Any] = {}
    for key, value in zip(np.asarray(out_keys).tolist(), _rows(out_values)):
        if key not in groups or key in got:
            what = "twice" if key in got else "that no group has"
            fail(f"reduce_array emits key {key!r} {what}; its columns are "
                 "written into the state as they are, so output keys "
                 "must be group keys, each once")
            return
        got[key] = value
    for key, value in want:
        if key not in got or not _same(value, got[key]):
            fail(f"reduce_array disagrees with reduce at key {key!r} "
                 f"(bag of {len(groups.get(key, []))}): {value!r} vs "
                 f"{got.get(key)!r}")
            return
    if len(got) != len(want):
        fail(f"reduce_array emits {len(got)} pairs where reduce emits "
             f"{len(want)}")


def verify_mapreduce_app(cls: type, pgraph: Any = None) -> list[Finding]:
    """UDF002 checks for one ``MapReduceApp`` subclass.

    Runs the app's own ``map`` over every partition, groups the emitted
    pairs by key, replays every group through ``reduce_array`` (exact
    equality with ``reduce``; output keys drawn from the group keys,
    each at most once), then property-checks ``combine`` (map-side
    combiner contract) and ``reduce`` (arrival-order insensitivity) on
    the harvested bags.  Ragged columns out of ``map_array`` or
    ``reduce_array`` also have the scalar sizing hooks checked against
    the closed-form ragged charges.
    """
    from repro.fold import MESSAGE_HEADER, Ragged
    from repro.mapreduce.api import MapReduceApp, kv_nbytes

    if pgraph is None:
        pgraph = make_contract_pgraph()
    path, line = _cls_location(cls)
    findings: list[Finding] = []

    def fail(what: str) -> None:
        findings.append(Finding(
            "UDF002", path, line, f"{cls.__name__}: {what}"))

    try:
        app = _instantiate(cls)
        state = app.setup(pgraph)
        records: list[tuple[Any, Any]] = []
        for p in range(pgraph.num_parts):
            app.map(p, pgraph, state,
                    lambda k, v: records.append((k, v)))
        groups: dict[Any, list[Any]] = {}
        for k, v in records:
            groups.setdefault(k, []).append(v)
    except Exception as exc:  # noqa: BLE001
        fail(f"contract harness failed to harvest payloads ({exc!r})")
        return findings

    def run_reduce(key: Any, vals: list[Any]) -> list[tuple[Any, Any]]:
        out: list[tuple[Any, Any]] = []
        app.reduce(key, vals, state, lambda k, v: out.append((k, v)))
        return out

    if cls.reduce_array is not MapReduceApp.reduce_array:
        try:
            _check_reduce_array(app, state, records, groups, run_reduce,
                                fail)
        except Exception as exc:  # noqa: BLE001
            fail(f"reduce_array contract check raised ({exc!r})")
    if cls.map_array is not MapReduceApp.map_array:
        try:
            # a ragged map_array column is shuffled at the closed-form
            # charge, which every scalar record's size must equal
            if any(isinstance((app.map_array(p, pgraph, state)
                               or (None, None))[1], Ragged)
                   for p in range(pgraph.num_parts)):
                _check_ragged_bytes(
                    "value_nbytes",
                    [(v, kv_nbytes(app, k, v)) for k, v in records],
                    MESSAGE_HEADER, fail)
        except Exception as exc:  # noqa: BLE001
            fail(f"map_array sizing check raised ({exc!r})")

    rich = _rich_groups(groups)
    if not rich:
        fail("no key received 2+ mapped values on the contract graph; "
             "the combiner contract cannot be checked")
        return findings

    has_combine = cls.combine is not MapReduceApp.combine
    combine_ufunc = getattr(cls, "combine_ufunc", None)
    if combine_ufunc is not None and not has_combine:
        fail("sets combine_ufunc without overriding combine(); the "
             "scalar combiner path would crash")

    for key, vals in rich:
        try:
            # reduce must not depend on shuffle arrival order
            base_out = run_reduce(key, list(vals))
            for perm in (list(reversed(vals)), _rotate(vals)):
                got_out = run_reduce(key, perm)
                if not _approx_eq(base_out, got_out):
                    fail(f"reduce is order-sensitive at key {key!r}: "
                         f"{base_out!r} vs {got_out!r} under reordering")
                    break
            if has_combine:
                base = app.combine(key, list(vals), state)
                for perm in (list(reversed(vals)), _rotate(vals)):
                    got = app.combine(key, perm, state)
                    if not _approx_eq(base, got):
                        fail(f"combine is order-sensitive at key {key!r}"
                             f": {base!r} vs {got!r} under reordering")
                        break
                mid = max(1, len(vals) // 2)
                split = app.combine(key, [
                    app.combine(key, vals[:mid], state),
                    app.combine(key, vals[mid:], state),
                ], state)
                if not _approx_eq(base, split):
                    fail(f"combining combined partials changes the "
                         f"result at key {key!r}: {base!r} vs {split!r}")
                if combine_ufunc is not None:
                    got = _fold(combine_ufunc, list(vals))
                    if not _approx_eq(base, got):
                        fail(f"combine_ufunc left-fold disagrees with "
                             f"combine at key {key!r}: {base!r} vs "
                             f"{got!r}")
        except Exception as exc:  # noqa: BLE001
            fail(f"contract check raised at key {key!r} ({exc!r})")
    return findings


def verify_registered_apps() -> list[Finding]:
    """Run UDF002 + PAR001 over every registered app (both registries),
    PAR001 against the concatenated fast-path parity suites found next
    to the installed tree."""
    from repro.apps import APP_REGISTRY, EXTENSION_APPS

    prop_classes: list[type] = []
    mr_classes: list[type] = []
    for prop_cls, mr_cls, _ in APP_REGISTRY.values():
        prop_classes.append(prop_cls)
        mr_classes.append(mr_cls)
    for prop_cls, mr_cls in EXTENSION_APPS.values():
        if prop_cls is not None:
            prop_classes.append(prop_cls)
        if mr_cls is not None:
            mr_classes.append(mr_cls)

    pgraph = make_contract_pgraph()
    findings: list[Finding] = []
    for cls in prop_classes:
        findings.extend(verify_propagation_app(cls, pgraph))
    for cls in mr_classes:
        findings.extend(verify_mapreduce_app(cls, pgraph))
    findings.extend(
        check_array_parity(prop_classes + mr_classes,
                           _default_parity_source()))
    return findings


#: test files that count as registered scalar-vs-array parity suites
PARITY_SUITES: tuple[str, ...] = (
    "tests/test_transfer_fastpath.py",
    "tests/test_mr_fastpath.py",
    "tests/test_frontier_traversal.py",
    "tests/test_properties.py",
    "tests/test_rs_tfl_arrays.py",
)


def _default_parity_source() -> str:
    import os

    import repro

    repo_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))))
    chunks: list[str] = []
    for rel in PARITY_SUITES:
        candidate = os.path.join(repo_root, *rel.split("/"))
        try:
            with open(candidate, encoding="utf-8") as fh:
                chunks.append(fh.read())
        except OSError:
            continue
    return "\n".join(chunks)
