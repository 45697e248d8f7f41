"""The `repro check` gate: every rule positive + negative, suppression
semantics, contract verification on good and deliberately-broken apps,
counter conservation, and the self-lint (the tree itself must be clean).

Purity fixtures are source *strings* (never real classes subclassing
``PropagationApp``/``MapReduceApp`` with impure bodies) so that scanning
this test file with ``repro check tests`` stays clean.
"""

from __future__ import annotations

import ast
import json
import tokenize

import numpy as np
import pytest

from repro.analysis import contracts, counters, oocsafety, typing_gate
from repro.analysis.contracts import (
    check_array_parity,
    verify_mapreduce_app,
    verify_propagation_app,
    verify_registered_apps,
)
from repro.analysis.counters import check_counter_uses, check_registry_coverage
from repro.analysis.callgraph import build_project_index, parse_file
from repro.analysis.determinism import lint_file
from repro.analysis.findings import (
    RULES,
    Finding,
    apply_suppressions,
    collect_suppressions,
    findings_to_json,
)
from repro.analysis.runner import check_paths, check_stale_suppressions
from repro.analysis.taint import check_taint, compute_tainted
from repro.apps import (
    APP_REGISTRY,
    DegreeDistributionPropagation,
    NetworkRankingMapReduce,
    NetworkRankingPropagation,
    RecommenderPropagation,
    TwoHopFriendsPropagation,
)
from repro.apps.recommender import accepts_array
from repro.mapreduce.api import MapReduceApp
from repro.propagation.api import PropagationApp

ENGINE = "src/repro/mapreduce/engine.py"


def rules_of(findings, active_only=True):
    return sorted({f.rule for f in findings
                   if not (active_only and f.suppressed)})


def run_pass(check, src, path):
    """One per-file pass over ``src`` as if it lived at ``path``, its
    suppressions applied as the runner applies them."""
    file = parse_file(path, src)
    return apply_suppressions(check(file), {path: file.suppressions})


def lint_source(src, path):
    return run_pass(lint_file, src, path)


def check_udf_purity(src, path):
    return run_pass(contracts.check_udf_purity, src, path)


def check_ooc_safety(src, path):
    return run_pass(oocsafety.check_ooc_safety, src, path)


def check_annotations(src, path):
    return run_pass(typing_gate.check_annotations, src, path)


def collect_counter_uses(src, path):
    return counters.collect_counter_uses(parse_file(path, src))


# ---------------------------------------------------------------------------
# DET001 — salted hash()/id() routing
# ---------------------------------------------------------------------------

class TestDet001:
    def test_bare_hash_in_engine_fails(self):
        # acceptance criterion: a bare hash() in mapreduce/engine.py
        # must fail the gate with DET001
        src = "def reducer_of(key, n):\n    return hash(key) % n\n"
        assert rules_of(lint_source(src, ENGINE)) == ["DET001"]

    def test_id_flagged(self):
        src = "def route(obj, n):\n    return id(obj) % n\n"
        assert rules_of(lint_source(src, ENGINE)) == ["DET001"]

    def test_dunder_hash_exempt(self):
        src = ("class K:\n"
               "    def __hash__(self):\n"
               "        return hash((self.a, self.b))\n")
        assert lint_source(src, "src/repro/graph/digraph.py") == []

    def test_stable_hash_clean(self):
        src = ("from repro.hashing import stable_hash\n"
               "def route(key, n):\n"
               "    return stable_hash(key) % n\n")
        assert lint_source(src, ENGINE) == []

    def test_out_of_package_not_flagged(self):
        assert lint_source("x = hash('a')\n", "scripts/tool.py") == []


# ---------------------------------------------------------------------------
# DET002 — unseeded randomness
# ---------------------------------------------------------------------------

class TestDet002:
    def test_stdlib_random_import_flagged(self):
        assert rules_of(lint_source("import random\n", ENGINE)) == \
            ["DET002"]
        assert rules_of(lint_source("from random import choice\n",
                                    ENGINE)) == ["DET002"]

    def test_legacy_numpy_global_flagged(self):
        src = "import numpy as np\nx = np.random.rand(4)\n"
        assert rules_of(lint_source(src, ENGINE)) == ["DET002"]

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(lint_source(src, ENGINE)) == ["DET002"]

    def test_seeded_default_rng_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert lint_source(src, ENGINE) == []

    def test_bench_and_fault_plan_exempt(self):
        src = "import random\n"
        assert lint_source(src, "src/repro/bench/harness.py") == []
        assert lint_source(src, "src/repro/cluster/faults.py") == []


# ---------------------------------------------------------------------------
# DET003 — unordered set iteration on routing paths
# ---------------------------------------------------------------------------

class TestDet003:
    def test_set_literal_iteration_flagged(self):
        src = "def f(xs):\n    for x in {1, 2, 3}:\n        route(x)\n"
        assert rules_of(lint_source(
            src, "src/repro/partitioning/multilevel.py")) == ["DET003"]

    def test_set_variable_iteration_flagged(self):
        src = ("def f(xs):\n"
               "    pending = set(xs)\n"
               "    for x in pending:\n"
               "        route(x)\n")
        assert rules_of(lint_source(
            src, "src/repro/runtime/scheduler.py")) == ["DET003"]

    def test_comprehension_over_set_flagged(self):
        src = "def f(xs):\n    return [g(x) for x in set(xs)]\n"
        assert rules_of(lint_source(
            src, "src/repro/propagation/engine.py")) == ["DET003"]

    def test_sorted_wrapping_clean(self):
        src = ("def f(xs):\n"
               "    for x in sorted(set(xs)):\n"
               "        route(x)\n")
        assert lint_source(src, "src/repro/mapreduce/engine.py") == []

    def test_out_of_scope_tree_clean(self):
        src = "def f(xs):\n    for x in set(xs):\n        g(x)\n"
        assert lint_source(src, "src/repro/graph/analysis.py") == []

    def test_app_emission_order_flagged(self):
        # a scalar map's emission order is its shuffle's record order
        src = ("def map(self, partition, pgraph, state, emit):\n"
               "    recommended = set()\n"
               "    for v in recommended:\n"
               "        emit(v, 1)\n")
        assert rules_of(lint_source(
            src, "src/repro/apps/recommender.py")) == ["DET003"]


# ---------------------------------------------------------------------------
# DET004 — wall clock in simulated-time regions
# ---------------------------------------------------------------------------

class TestDet004:
    def test_time_time_flagged(self):
        src = "import time\nstart = time.time()\n"
        assert rules_of(lint_source(
            src, "src/repro/runtime/scheduler.py")) == ["DET004"]

    def test_from_import_alias_flagged(self):
        src = ("from time import perf_counter as pc\n"
               "def f():\n    return pc()\n")
        assert rules_of(lint_source(
            src, "src/repro/propagation/engine.py")) == ["DET004"]

    def test_events_module_is_the_sanctioned_clock(self):
        src = "import time\nx = time.perf_counter()\n"
        assert lint_source(src, "src/repro/runtime/events.py") == []

    def test_out_of_scope_clean(self):
        src = "import time\nx = time.time()\n"
        assert lint_source(src, "src/repro/bench/harness.py") == []


# ---------------------------------------------------------------------------
# Suppressions + parse errors
# ---------------------------------------------------------------------------

class TestSuppression:
    def test_matching_rule_suppressed_but_reported(self):
        src = ("def f(k, n):\n"
               "    return hash(k) % n  "
               "# repro: ignore[DET001] -- fixture\n")
        fs = lint_source(src, ENGINE)
        assert len(fs) == 1 and fs[0].suppressed

    def test_star_suppresses_everything(self):
        src = "import random  # repro: ignore[*] -- fixture\n"
        fs = lint_source(src, ENGINE)
        assert [f.suppressed for f in fs] == [True]

    def test_other_rule_marker_does_not_suppress(self):
        src = ("def f(k, n):\n"
               "    return hash(k) % n  "
               "# repro: ignore[DET004] -- wrong rule\n")
        fs = lint_source(src, ENGINE)
        assert [f.suppressed for f in fs] == [False]

    def test_marker_inside_string_ignored(self):
        src = 'msg = "# repro: ignore[DET001]"\n'
        assert collect_suppressions(src) == {}

    def test_syntax_error_reports_e999(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        report = check_paths([str(tmp_path)], contracts_pass=False)
        assert rules_of(report.findings) == ["E999"]


# ---------------------------------------------------------------------------
# Counter conservation
# ---------------------------------------------------------------------------

class TestCounterConservation:
    def test_unregistered_counter_fails(self):
        # acceptance criterion: an unregistered counter must fail CNT001
        src = ("def g(metrics):\n"
               "    metrics.add('mapreduce.bogus_counter', 1)\n")
        uses = collect_counter_uses(src, ENGINE)
        assert rules_of(check_counter_uses(uses)) == ["CNT001"]

    def test_registered_counter_clean(self):
        src = "def g(metrics):\n    metrics.add('mapreduce.rounds')\n"
        uses = collect_counter_uses(src, ENGINE)
        assert check_counter_uses(uses) == []

    def test_dynamic_prefix_families(self):
        good = "def g(m, kind):\n    m.add(f'recovery.{kind}')\n"
        bad = "def g(m, kind):\n    m.add(f'mystery.{kind}')\n"
        assert check_counter_uses(
            collect_counter_uses(good, ENGINE)) == []
        assert rules_of(check_counter_uses(
            collect_counter_uses(bad, ENGINE))) == ["CNT001"]

    def test_dict_get_not_mistaken_for_counter(self):
        src = "def g(doc):\n    return doc.get('format_version')\n"
        assert collect_counter_uses(src, ENGINE) == []

    def test_outside_package_not_collected(self):
        src = "def g(metrics):\n    metrics.add('fake.counter')\n"
        assert collect_counter_uses(src, "tests/test_x.py") == []

    def test_registered_but_never_used_fails_cnt002(self):
        uses = collect_counter_uses(
            "def g(m):\n    m.add('a.used')\n", ENGINE)
        fs = check_registry_coverage(
            uses, registered={"a.used": "x", "a.orphan": "y"})
        assert rules_of(fs) == ["CNT002"]
        assert "a.orphan" in fs[0].message


# ---------------------------------------------------------------------------
# UDF001 — purity (string fixtures only; see module docstring)
# ---------------------------------------------------------------------------

class TestUdfPurity:
    def test_io_in_transfer_flagged(self):
        src = ("class A(PropagationApp):\n"
               "    def transfer(self, u, v, state):\n"
               "        print(u)\n"
               "        return 1.0\n")
        assert rules_of(check_udf_purity(src, "src/repro/apps/a.py")) \
            == ["UDF001"]

    def test_global_module_call_flagged(self):
        src = ("class A(MapReduceApp):\n"
               "    def map(self, p, pg, state, emit):\n"
               "        emit(0, random.random())\n")
        assert rules_of(check_udf_purity(src, "src/repro/apps/a.py")) \
            == ["UDF001"]

    def test_self_mutation_flagged(self):
        src = ("class A(PropagationApp):\n"
               "    def combine(self, v, values, state):\n"
               "        self.calls += 1\n"
               "        return sum(values)\n")
        assert rules_of(check_udf_purity(src, "src/repro/apps/a.py")) \
            == ["UDF001"]

    @pytest.mark.parametrize("store", [
        "self.plans[partition] = keys",
        "self.plans[partition][0] += 1",
        "del self.plans[partition]",
    ])
    def test_item_store_on_self_flagged(self, store):
        """A plan cached in an item of ``self`` outlives its job on a
        reused app instance — stored, augmented or deleted alike."""
        src = ("class A(MapReduceApp):\n"
               "    def map_array(self, partition, pg, state):\n"
               f"        {store}\n"
               "        return None\n")
        findings = check_udf_purity(src, "src/repro/apps/a.py")
        assert rules_of(findings) == ["UDF001"]
        assert "self.plans[...]" in findings[0].message

    def test_item_store_on_state_clean(self):
        """Per-job scratch belongs in ``state.extra``, items included."""
        src = ("class A(MapReduceApp):\n"
               "    def map_array(self, partition, pg, state):\n"
               "        state.extra.setdefault('plans', {})[partition] = 1\n"
               "        state.extra['plans'][partition] += 1\n"
               "        del state.extra['plans'][partition]\n"
               "        plans = {}\n"
               "        plans[partition] = 1\n"
               "        return None\n")
        assert check_udf_purity(src, "src/repro/apps/a.py") == []

    def test_pure_udf_and_non_udf_methods_clean(self):
        src = ("class A(PropagationApp):\n"
               "    def setup(self, pg):\n"
               "        self.cache = {}\n"  # setup is not a UDF
               "        return None\n"
               "    def transfer(self, u, v, state):\n"
               "        return state.values[u]\n")
        assert check_udf_purity(src, "src/repro/apps/a.py") == []

    def test_non_app_class_ignored(self):
        src = ("class Helper:\n"
               "    def transfer(self, u, v, state):\n"
               "        print(u)\n")
        assert check_udf_purity(src, "src/repro/apps/a.py") == []


# ---------------------------------------------------------------------------
# UDF002 / PAR001 — contracts
# ---------------------------------------------------------------------------

class _NonAssociativeCombine(NetworkRankingMapReduce):
    combine_ufunc = None

    def combine(self, key, values, state):
        acc = values[0]
        for v in values[1:]:
            acc = acc - v  # subtraction: neither associative nor comm.
        return acc


class _OrderSensitiveCombine(NetworkRankingPropagation):
    merge_ufunc = None
    is_associative = False

    def combine(self, v, values, state):
        return values[0]  # whichever message happened to arrive first


class _FillerReadingCombineArray(NetworkRankingPropagation):
    def combine_array(self, vertices, folded, counts, state):
        # reads the unspecified filler of the empty bags
        return state.extra["teleport"] + folded + (counts == 0)


class _ForeignKeyReduceArray(NetworkRankingMapReduce):
    def reduce_array(self, keys, gid, values, state):
        out_keys, ranks = super().reduce_array(keys, gid, values, state)
        return out_keys + 1000, ranks  # keys no group has


class _DisagreeingReduceArray(NetworkRankingMapReduce):
    def reduce_array(self, keys, gid, values, state):
        # forgets the teleport term the scalar reduce adds
        return keys, np.bincount(gid, weights=values, minlength=keys.size)


class _CarrylessMask(RecommenderPropagation):
    def combine_array(self, vertices, folded, counts, state):
        # drops the carry: an adopter that loses the coin gets no output
        return np.ones(vertices.size, dtype=bool), accepts_array(
            vertices, state.extra["iteration"], self.probability, self.seed)


class _UnmaskedCombineArray(RecommenderPropagation):
    def combine_array(self, vertices, folded, counts, state):
        # answers every vertex, where combine returns None for some
        return np.ones(vertices.size, dtype=bool)


class _MissizedRaggedMessages(TwoHopFriendsPropagation):
    def value_nbytes(self, value):
        return 8.0 * (len(value) + 1)  # one id more than the column pays


class TestContracts:
    def test_ragged_sizing_must_match_the_closed_form(self):
        fs = verify_propagation_app(_MissizedRaggedMessages)
        assert rules_of(fs) == ["UDF002"]
        assert "value_nbytes disagrees with the ragged" in fs[0].message

    def test_reduce_array_must_emit_group_keys(self):
        fs = verify_mapreduce_app(_ForeignKeyReduceArray)
        assert rules_of(fs) == ["UDF002"]
        assert "that no group has" in fs[0].message

    def test_reduce_array_must_equal_reduce_exactly(self):
        fs = verify_mapreduce_app(_DisagreeingReduceArray)
        assert rules_of(fs) == ["UDF002"]
        assert "reduce_array disagrees with reduce" in fs[0].message

    def test_mapreduce_update_array_needs_update(self):
        class UpdateArrayOnly(MapReduceApp):
            name = "update-array-only"

            def update_array(self, state, keys, values):
                state.values[keys] = values

        fs = check_array_parity([UpdateArrayOnly],
                                "UpdateArrayOnly appears here")
        assert rules_of(fs) == ["PAR001"]
        assert "update()" in fs[0].message

    def test_combine_array_mask_must_match_combines_none(self):
        fs = verify_propagation_app(_CarrylessMask)
        assert rules_of(fs) == ["UDF002"]
        assert "masks out vertex" in fs[0].message
        fs = verify_propagation_app(_UnmaskedCombineArray)
        assert rules_of(fs) == ["UDF002"]
        assert "combine_array disagrees with combine" in fs[0].message

    def test_combine_array_must_equal_combine_exactly(self):
        fs = verify_propagation_app(_FillerReadingCombineArray)
        assert rules_of(fs) == ["UDF002"]
        assert "combine_array disagrees with combine" in fs[0].message
        assert "bag of 0" in fs[0].message

    def test_columnar_hooks_need_their_scalar_counterparts(self):
        class ColumnsOnly(PropagationApp):
            name = "columns-only"

            def combine_array(self, vertices, folded, counts, state):
                return folded

            def update_array(self, state, vertices, values):
                state.values[vertices] = values

        fs = check_array_parity([ColumnsOnly], "ColumnsOnly appears here")
        assert [f.rule for f in fs] == ["PAR001", "PAR001"]
        assert "combine()" in fs[0].message and "update()" in fs[1].message

    def test_non_associative_combine_fails(self):
        # acceptance criterion: deliberately non-associative combine
        # must fail with UDF002
        fs = verify_mapreduce_app(_NonAssociativeCombine)
        assert rules_of(fs) == ["UDF002"]
        assert any("order-sensitive" in f.message
                   or "partials" in f.message for f in fs)

    def test_order_sensitive_propagation_combine_fails(self):
        fs = verify_propagation_app(_OrderSensitiveCombine)
        assert rules_of(fs) == ["UDF002"]

    def test_vdd_virtual_combine_path_verified(self):
        # the Section 3.3 virtual-vertex path must be exercised
        # explicitly (PR 4 wired it; this is its contract coverage)
        assert verify_propagation_app(DegreeDistributionPropagation) == []

    def test_registered_apps_all_pass(self):
        assert verify_registered_apps() == []

    def test_every_registry_app_reachable_by_harness(self):
        # guards the harness itself: every registered app must yield
        # multi-value bags on the contract graph (a silent harvest
        # failure would make the whole gate vacuous)
        for name, (prop_cls, mr_cls, _) in APP_REGISTRY.items():
            assert verify_propagation_app(prop_cls) == [], name
            assert verify_mapreduce_app(mr_cls) == [], name

    def test_array_hook_without_scalar_counterpart_fails(self):
        class ArrayOnly(MapReduceApp):
            name = "array-only"

            def map_array(self, partition, pgraph, state):
                return (np.zeros(0, dtype=np.int64), np.zeros(0))

        fs = check_array_parity([ArrayOnly], "ArrayOnly appears here")
        assert rules_of(fs) == ["PAR001"]
        assert "scalar counterpart" in fs[0].message

    def test_array_hook_without_parity_test_fails(self):
        class Unregistered(NetworkRankingMapReduce):
            pass

        fs = check_array_parity([Unregistered], "no mention of it")
        assert rules_of(fs) == ["PAR001"]
        assert "parity test" in fs[0].message

    def test_array_hook_with_parity_registration_clean(self):
        fs = check_array_parity(
            [NetworkRankingMapReduce],
            "matrix includes NetworkRankingMapReduce")
        assert fs == []


# ---------------------------------------------------------------------------
# TYP001 — strict-surface annotation completeness
# ---------------------------------------------------------------------------

class TestTypingGate:
    def test_missing_annotations_flagged_in_strict_module(self):
        src = "def f(a, b):\n    return a + b\n"
        fs = check_annotations(src, "src/repro/runtime/foo.py")
        assert rules_of(fs) == ["TYP001"]
        assert "a, b, return" in fs[0].message

    def test_annotated_def_clean(self):
        src = "def f(a: int, b: int) -> int:\n    return a + b\n"
        assert check_annotations(src, "src/repro/runtime/foo.py") == []

    def test_nested_closures_exempt(self):
        src = ("def f(a: int) -> int:\n"
               "    def emit(k, v):\n"
               "        pass\n"
               "    return a\n")
        assert check_annotations(src, "src/repro/mapreduce/foo.py") == []

    def test_non_strict_module_exempt(self):
        src = "def f(a, b):\n    return a + b\n"
        assert check_annotations(src, "src/repro/apps/foo.py") == []


# ---------------------------------------------------------------------------
# DET005/DET006 — interprocedural taint over the project call graph
# ---------------------------------------------------------------------------

def parse_all(sources):
    return [parse_file(path, text) for path, text in sources.items()]


def taint_findings(sources):
    files = parse_all(sources)
    suppressions = {f.path: f.suppressions for f in files}
    return apply_suppressions(
        check_taint(build_project_index(files), suppressions),
        suppressions)


KEYS = "src/repro/util/keys.py"
ROUTE = "src/repro/core/route.py"
HELPER = "src/repro/runtime/helper.py"  # inside every DET scope


class TestDet005:
    def test_laundered_hash_reaches_call_site(self):
        # the classic hole DET001 alone cannot see: the source lives in
        # an unscoped utility module, the call site in engine scope
        fs = taint_findings({
            KEYS: "def fresh_key(obj):\n    return hash(obj)\n",
            ROUTE: ("from repro.util.keys import fresh_key\n"
                    "\n"
                    "def route(msg, n):\n"
                    "    return fresh_key(msg) % n\n"),
        })
        assert rules_of(fs) == ["DET005"]
        (f,) = fs
        assert f.path == ROUTE and f.line == 4
        assert "fresh_key" in f.message

    def test_transitive_chain_keeps_root_reason(self):
        fs = taint_findings({
            KEYS: ("def raw(obj):\n"
                   "    return hash(obj)\n"
                   "\n"
                   "def launder(obj):\n"
                   "    return raw(obj) + 1\n"),
            ROUTE: ("from repro.util.keys import launder\n"
                    "\n"
                    "def route(msg):\n"
                    "    return launder(msg)\n"),
        })
        assert any(f.rule == "DET005" and "hash()" in f.message
                   for f in fs)

    def test_suppressed_source_does_not_taint(self):
        # a reviewed, waived source is by definition not laundered
        fs = taint_findings({
            KEYS: ("def fresh_key(obj):\n"
                   "    return hash(obj)"
                   "  # repro: ignore[DET001] -- reviewed\n"),
            ROUTE: ("from repro.util.keys import fresh_key\n"
                    "\n"
                    "def route(msg, n):\n"
                    "    return fresh_key(msg) % n\n"),
        })
        assert fs == []

    def test_out_of_scope_caller_not_flagged(self):
        fs = taint_findings({
            KEYS: "def fresh_key(obj):\n    return hash(obj)\n",
            "src/repro/bench/use.py": (
                "from repro.util.keys import fresh_key\n"
                "\n"
                "def label(msg):\n"
                "    return fresh_key(msg)\n"),
        })
        assert fs == []

    def test_dunder_hash_exempt_end_to_end(self):
        fs = taint_findings({
            ROUTE: ("def key_of(obj):\n"
                    "    return hash(obj)\n"
                    "\n"
                    "class K:\n"
                    "    def __hash__(self):\n"
                    "        return key_of(self)\n"),
        })
        assert all(f.rule != "DET005" for f in fs)

    def test_set_valued_local_taints_like_the_lint_flags_it(self):
        # the lint's DET003 tracks ``s = set(xs)``; the taint pass must
        # see the same local set, or ``list(s)`` leaves helper clean
        helper = ("def helper(xs):\n"
                  "    s = set(xs)\n"
                  "    return list(s)\n")
        assert [f.rule for f in lint_source(helper, HELPER)
                if f.line == 3] == ["DET003"]
        fs = taint_findings({
            HELPER: helper,
            ROUTE: ("from repro.runtime.helper import helper\n"
                    "\n"
                    "def route(xs):\n"
                    "    return helper(xs)\n"),
        })
        assert [(f.rule, f.path, f.line) for f in fs
                if f.rule == "DET005"] == [("DET005", ROUTE, 4)]

    @pytest.mark.parametrize("binding", [
        "s: set[int] = set()", "s = {x for x in xs}", "s = {1} | set(xs)",
        "t = set(xs)\n    s = t & {1}"])
    def test_every_set_binding_the_lint_tracks_taints(self, binding):
        src = f"def helper(xs):\n    {binding}\n    return tuple(s)\n"
        tainted = compute_tainted(build_project_index(parse_all(
            {HELPER: src})))
        assert "freezes" in tainted["repro.runtime.helper.helper"]
        assert "DET003" in rules_of(lint_source(src, HELPER))

    def test_compute_tainted_reports_reason_chain(self):
        index = build_project_index(parse_all({
            KEYS: ("def raw(obj):\n"
                   "    return hash(obj)\n"
                   "\n"
                   "def launder(obj):\n"
                   "    return raw(obj)\n"),
        }))
        tainted = compute_tainted(index)
        assert "process-salted" in tainted["repro.util.keys.raw"]
        assert tainted["repro.util.keys.launder"].startswith(
            "via repro.util.keys.raw:")


class TestDet006:
    def test_wall_clock_default_flagged_package_wide(self):
        # util/ is outside every DET scope, but an import-time default
        # freezes per process — flagged anywhere in the package
        fs = taint_findings({
            KEYS: ("import time\n"
                   "\n"
                   "def stamp(t=time.time()):\n"
                   "    return t\n"),
        })
        assert "DET006" in rules_of(fs)

    def test_default_calling_tainted_function_flagged(self):
        fs = taint_findings({
            KEYS: ("def fresh():\n"
                   "    return hash(object())\n"
                   "\n"
                   "def g(k=fresh()):\n"
                   "    return k\n"),
        })
        assert any(f.rule == "DET006" and "fresh" in f.message
                   for f in fs)

    def test_keyword_only_defaults_covered(self):
        fs = taint_findings({
            KEYS: ("import time\n"
                   "\n"
                   "def stamp(*, t=time.time()):\n"
                   "    return t\n"),
        })
        assert "DET006" in rules_of(fs)

    def test_none_default_clean(self):
        fs = taint_findings({
            KEYS: ("import time\n"
                   "\n"
                   "def stamp(t=None):\n"
                   "    return time.time() if t is None else t\n"),
        })
        assert all(f.rule != "DET006" for f in fs)


# ---------------------------------------------------------------------------
# One source classifier: the DET lint and the taint pass agree
# ---------------------------------------------------------------------------

#: import form -> the calls it binds, each with the rule the DET lint
#: reports on it (None: not a nondeterminism source)
IMPORT_FORMS = {
    "import numpy as np": {
        "np.random.rand(3)": "DET002",
        "np.zeros(3)": None,
        "np.random.default_rng()": "DET002",
        "np.random.default_rng(7)": None,
        "np.random.default_rng(seed=42)": None,
        "np.random.default_rng(seed=None)": "DET002",
    },
    "import numpy.random": {
        "numpy.random.rand(3)": "DET002",
        "numpy.zeros(3)": None,
        "numpy.random.default_rng(None)": "DET002",
    },
    "import numpy.random as npr": {
        "npr.rand(3)": "DET002",
        "npr.default_rng()": "DET002",
        "npr.default_rng(seed=42)": None,
    },
    "from numpy import random": {
        "random.rand(3)": "DET002",
        "random.default_rng(1)": None,
    },
    "from numpy.random import rand": {"rand(3)": "DET002"},
    "import time as t": {
        "t.time()": "DET004",
        "t.perf_counter()": "DET004",
        "t.sleep(0)": None,
    },
    "from time import perf_counter as pc": {"pc()": "DET004"},
    "import random as rnd": {"rnd.choice(x)": "DET002"},
}
#: calls that are sources whatever the module imports
UNBOUND_SOURCES = {"hash(x)": "DET001", "id(x)": "DET001",
                   "list({x, 1})": "DET003", "tuple(set(x))": "DET003"}
CALLS = sorted({call for calls in IMPORT_FORMS.values() for call in calls}
               | set(UNBOUND_SOURCES))


class TestOneClassifier:
    @pytest.mark.parametrize("form", sorted(IMPORT_FORMS))
    @pytest.mark.parametrize("call", CALLS)
    def test_lint_and_taint_agree(self, form, call):
        """A helper's return is tainted exactly when the DET lint flags
        the same call inside a DET scope (``call`` is on line 4)."""
        rule = IMPORT_FORMS[form].get(call, UNBOUND_SOURCES.get(call))
        src = f"{form}\n\ndef helper(x):\n    return {call}\n"
        flagged = [f.rule for f in lint_source(src, HELPER) if f.line == 4]
        tainted = "repro.runtime.helper.helper" in compute_tainted(
            build_project_index(parse_all({HELPER: src})))
        assert (flagged, tainted) == ([rule] if rule else [], bool(rule))


# ---------------------------------------------------------------------------
# OOC001–OOC003 — out-of-core safety
# ---------------------------------------------------------------------------

USE = "src/repro/graph/use.py"


class TestOoc001:
    def test_asarray_over_memmap_flagged(self):
        src = ("import numpy as np\n"
               "\n"
               "def load(path):\n"
               "    a = np.load(path, mmap_mode='r')\n"
               "    return np.asarray(a)\n")
        assert rules_of(check_ooc_safety(src, USE)) == ["OOC001"]

    def test_tolist_on_shard_accessor_flagged(self):
        src = ("def dump(store, s):\n"
               "    view = store.shard_indices(s)\n"
               "    return view.tolist()\n")
        assert rules_of(check_ooc_safety(src, USE)) == ["OOC001"]

    def test_eager_load_and_plain_arrays_clean(self):
        src = ("import numpy as np\n"
               "\n"
               "def load(path):\n"
               "    a = np.load(path)\n"
               "    b = np.zeros(4)\n"
               "    return np.asarray(a) + np.asarray(b)\n")
        assert check_ooc_safety(src, USE) == []

    def test_waiver_honoured(self):
        src = ("import numpy as np\n"
               "\n"
               "def to_graph(path):\n"
               "    a = np.load(path, mmap_mode='r')\n"
               "    return np.asarray(a)"
               "  # repro: ignore[OOC001] -- documented O(m) point\n")
        fs = check_ooc_safety(src, USE)
        assert [f.rule for f in fs] == ["OOC001"]
        assert fs[0].suppressed

    def test_out_of_package_not_scanned(self):
        src = ("import numpy as np\n"
               "\n"
               "def f(p):\n"
               "    return np.asarray(np.load(p, mmap_mode='r'))\n")
        assert check_ooc_safety(src, "scripts/tool.py") == []


class TestOoc002:
    def test_write_into_ro_memmap_flagged(self):
        src = ("import numpy as np\n"
               "\n"
               "def patch(path):\n"
               "    a = np.load(path, mmap_mode='r')\n"
               "    a[0] = 1\n")
        assert rules_of(check_ooc_safety(src, USE)) == ["OOC002"]

    def test_write_into_shard_view_flagged(self):
        src = ("def zero(store, s):\n"
               "    view = store.shard_indptr(s)\n"
               "    view[:] = 0\n")
        assert rules_of(check_ooc_safety(src, USE)) == ["OOC002"]

    def test_write_through_rw_memmap_clean(self):
        src = ("import numpy as np\n"
               "\n"
               "def build(path):\n"
               "    a = np.memmap(path, dtype='int64', mode='w+',\n"
               "                  shape=(4,))\n"
               "    a[0] = 1\n")
        assert check_ooc_safety(src, USE) == []


class TestOoc003:
    def test_store_holder_without_guard_flagged(self):
        src = ("class Bad(Graph):\n"
               "    def __init__(self, store):\n"
               "        self.store = store\n")
        assert rules_of(check_ooc_safety(src, USE)) == ["OOC003"]

    def test_non_raising_accessor_flagged(self):
        src = ("class Bad(Graph):\n"
               "    def __init__(self, store):\n"
               "        self.store = store\n"
               "\n"
               "    def out_indices(self):\n"
               "        return self.store.everything()\n")
        assert rules_of(check_ooc_safety(src, USE)) == ["OOC003"]

    def test_raising_guard_clean(self):
        src = ("class Good(Graph):\n"
               "    def __init__(self, store):\n"
               "        self.store = store\n"
               "\n"
               "    @property\n"
               "    def out_indices(self):\n"
               "        raise GraphError('use out_indices_range')\n")
        assert check_ooc_safety(src, USE) == []

    def test_shard_backed_subclass_inherits_guard(self):
        src = ("class Derived(ShardBackedGraph):\n"
               "    def extra(self):\n"
               "        return 1\n")
        assert check_ooc_safety(src, USE) == []

    def test_shard_backed_subclass_unguarding_flagged(self):
        src = ("class Derived(ShardBackedGraph):\n"
               "    def out_indices(self):\n"
               "        return self.store.everything()\n")
        assert rules_of(check_ooc_safety(src, USE)) == ["OOC003"]


# ---------------------------------------------------------------------------
# SUP001 — stale suppression markers
# ---------------------------------------------------------------------------

class TestSup001:
    def test_live_marker_not_stale(self):
        findings = [Finding("DET001", "x.py", 3, "m", suppressed=True)]
        assert check_stale_suppressions(
            findings, {"x.py": {3: {"DET001"}}}) == []

    def test_stale_marker_flagged(self):
        fs = check_stale_suppressions([], {"x.py": {3: {"DET001"}}})
        assert [f.rule for f in fs] == ["SUP001"]
        assert fs[0].path == "x.py" and fs[0].line == 3
        assert not fs[0].suppressed

    def test_stale_star_marker_flagged(self):
        fs = check_stale_suppressions([], {"x.py": {3: {"*"}}})
        assert [f.rule for f in fs] == ["SUP001"]

    def test_star_cannot_waive_its_own_staleness(self):
        fs = check_stale_suppressions([], {"x.py": {3: {"*"}}})
        assert not fs[0].suppressed

    def test_explicit_sup001_marker_waives(self):
        fs = check_stale_suppressions(
            [], {"x.py": {3: {"DET001", "SUP001"}}})
        assert [f.rule for f in fs] == ["SUP001"]
        assert fs[0].suppressed

    def test_end_to_end_stale_marker_fails_gate(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "x.py").write_text(
            "X = 1  # repro: ignore[DET001] -- nothing fires here\n")
        report = check_paths([str(tmp_path)], contracts_pass=False)
        assert rules_of(report.active) == ["SUP001"]
        assert report.exit_code == 1

    def test_in_tree_markers_are_all_live(self):
        # every committed `# repro: ignore[...]` must still suppress a
        # real finding — the self-lint would fail on a stale one
        report = check_paths(["src"], contracts_pass=False)
        assert all(f.rule != "SUP001" for f in report.findings)
        suppressed_paths = {f.path for f in report.findings
                            if f.suppressed}
        assert "src/repro/runtime/checkpoint.py" in suppressed_paths
        assert "src/repro/bench/workloads.py" in suppressed_paths
        assert "src/repro/graph/store.py" in suppressed_paths


# ---------------------------------------------------------------------------
# Runner + CLI + JSON document (self-lint acceptance)
# ---------------------------------------------------------------------------

class TestRunner:
    def test_self_lint_src_is_clean(self):
        # acceptance criterion: `repro check src/` runs clean
        report = check_paths(["src"], contracts_pass=False)
        assert report.active == [], report.render()
        assert report.exit_code == 0
        assert report.registry_audited  # src covers runtime/events.py

    def test_each_file_is_tokenized_and_parsed_once(self, tmp_path,
                                                    monkeypatch):
        pkg = tmp_path / "repro" / "runtime"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text(
            "import numpy as np\n"
            "def f(xs: list) -> list:\n"
            "    return list(set(xs))\n")
        (pkg / "b.py").write_text(
            "from repro.runtime.a import f\n"
            "def g(m, xs):  # repro: ignore[TYP001] -- fixture\n"
            "    m.add('mapreduce.rounds')\n"
            "    return f(xs)\n")
        (tmp_path / "test_c.py").write_text("x = 1\n")
        calls = {"tokenize": 0, "parse": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(tokenize, "generate_tokens",
                            counted("tokenize", tokenize.generate_tokens))
        monkeypatch.setattr(ast, "parse", counted("parse", ast.parse))
        report = check_paths([str(tmp_path)], contracts_pass=False)
        assert report.files_scanned == 3
        assert rules_of(report.findings, active_only=False) == [
            "DET003", "DET005", "TYP001"]
        assert rules_of(report.active) == ["DET003", "DET005"]
        assert calls == {"tokenize": 3, "parse": 3}

    def test_partial_scan_skips_registry_coverage(self):
        report = check_paths(["src/repro/apps"], contracts_pass=False)
        assert not report.registry_audited
        assert all(f.rule != "CNT002" for f in report.findings)

    def test_cli_check_subcommand(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "findings.json"
        assert main(["check", "src", "--no-contracts",
                     "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-check/v1"
        assert doc["counts"]["findings"] == 0
        assert set(doc["rules"]) == set(RULES)

    def test_cli_check_json_reports_failures(self, tmp_path):
        from repro.cli import main

        pkg = tmp_path / "repro" / "mapreduce"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "def route(k, n):\n    return hash(k) % n\n")
        out = tmp_path / "findings.json"
        assert main(["check", str(tmp_path), "--no-contracts",
                     "--json", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-check/v1"
        assert doc["counts"]["findings"] >= 1
        assert "DET001" in {f["rule"] for f in doc["findings"]}
        # the documented rule set includes the v2 families
        assert {"DET005", "DET006", "OOC001", "OOC002", "OOC003",
                "SUP001"} <= set(doc["rules"])

    def test_findings_json_counts(self):
        fs = lint_source(
            "def f(k, n):\n    return hash(k) % n\n", ENGINE)
        doc = json.loads(findings_to_json(fs, meta={"paths": ["x"]}))
        assert doc["counts"] == {"findings": 1, "suppressed": 0}
        assert doc["findings"][0]["rule"] == "DET001"
