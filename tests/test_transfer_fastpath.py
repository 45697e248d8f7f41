"""Vectorized Transfer fast path: equivalence, routing determinism,
and the shipped-message accounting regression.

The scalar per-edge path is the oracle: the array path must reproduce its
results, message counts, byte counts and task costs *bit for bit* at
every optimization level (see docs/COST_MODEL.md for the contract).
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.apps import (BreadthFirstSearchPropagation,
                        NetworkRankingPropagation,
                        ReverseLinkGraphPropagation)
from repro.apps.connected_components import ConnectedComponentsPropagation
from repro.apps.recommender import RecommenderPropagation
from repro.cluster import FaultPlan
from repro.core.range_plan import contiguous_range_plan
from repro.core.surfer import Surfer
from repro.errors import JobError
from repro.fold import Grouping, bags, object_column
from repro.graph.generators import composite_social_graph
from repro.graph.store import build_shard_store, open_shard_graph
from repro.graph.stream import stream_rmat
from repro.hashing import stable_hash
from repro.propagation.api import PropagationApp, fold_by_dest
from repro.propagation.engine import virtual_partition
from repro.runtime.checkpoint import CheckpointPolicy
from repro.runtime.events import reconcile
from tests.conftest import (ArrivalOrderApp, fold_with, make_test_cluster,
                            scalar_only)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


# ----------------------------------------------------------------------
# CSR slice gathering
# ----------------------------------------------------------------------
class TestOutEdgesOf:
    def test_matches_scan_order(self, small_graph):
        verts = np.array([5, 0, 17, 100, 3], dtype=np.int64)
        src, dst = small_graph.out_edges_of(verts)
        expected = [
            (int(u), int(v))
            for u in verts
            for v in small_graph.out_neighbors(int(u))
        ]
        assert list(zip(src.tolist(), dst.tolist())) == expected

    def test_empty_subset(self, small_graph):
        src, dst = small_graph.out_edges_of(np.zeros(0, dtype=np.int64))
        assert src.size == 0 and dst.size == 0

    def test_full_graph_matches_edges(self, small_graph):
        src, dst = small_graph.out_edges_of(
            np.arange(small_graph.num_vertices)
        )
        assert np.array_equal(src, small_graph.edge_sources())
        assert np.array_equal(dst, small_graph.out_indices)


# ----------------------------------------------------------------------
# Order-exact array folding and box construction
# ----------------------------------------------------------------------
class TestFoldByDest:
    def test_float_add_is_bit_identical_to_scalar_fold(self):
        rng = np.random.default_rng(11)
        dests = rng.integers(0, 40, 5000)
        values = rng.random(5000)
        oracle: dict[int, float] = {}
        for d, v in zip(dests, values):
            d = int(d)
            oracle[d] = oracle[d] + v if d in oracle else v
        uniq, merged, counts = fold_by_dest(dests, values, np.add)
        assert uniq.tolist() == sorted(oracle)
        for d, m in zip(uniq.tolist(), merged):
            assert m == oracle[d]  # exact, not approx
        assert int(counts.sum()) == 5000

    def test_minimum_fold(self):
        dests = np.array([3, 1, 3, 1, 3])
        values = np.array([5, 9, 2, 4, 7], dtype=np.int64)
        uniq, merged, counts = fold_by_dest(dests, values, np.minimum)
        assert uniq.tolist() == [1, 3]
        assert merged.tolist() == [4, 2]
        assert counts.tolist() == [2, 3]


    def test_empty_input_gives_typed_empties(self):
        uniq, merged, counts = fold_by_dest(
            np.zeros(0, dtype=np.int32), np.zeros(0, dtype=bool),
            np.logical_or)
        assert uniq.size == merged.size == counts.size == 0
        assert (uniq.dtype, merged.dtype) == (np.int32, np.bool_)
        assert counts.dtype.kind == "i"


def _bags(dests, values):
    """``{key: bag}`` from :func:`repro.fold.bags` over ``dests``'
    grouping, in grouping order."""
    grouping = Grouping(dests, ranked=True)
    return dict(zip(grouping.uniq.tolist(), bags(grouping, values)))


class TestFromArrays:
    """The column -> bag helper and the fold kernel against a
    dict-of-lists reference and a ``functools.reduce`` left fold."""

    @staticmethod
    def _bags_by_dict(dests, values):
        """Per-destination bags in arrival order, first arrival first."""
        bags: dict = {}
        for d, v in zip(dests.tolist(), values.tolist()):
            bags.setdefault(d, []).append(v)
        return bags

    def test_bags_match_add_sequence(self):
        dests = np.array([2, 1, 2, 2, 1])
        values = np.array([10, 20, 30, 40, 50])
        reference = self._bags_by_dict(dests, values)
        bags = _bags(dests, values)
        assert list(bags) == sorted(reference)
        assert bags == reference
        assert _bags(dests[:0], values[:0]) == {}

    def test_merged_match_add_sequence(self):
        rng = np.random.default_rng(5)
        dests = rng.integers(0, 10, 300)
        values = rng.random(300)
        bags = self._bags_by_dict(dests, values)
        reference = {d: functools.reduce(lambda a, b: a + b, bag)
                     for d, bag in bags.items()}
        for uniq, merged, counts in (
                fold_by_dest(dests, values, np.add),
                fold_with("counting", dests, values, np.add),
                fold_with("sorted", dests, values, np.add),
                fold_by_dest(dests, values, lambda a, b: a + b)):
            assert uniq.tolist() == sorted(reference)
            assert merged.tolist() == [reference[d]  # bitwise
                                       for d in uniq.tolist()]
            assert counts.tolist() == [len(bags[d]) for d in uniq.tolist()]

    def test_object_keys_group_by_first_arrival(self):
        """Virtual keys may mix ``int`` and ``str``: no sort orders
        them, so they group in first-arrival order, as a dict does."""
        dests = object_column([1, "1", 2, 1, "1", ("t", 1)])
        values = object_column([(1,), (2,), (3,), (4,), (5,), (6,)])
        reference = self._bags_by_dict(dests, values)
        assert list(_bags(dests, values).items()) == list(reference.items())
        uniq, merged, counts = fold_by_dest(dests, values,
                                            lambda a, b: a + b)
        assert uniq.tolist() == list(reference)
        assert merged.tolist() == [functools.reduce(lambda a, b: a + b, bag)
                                   for bag in reference.values()]
        assert counts.tolist() == [2, 2, 1, 1]


# ----------------------------------------------------------------------
# Scalar vs. vectorized engine equivalence
# ----------------------------------------------------------------------
def _job_signature(job):
    reports = [
        (r.messages_emitted, r.messages_shipped, r.network_bytes,
         r.spill_bytes, r.locally_propagated)
        for r in job.reports
    ]
    tasks = [
        (e.task.name, e.task.cpu_ops, e.task.disk_read_bytes,
         e.task.disk_write_bytes, tuple(e.task.sends),
         tuple(e.task.receives), e.task.disk_penalty)
        for e in job.events.task_spans()
    ]
    metrics = (job.metrics.network_bytes, job.metrics.disk_bytes,
               job.metrics.response_time)
    return reports, tasks, metrics


class TestFastPathEquivalence:
    @pytest.fixture(scope="class")
    def graph(self):
        return composite_social_graph(
            num_communities=8, community_size=64, k=5, seed=9
        )

    @pytest.mark.parametrize("local_opts", [True, False])
    @pytest.mark.parametrize("app_name", ["NR", "CC", "RS"])
    def test_bit_identical_products(self, graph, app_name, local_opts):
        apps = {
            "NR": (NetworkRankingPropagation, graph),
            "CC": (ConnectedComponentsPropagation, graph.symmetrized()),
            "RS": (RecommenderPropagation, graph),
        }
        app_cls, g = apps[app_name]
        surfer = Surfer(g, make_test_cluster(4), num_parts=8, seed=3)
        scalar = surfer.run_propagation(app_cls(), iterations=3,
                                        local_opts=local_opts,
                                        vectorized=False)
        fast = surfer.run_propagation(app_cls(), iterations=3,
                                      local_opts=local_opts,
                                      vectorized=True)
        assert np.array_equal(np.asarray(scalar.result),
                              np.asarray(fast.result))
        assert _job_signature(scalar) == _job_signature(fast)

    def test_shard_backed_graph(self, tmp_path):
        """Columns gathered from memmapped shards, partitions == shards."""
        build_shard_store(stream_rmat(9, edge_factor=6, seed=4),
                          tmp_path / "store", num_shards=4)
        g = open_shard_graph(tmp_path / "store")
        cluster = make_test_cluster(4)
        plan = contiguous_range_plan(g, cluster.topology, 4, seed=4,
                                     offsets=g.store.vertex_starts)
        surfer = Surfer(g, cluster, seed=4, plan=plan)
        for make, kwargs in ((NetworkRankingPropagation, {}),
                             (BreadthFirstSearchPropagation,
                              {"frontier": True})):
            scalar, fast = (
                surfer.run_propagation(make(), iterations=3,
                                       vectorized=vectorized, **kwargs)
                for vectorized in (False, True))
            assert np.array_equal(scalar.result, fast.result)
            assert _job_signature(scalar) == _job_signature(fast)

    def test_kill_and_checkpoint_restart(self, graph):
        """Total loss of a partition mid-job: both paths restart from
        the same checkpoint and pay the same recovery."""
        def run(vectorized):
            surfer = Surfer(graph, make_test_cluster(4), num_parts=8,
                            seed=3, replication=1)
            faults = FaultPlan().add_kill(surfer.store.primary(0), 1.0)
            return surfer.run_propagation(
                NetworkRankingPropagation(), iterations=4,
                fault_plan=faults, vectorized=vectorized,
                checkpoint=CheckpointPolicy(interval=1))

        scalar, fast = run(False), run(True)
        assert fast.restarts >= 1 and fast.restarts == scalar.restarts
        assert fast.checkpoints == scalar.checkpoints
        assert np.array_equal(scalar.result, fast.result)
        assert _job_signature(scalar) == _job_signature(fast)
        assert reconcile(fast) == []

    @pytest.mark.parametrize("local_opts", [True, False])
    def test_app_without_columnar_combine_or_update(self, graph,
                                                    local_opts):
        """``transfer_array`` alone: array Transfer and columnar route,
        then bags for the scalar ``combine`` and a dict for ``update`` —
        in exactly the scalar route's arrival order, which this app's
        positional checksum makes visible."""
        surfer = Surfer(graph, make_test_cluster(4), num_parts=8, seed=3)
        scalar, fast = (
            surfer.run_propagation(ArrivalOrderApp(), iterations=2,
                                   local_opts=local_opts,
                                   vectorized=vectorized)
            for vectorized in (False, True))
        assert np.array_equal(scalar.result, fast.result)
        assert _job_signature(scalar) == _job_signature(fast)

    @pytest.mark.parametrize("local_opts", [True, False])
    def test_overridden_sizing_is_charged_per_element(self, graph,
                                                      local_opts):
        """No closed form for an app with its own ``value_nbytes`` /
        ``result_nbytes``: the columns are sized element by element."""
        class UnevenRanks(NetworkRankingPropagation):
            def value_nbytes(self, value):
                return 16.0 if value > 1e-4 else 4.0

            def result_nbytes(self, v, value):
                return 24.0 if v % 2 else 8.0

        surfer = Surfer(graph, make_test_cluster(4), num_parts=8, seed=3)
        scalar, fast = (
            surfer.run_propagation(UnevenRanks(), iterations=2,
                                   local_opts=local_opts,
                                   vectorized=vectorized)
            for vectorized in (False, True))
        assert np.array_equal(scalar.result, fast.result)
        assert _job_signature(scalar) == _job_signature(fast)

    @pytest.mark.parametrize("local_opts", [True, False])
    @pytest.mark.parametrize("app_cls", [NetworkRankingPropagation,
                                         ReverseLinkGraphPropagation])
    def test_declined_partitions_fall_back_alone(self, graph, app_cls,
                                                 local_opts):
        """A ``transfer_array`` that declines on the lower half of the
        vertex ranges sends only those partitions through the scalar
        ``transfer``: typed (or ragged) and object columns then meet in
        one Combine, and every product still equals the oracle's."""
        class HalfDeclining(app_cls):
            def transfer_array(self, src, dst, state):
                if src.size and src[0] < state.num_vertices // 2:
                    return None
                return super().transfer_array(src, dst, state)

        n = graph.num_vertices
        cluster = make_test_cluster(4)
        plan = contiguous_range_plan(graph, cluster.topology, 4, seed=3,
                                     offsets=np.arange(5) * n // 4)
        surfer = Surfer(graph, cluster, seed=3, plan=plan)
        scalar, mixed = (
            surfer.run_propagation(app(), local_opts=local_opts,
                                   vectorized=vectorized)
            for app, vectorized in ((app_cls, False),
                                    (HalfDeclining, None)))
        with pytest.raises(JobError):
            surfer.run_propagation(HalfDeclining(), vectorized=True)
        if app_cls is ReverseLinkGraphPropagation:
            assert (scalar.result.out_indices.tolist()
                    == mixed.result.out_indices.tolist())
        else:
            assert scalar.result.tolist() == mixed.result.tolist()
        assert _job_signature(scalar) == _job_signature(mixed)

    def test_force_vectorized_rejects_unsupported_app(self, graph):
        class NoArrayApp(PropagationApp):
            name = "no-array"
            is_associative = True

            def transfer(self, u, v, state):
                return 1.0

            def combine(self, v, values, state):
                return sum(values)

            def merge(self, a, b):
                return a + b

            def update(self, state, combined):
                pass

            def setup(self, pgraph):
                return None

        surfer = Surfer(graph, make_test_cluster(4), num_parts=8, seed=3)
        with pytest.raises(JobError):
            surfer.run_propagation(NoArrayApp(), vectorized=True)

    def test_scalar_select_without_array_twin_falls_back(self, graph):
        """Overriding select but not select_array disqualifies the fast
        path instead of silently selecting every vertex."""

        class HalfSelect(NetworkRankingPropagation):
            def select(self, u, state):
                return u % 2 == 0

        surfer = Surfer(graph, make_test_cluster(4), num_parts=8, seed=3)
        with pytest.raises(JobError):
            surfer.run_propagation(HalfSelect(), vectorized=True)
        auto = surfer.run_propagation(HalfSelect())  # auto: scalar path
        scalar = surfer.run_propagation(HalfSelect(), vectorized=False)
        assert np.array_equal(np.asarray(auto.result),
                              np.asarray(scalar.result))
        assert _job_signature(auto) == _job_signature(scalar)


class TestScalarOracle:
    """``vectorized=False`` is the oracle: it calls the scalar UDFs
    only, and its results and per-iteration reports equal those of the
    ``vectorized=None`` job that takes the hooks."""

    @pytest.mark.parametrize("local_opts", [True, False])
    @pytest.mark.parametrize("app_cls, kwargs, result_of", [
        (NetworkRankingPropagation, {"iterations": 3}, np.ndarray.tolist),
        (ReverseLinkGraphPropagation, {},
         lambda g: (g.out_indptr.tolist(), g.out_indices.tolist())),
        (BreadthFirstSearchPropagation,
         {"frontier": True, "until_convergence": True}, np.ndarray.tolist),
    ], ids=["NR", "RLG", "BFS-frontier"])
    def test_scalar_job_calls_no_hook_and_matches(self, small_graph,
                                                  app_cls, kwargs,
                                                  result_of, local_opts):
        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=3)
        oracle = surfer.run_propagation(scalar_only(app_cls)(),
                                        local_opts=local_opts,
                                        vectorized=False, **kwargs)
        hooked = surfer.run_propagation(app_cls(), local_opts=local_opts,
                                        vectorized=None, **kwargs)
        assert result_of(oracle.result) == result_of(hooked.result)
        assert oracle.reports == hooked.reports
        assert oracle.events.task_spans() == hooked.events.task_spans()
        assert _job_signature(oracle) == _job_signature(hooked)


# ----------------------------------------------------------------------
# Regression: messages_shipped at O1/O2 (no local optimizations)
# ----------------------------------------------------------------------
class TestShippedAccounting:
    def test_unmerged_cross_messages_all_counted(self, small_graph):
        """Without local optimizations an associative app ships every raw
        message; the report must not collapse them to distinct
        destinations (the pre-fix behavior)."""
        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=3)
        job = surfer.run_propagation(NetworkRankingPropagation(),
                                     local_opts=False)
        report = job.reports[0]
        # NR transfers along every edge, so every cross edge ships one
        # unmerged message.
        assert report.messages_shipped == surfer.pgraph.num_cross_edges
        # merging must make the count strictly smaller on this workload
        merged = surfer.run_propagation(NetworkRankingPropagation(),
                                        local_opts=True)
        assert merged.reports[0].messages_shipped < report.messages_shipped


# ----------------------------------------------------------------------
# Regression: routing determinism across PYTHONHASHSEED values
# ----------------------------------------------------------------------
_ROUTE_SNIPPET = """
from repro.propagation.engine import virtual_partition
from repro.hashing import stable_hash
keys = ["user:42", "item-7", ("pair", 3), b"blob", 42, -5]
print([virtual_partition(k, 16) for k in keys])
print([stable_hash(k) % 8 for k in keys])
"""


class TestRoutingDeterminism:
    def _route_output(self, hashseed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _ROUTE_SNIPPET],
            capture_output=True, text=True, env=env, check=True,
        )
        return proc.stdout

    def test_string_key_routing_survives_hash_salting(self):
        out0 = self._route_output("0")
        out1 = self._route_output("12345")
        assert out0 == out1
        # and the parent process (whatever its seed) agrees too
        keys = ["user:42", "item-7", ("pair", 3), b"blob", 42, -5]
        local = str([virtual_partition(k, 16) for k in keys]) + "\n" + \
            str([stable_hash(k) % 8 for k in keys]) + "\n"
        assert out0 == local

    def test_int_routing_unchanged_from_seed(self):
        # the Knuth multiplicative hash for ints is load-bearing for
        # existing layouts: keep it byte-for-byte
        assert virtual_partition(42, 16) == \
            ((42 * 2654435761) & 0xFFFFFFFF) % 16
        assert stable_hash(np.int64(9)) % 8 == \
            ((9 * 2654435761) & 0xFFFFFFFF) % 8
