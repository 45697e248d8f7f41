"""Vectorized MapReduce fast path: hash parity, scalar-vs-array
equivalence, combiner accounting, and routing determinism.

The scalar per-record path is the oracle: the array path must reproduce
its outputs, shuffle counters and task costs *bit for bit* — in both
combiner modes (see docs/COST_MODEL.md for the contract).
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.apps import (
    DegreeDistributionMapReduce,
    NetworkRankingMapReduce,
    ReverseLinkGraphMapReduce,
    TwoHopFriendsMapReduce,
)
from repro.core.bandwidth_aware import PartitionPlan
from repro.core.surfer import Surfer
from repro.errors import JobError
from repro.graph.digraph import Graph
from repro.graph.generators import composite_social_graph
from repro.hashing import stable_hash, stable_hash_array
from repro.mapreduce.api import MapReduceApp
from repro.mapreduce.engine import MapReduceEngine
from repro.runtime.events import reconcile
from repro.runtime.scheduler import StageScheduler
from tests.conftest import make_test_cluster, scalar_only
from tests.test_properties import raw_partitionings

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


# ----------------------------------------------------------------------
# stable_hash_array == stable_hash, element for element
# ----------------------------------------------------------------------
class TestStableHashArray:
    def test_int64_parity_including_negatives(self):
        keys = np.array([0, 1, 42, -5, -2**62, 2**62, 2**63 - 1, -2**63],
                        dtype=np.int64)
        hashed = stable_hash_array(keys)
        assert hashed.tolist() == [stable_hash(int(k)) for k in keys]

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8,
                                       np.uint32, np.uint64])
    def test_small_and_unsigned_dtypes(self, dtype):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, np.iinfo(dtype).max, 200,
                            dtype=np.uint64).astype(dtype)
        hashed = stable_hash_array(keys)
        assert hashed.tolist() == [stable_hash(int(k)) for k in keys]

    def test_bytes_keys_parity(self):
        keys = np.array([b"alpha", b"x", b"longer-key", b""], dtype="S16")
        hashed = stable_hash_array(keys)
        # numpy strips trailing NULs when yielding bytes; the scalar
        # twin of the batched CRC32 hashes exactly those bytes
        assert hashed.tolist() == [stable_hash(k) for k in keys.tolist()]

    def test_routing_matches_stable_hash(self):
        rng = np.random.default_rng(17)
        keys = rng.integers(-10**9, 10**9, 5000)
        routed = (stable_hash_array(keys) % 32).tolist()
        assert routed == [stable_hash(int(k)) % 32 for k in keys]

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(TypeError):
            stable_hash_array(np.array([1.5, 2.5]))


# ----------------------------------------------------------------------
# Scalar vs. vectorized engine equivalence
# ----------------------------------------------------------------------
def _job_signature(job):
    reports = [
        (r.map_records, r.shuffle_records, r.shuffle_bytes,
         r.shuffle_bytes_precombine, r.network_bytes)
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


def _result_equal(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.tobytes() == b.tobytes()  # bitwise, not approx
    # a dict (VDD's histogram) or a Graph (RLG, TFL: Graph.__eq__
    # compares the CSR arrays)
    return a == b


APPS = {
    "NR": NetworkRankingMapReduce,
    "VDD": DegreeDistributionMapReduce,
    "RLG": ReverseLinkGraphMapReduce,
}


def _round_outputs(surfer, app, vectorized):
    """One round's raw outputs, straight from the engine."""
    state = app.setup(surfer.pgraph)
    surfer.cluster.reset()
    engine = MapReduceEngine(surfer.pgraph, surfer.store.copy(),
                             surfer.cluster, assignment=surfer.assignment,
                             vectorized=vectorized)
    out, _ = engine.run_round(app, state, StageScheduler(surfer.cluster))
    return out


class TestFastPathEquivalence:
    @pytest.fixture(scope="class")
    def graph(self):
        return composite_social_graph(
            num_communities=8, community_size=64, k=5, seed=9
        )

    @pytest.fixture(scope="class")
    def surfer(self, graph):
        return Surfer(graph, make_test_cluster(4), num_parts=8, seed=3)

    @pytest.mark.parametrize("combiner", [False, True])
    @pytest.mark.parametrize("app_name", ["NR", "VDD", "RLG"])
    def test_bit_identical_products(self, surfer, app_name, combiner):
        if app_name == "RLG" and combiner:
            pytest.skip("RLG bags cannot fold to one value")
        app_cls = APPS[app_name]
        scalar = surfer.run_mapreduce(app_cls(), rounds=2,
                                      vectorized=False, combiner=combiner)
        fast = surfer.run_mapreduce(app_cls(), rounds=2,
                                    vectorized=True, combiner=combiner)
        assert _result_equal(scalar.result, fast.result)
        assert _job_signature(scalar) == _job_signature(fast)

    @pytest.mark.parametrize("combiner", [False, True])
    def test_fast_path_reconciles(self, surfer, combiner):
        job = surfer.run_mapreduce(NetworkRankingMapReduce(), rounds=2,
                                   vectorized=True, combiner=combiner)
        assert reconcile(job) == []

    def test_naive_map_plus_combiner_matches_in_map_combining(self, surfer):
        """Engine-side combining of the raw per-edge emission stream is
        bit-identical to Algorithm 2's in-map hash table (same folds, in
        the same edge-scan order)."""
        in_map = surfer.run_mapreduce(NetworkRankingMapReduce(),
                                      rounds=1, vectorized=True)
        for vectorized in (False, True):
            naive = surfer.run_mapreduce(
                NetworkRankingMapReduce(in_map_combining=False),
                rounds=1, vectorized=vectorized, combiner=True)
            assert naive.result.tobytes() == in_map.result.tobytes()
            rep = naive.reports[0]
            # the raw stream is much bigger than what hits the wire ...
            assert rep.shuffle_bytes < rep.shuffle_bytes_precombine
            assert rep.shuffle_records < rep.map_records
            assert 0.0 < rep.combine_reduction < 1.0
            # ... and the combined stream equals the in-map one
            assert rep.shuffle_bytes == in_map.reports[0].shuffle_bytes

    def test_combiner_off_keeps_precombine_equal(self, surfer):
        job = surfer.run_mapreduce(NetworkRankingMapReduce(), rounds=1)
        rep = job.reports[0]
        assert rep.shuffle_bytes_precombine == rep.shuffle_bytes
        assert rep.shuffle_records == rep.map_records
        assert rep.combine_reduction == 0.0

    def test_force_vectorized_rejects_unsupported_app(self, surfer):
        class NoArrayApp(MapReduceApp):
            name = "no-array"

            def map(self, partition, pgraph, state, emit):
                emit(partition, 1)

            def reduce(self, key, values, state, emit):
                emit(key, sum(values))

            def update(self, state, outputs):
                pass

        with pytest.raises(JobError):
            surfer.run_mapreduce(NoArrayApp(), vectorized=True)

    def test_custom_sizing_disqualifies_fast_path(self, surfer):
        """Per-record sizing hooks need per-record calls; the fast path
        declines instead of silently using the constant sizes."""

        class FatKeys(NetworkRankingMapReduce):
            def key_nbytes(self, key):
                return 16.0

        with pytest.raises(JobError):
            surfer.run_mapreduce(FatKeys(), vectorized=True)
        auto = surfer.run_mapreduce(FatKeys())  # auto: scalar path
        scalar = surfer.run_mapreduce(FatKeys(), vectorized=False)
        assert _job_signature(auto) == _job_signature(scalar)

    def test_map_array_decline_falls_back_alone(self, surfer):
        """A partition whose ``map_array`` declines runs the scalar
        ``map``; every other partition keeps its column, and the round
        equals the oracle's."""

        class Declines(NetworkRankingMapReduce):
            def map(self, partition, pgraph, state, emit):
                state.extra.setdefault("scalar", []).append(partition)
                super().map(partition, pgraph, state, emit)

            def map_array(self, partition, pgraph, state):
                if partition == 3:
                    return None
                return super().map_array(partition, pgraph, state)

        with pytest.raises(JobError):
            surfer.run_mapreduce(Declines(), vectorized=True)
        app = Declines()
        state = app.setup(surfer.pgraph)
        engine = MapReduceEngine(surfer.pgraph, surfer.store.copy(),
                                 surfer.cluster,
                                 assignment=surfer.assignment)
        engine.run_round(app, state, StageScheduler(surfer.cluster))
        assert state.extra["scalar"] == [3]
        auto = surfer.run_mapreduce(Declines(), rounds=2)
        scalar = surfer.run_mapreduce(Declines(), rounds=2,
                                      vectorized=False)
        assert auto.result.tobytes() == scalar.result.tobytes()
        assert _job_signature(auto) == _job_signature(scalar)

    def test_combiner_needs_combine(self, surfer):
        with pytest.raises(JobError):
            surfer.run_mapreduce(ReverseLinkGraphMapReduce(),
                                 combiner=True)

    def test_combiner_on_fast_path_needs_ufunc(self, surfer):
        class NoUfunc(NetworkRankingMapReduce):
            combine_ufunc = None

        with pytest.raises(JobError):
            surfer.run_mapreduce(NoUfunc(), vectorized=True, combiner=True)
        # auto silently takes the scalar path, which only needs combine()
        auto = surfer.run_mapreduce(NoUfunc(), combiner=True)
        scalar = surfer.run_mapreduce(NetworkRankingMapReduce(),
                                      vectorized=False, combiner=True)
        assert auto.result.tobytes() == scalar.result.tobytes()

    def test_reduce_array_decline_uses_sorted_scalar_groups(self, surfer):
        class NoReduceArray(NetworkRankingMapReduce):
            def reduce_array(self, keys, gid, values, state):
                return None

        fast = surfer.run_mapreduce(NoReduceArray(), vectorized=True)
        scalar = surfer.run_mapreduce(NoReduceArray(), vectorized=False)
        assert fast.result.tobytes() == scalar.result.tobytes()
        assert _job_signature(fast) == _job_signature(scalar)
        assert isinstance(_round_outputs(surfer, NoReduceArray(), True),
                          dict)

    def test_nr_map_divides_only_sources_with_out_edges(self):
        """NR's map works out ``damping * rank / out-degree`` once per
        source: sinks and isolated vertices are never divided by their
        zero degree, so the array round runs under ``np.errstate(all=
        "raise")`` and still equals the oracle bit for bit."""
        graph = Graph.from_edges(np.array([[0, 1], [0, 2], [3, 1]]),
                                 num_vertices=6)
        plan = PartitionPlan(parts=np.array([0, 0, 0, 1, 1, 1]),
                             num_parts=2, placement=np.arange(2),
                             machine_sets={}, method="drawn")
        surfer = Surfer(graph, make_test_cluster(2), plan=plan)
        with np.errstate(all="raise"):
            fast = surfer.run_mapreduce(NetworkRankingMapReduce(),
                                        rounds=3, vectorized=True)
        oracle = surfer.run_mapreduce(NetworkRankingMapReduce(), rounds=3,
                                      vectorized=False)
        assert fast.result.tobytes() == oracle.result.tobytes()

    def test_columnar_round_returns_columns(self, surfer):
        keys, ranks = _round_outputs(surfer, NetworkRankingMapReduce(), True)
        scalar = _round_outputs(surfer, NetworkRankingMapReduce(), False)
        assert isinstance(ranks, np.ndarray)
        assert keys.size == len(scalar)
        assert dict(zip(keys.tolist(), ranks.tolist())) == scalar

    def test_partial_reduce_array_decline_gives_the_scalar_dict(self,
                                                                 surfer):
        class SomeDecline(NetworkRankingMapReduce):
            def reduce_array(self, keys, gid, values, state):
                if keys[0] % 2:  # reducers whose lowest key is odd
                    return None
                return super().reduce_array(keys, gid, values, state)

        lowest = {}
        for v in range(surfer.pgraph.num_vertices):
            lowest.setdefault(stable_hash(v) % surfer.cluster.num_machines,
                              v)
        assert {v % 2 for v in lowest.values()} == {0, 1}  # a real mix
        fast = _round_outputs(surfer, SomeDecline(), True)
        assert isinstance(fast, dict)
        assert fast == _round_outputs(surfer, SomeDecline(), False)
        jobs = [surfer.run_mapreduce(SomeDecline(), rounds=2,
                                     vectorized=vectorized)
                for vectorized in (False, True)]
        assert jobs[0].result.tobytes() == jobs[1].result.tobytes()
        assert _job_signature(jobs[0]) == _job_signature(jobs[1])

    def test_partial_reduce_array_decline_on_ragged_rows(self, surfer):
        """RLG reducers that answer give ragged rows, the declining ones
        the scalar ``reduce``'s tuples: one dict holds both, equal to
        the oracle's."""

        class SomeDecline(ReverseLinkGraphMapReduce):
            def reduce_array(self, keys, gid, values, state):
                if keys[0] % 2:  # reducers whose lowest key is odd
                    return None
                return super().reduce_array(keys, gid, values, state)

        lowest = {}
        for v in np.unique(surfer.pgraph.graph.out_indices).tolist():
            lowest.setdefault(stable_hash(v) % surfer.cluster.num_machines,
                              v)
        assert {v % 2 for v in lowest.values()} == {0, 1}  # a real mix
        fast = _round_outputs(surfer, SomeDecline(), True)
        assert isinstance(fast, dict)
        assert all(isinstance(row, tuple) for row in fast.values())
        assert fast == _round_outputs(surfer, SomeDecline(), False)
        jobs = [surfer.run_mapreduce(SomeDecline(), vectorized=vectorized)
                for vectorized in (False, True)]
        assert _result_equal(jobs[0].result, jobs[1].result)
        assert _job_signature(jobs[0]) == _job_signature(jobs[1])

    def test_update_only_app_receives_the_dict(self, surfer):
        class UpdateOnly(NetworkRankingMapReduce):
            def update(self, state, outputs):
                state.extra.setdefault("received", []).append(outputs)
                super().update(state, outputs)

            def finalize(self, state):
                return state.extra["received"]

        scalar, fast = (
            surfer.run_mapreduce(UpdateOnly(), rounds=2,
                                 vectorized=vectorized).result
            for vectorized in (False, True))
        assert all(isinstance(out, dict) for out in fast)
        assert fast == scalar

    @pytest.mark.parametrize("writeback", [False, True])
    def test_custom_output_sizing_charges_per_pair(self, surfer, writeback):
        """RLG sizes each output by its list: the columnar round falls
        back to the per-pair charge loop and must land on the same
        output bytes and writeback."""

        class Sized(ReverseLinkGraphMapReduce):
            writeback_to_partitions = writeback

        scalar = surfer.run_mapreduce(Sized(), vectorized=False)
        fast = surfer.run_mapreduce(Sized(), vectorized=True)
        assert _result_equal(scalar.result, fast.result)
        assert _job_signature(scalar) == _job_signature(fast)
        shipped = [e.task.sends for e in fast.events.task_spans()
                   if e.task.kind == "reduce"]
        assert any(shipped) == writeback


class TestScalarOracle:
    """``vectorized=False`` is the oracle: it calls the scalar UDFs
    only, and its results and per-round reports equal those of the
    ``vectorized=None`` job that takes the hooks."""

    @pytest.fixture(scope="class")
    def surfer(self):
        graph = composite_social_graph(num_communities=4,
                                       community_size=48, k=5, seed=9)
        return Surfer(graph, make_test_cluster(4), num_parts=8, seed=3)

    @pytest.mark.parametrize("combiner", [False, True])
    @pytest.mark.parametrize("app_cls", [
        NetworkRankingMapReduce, DegreeDistributionMapReduce,
        ReverseLinkGraphMapReduce, TwoHopFriendsMapReduce,
    ], ids=["NR", "VDD", "RLG", "TFL"])
    def test_scalar_job_calls_no_hook_and_matches(self, surfer, app_cls,
                                                  combiner):
        if combiner and app_cls.combine is MapReduceApp.combine:
            pytest.skip("no combine()")
        oracle = surfer.run_mapreduce(scalar_only(app_cls)(), rounds=2,
                                      vectorized=False, combiner=combiner)
        hooked = surfer.run_mapreduce(app_cls(), rounds=2, vectorized=None,
                                      combiner=combiner)
        assert _result_equal(oracle.result, hooked.result)
        assert oracle.reports == hooked.reports
        assert oracle.events.task_spans() == hooked.events.task_spans()
        assert _job_signature(oracle) == _job_signature(hooked)


class TestEmissionOrder:
    """``map_array`` lists its pairs in the scalar ``map``'s emission
    order, partition by partition: keys, and value bits."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw_partitionings(), st.booleans())
    def test_network_ranking_map_matches_map_array(self, drawn,
                                                   in_map_combining):
        edges, parts, k = drawn
        graph = Graph.from_edges(edges, num_vertices=parts.size)
        for assignment in (parts, np.sort(parts)):
            plan = PartitionPlan(parts=assignment, num_parts=k,
                                 placement=np.arange(k) % 3,
                                 machine_sets={}, method="drawn")
            pgraph = Surfer(graph, make_test_cluster(3), plan=plan).pgraph
            app = NetworkRankingMapReduce(in_map_combining=in_map_combining)
            state = app.setup(pgraph)
            state.values[:] = np.random.default_rng(k).random(parts.size)
            for p in range(k):
                pairs = []
                app.map(p, pgraph, state,
                        lambda key, value: pairs.append((key, value)))
                keys, values = app.map_array(p, pgraph, state)
                assert keys.tolist() == [key for key, _ in pairs]
                assert values.tobytes() == np.array(
                    [value for _, value in pairs], dtype=np.float64).tobytes()


# ----------------------------------------------------------------------
# NR's rank table against its definition
# ----------------------------------------------------------------------
def _drawn_pgraph(edges, parts, k):
    graph = Graph.from_edges(edges, num_vertices=parts.size)
    plan = PartitionPlan(parts=parts, num_parts=k,
                         placement=np.arange(k) % 3, machine_sets={},
                         method="drawn")
    return Surfer(graph, make_test_cluster(3), plan=plan).pgraph


def assert_rank_tables_match_definition(pgraph):
    """Per partition, NR's in-map table keys are held on the destination
    index: the distinct destinations ascending, then the own vertices no
    edge reaches, read-only and as narrow as they go; they are the
    index's distinct destinations, and a second call returns the held
    array."""
    n = pgraph.num_vertices
    for p in range(pgraph.num_parts):
        keys, d = pgraph.table_keys(p)
        dst = pgraph.partition_dests(p)
        distinct = sorted(set(dst.tolist()))
        reached = set(distinct)
        assert d == len(distinct)
        assert keys.tolist() == distinct + [
            v for v in pgraph.partition_vertices[p].tolist()
            if v not in reached]
        assert sorted(pgraph.dest_index(p).grouping.uniq.tolist()) == distinct
        assert pgraph.table_keys(p)[0] is keys
        assert not keys.flags.writeable
        assert keys.dtype == np.min_scalar_type(n - 1)


class TestRankTable:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw_partitionings())
    def test_index_set_and_range_plans(self, drawn):
        """Self loops, duplicate edges, isolated vertices and empty
        partitions, under the drawn (index-set) assignment and its
        sorted (range) form."""
        edges, parts, k = drawn
        for assignment in (parts, np.sort(parts)):
            assert_rank_tables_match_definition(
                _drawn_pgraph(edges, assignment, k))

    @pytest.mark.parametrize("n", [256, 257, 65_536, 65_537])
    def test_dtype_edges(self, n):
        """Partition 0 (vertex 0 points at every vertex) has ``n``
        distinct destinations, so both dtypes sit at their edge;
        partition 1's ids start at ``n // 2`` and its last vertex is
        reached by no edge of its own."""
        half = n // 2
        src = np.concatenate((np.zeros(n, dtype=np.int64),
                              np.full(n - 1 - half, n - 1)))
        dst = np.concatenate((np.arange(n), np.arange(half, n - 1)))
        parts = (np.arange(n) >= half).astype(np.int64)
        pgraph = _drawn_pgraph(np.stack((src, dst), axis=1), parts, 2)
        assert_rank_tables_match_definition(pgraph)
        assert pgraph.table_keys(1)[0][-1] == n - 1


# ----------------------------------------------------------------------
# A held output charge is dropped when the output keys change
# ----------------------------------------------------------------------
def _dropping_network_ranking(dropped):
    """NR whose reducers leave out key ``dropped[round % 2]``."""

    class DroppingNetworkRanking(NetworkRankingMapReduce):
        def setup(self, pgraph):
            state = super().setup(pgraph)
            state.extra["round"] = 0
            return state

        def reduce(self, key, values, state, emit):
            if key != dropped[state.extra["round"] % 2]:
                super().reduce(key, values, state, emit)

        def reduce_array(self, keys, gid, values, state):
            keys, ranks = super().reduce_array(keys, gid, values, state)
            kept = keys != dropped[state.extra["round"] % 2]
            return keys[kept], ranks[kept]

        def update(self, state, outputs):
            super().update(state, outputs)
            state.extra["round"] += 1

        def update_array(self, state, keys, values):
            super().update_array(state, keys, values)
            state.extra["round"] += 1

    return DroppingNetworkRanking


class TestHeldOutputCharge:
    def test_changed_output_keys_are_charged_afresh(self):
        """Alternate rounds leave out keys on two different home
        machines, so a writeback charge replayed from the previous round
        would send a record's bytes to the wrong home.  Each reducer's
        writeback is checked against its definition — one output record
        per kept key the hash partitioner sends it, charged to the key's
        home — and against the ``vectorized=False`` job."""
        graph = composite_social_graph(num_communities=4,
                                       community_size=48, k=5, seed=9)
        surfer = Surfer(graph, make_test_cluster(4), num_parts=8, seed=3)
        n, machines = graph.num_vertices, surfer.cluster.num_machines
        homes = surfer.assignment[surfer.pgraph.parts]
        dropped = (0, int(np.flatnonzero(homes != homes[0])[0]))
        app_cls = _dropping_network_ranking(dropped)
        oracle = surfer.run_mapreduce(app_cls(), rounds=4,
                                      vectorized=False)
        fast = surfer.run_mapreduce(app_cls(), rounds=4, vectorized=True)
        assert _result_equal(oracle.result, fast.result)
        assert oracle.reports == fast.reports
        assert _job_signature(oracle) == _job_signature(fast)
        assert reconcile(oracle) == reconcile(fast) == []

        reducer = stable_hash_array(np.arange(n, dtype=np.int64)) % machines
        record = app_cls().output_nbytes(0, 0.0)
        for m in range(machines):
            sent = [e.task.sends for e in fast.events.task_spans()
                    if e.task.name == f"reduce[{m}]"]
            assert len(sent) == 4
            for r, sends in enumerate(sent):
                kept = (reducer == m) & (np.arange(n) != dropped[r % 2])
                counts = np.bincount(homes[kept], minlength=machines)
                assert sends == [(h, float(c * record))
                                 for h, c in enumerate(counts) if c]


# ----------------------------------------------------------------------
# Routing determinism across PYTHONHASHSEED values
# ----------------------------------------------------------------------
_ROUTE_SNIPPET = """
import numpy as np
from repro.hashing import stable_hash_array
keys = np.array([0, 1, 42, -5, 123456789, -2**40], dtype=np.int64)
print((stable_hash_array(keys) % 16).tolist())
print((stable_hash_array(np.array([b"u:1", b"v:2"], dtype="S8")) % 16)
      .tolist())
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

    def test_array_routing_survives_hash_salting(self):
        out0 = self._route_output("0")
        out1 = self._route_output("54321")
        assert out0 == out1
        # and the parent process (whatever its seed) agrees too
        keys = np.array([0, 1, 42, -5, 123456789, -2**40], dtype=np.int64)
        local = str((stable_hash_array(keys) % 16).tolist()) + "\n" + str(
            (stable_hash_array(np.array([b"u:1", b"v:2"], dtype="S8")) % 16)
            .tolist()) + "\n"
        assert out0 == local
