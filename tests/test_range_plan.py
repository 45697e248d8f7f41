"""Contiguous-range plans and the out-of-core Surfer path.

Parity matrix for ISSUE 9's acceptance bar: a job on a memmapped
:class:`~repro.graph.store.ShardBackedGraph` deployed with a
contiguous-range plan must be bit-identical — outputs *and* every
deterministic cost counter — to the same job on the fully in-memory
graph with the same plan.  Below that sits the structural parity: the
:class:`PartitionedGraph` of that plan must serve the same values from
shard memmaps as from RAM on every accessor.  (That the accessors are
*right*, for ranges and index sets alike, is the brute-force oracle in
tests/test_properties.py.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import APP_REGISTRY, EXTENSION_APPS
from repro.bench.workloads import make_cluster, topology_by_name
from repro.core.partitioned import PartitionedGraph
from repro.core.persist import load_plan, save_plan
from repro.core.placement import (
    estimate_partition_costs,
    partition_traffic_matrix,
)
from repro.core.range_plan import contiguous_range_plan
from repro.core.surfer import Surfer
from repro.errors import PartitioningError
from repro.graph.digraph import balanced_offsets
from repro.graph.generators import rmat
from repro.runtime.events import reconcile
from repro.graph.store import build_shard_store, open_shard_graph
from repro.graph.stream import stream_rmat

P = 8
SCALE, EDGE_FACTOR, SEED = 11, 8, 2010


@pytest.fixture(scope="module")
def in_memory():
    return rmat(SCALE, edge_factor=EDGE_FACTOR, seed=SEED)


@pytest.fixture(scope="module")
def shard_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "rmat"
    build_shard_store(
        stream_rmat(SCALE, edge_factor=EDGE_FACTOR, seed=SEED),
        path, num_shards=P)
    return open_shard_graph(path)


def deploy(graph, offsets):
    cluster = make_cluster(topology_by_name("T2(4,1)", 8))
    plan = contiguous_range_plan(graph, cluster.topology, P, seed=SEED,
                                 offsets=offsets)
    return Surfer(graph, cluster, seed=SEED, plan=plan)


def assert_jobs_identical(a, b):
    assert not a.failed and not b.failed
    ra, rb = np.asarray(a.result), np.asarray(b.result)
    np.testing.assert_array_equal(ra, rb)
    ma, mb = a.metrics, b.metrics
    assert ma.response_time == mb.response_time
    assert ma.total_machine_time == mb.total_machine_time
    assert ma.network_bytes == mb.network_bytes
    assert ma.disk_read_bytes == mb.disk_read_bytes
    assert ma.disk_write_bytes == mb.disk_write_bytes


class TestRangePartitionedGraphParity:
    """Same contiguous assignment over shard memmaps (``rg``) and over
    the in-memory graph (``tg``)."""

    @pytest.fixture(scope="class")
    def pair(self, in_memory, shard_graph):
        offsets = balanced_offsets(in_memory.out_indptr, P)
        parts = np.repeat(np.arange(P), np.diff(offsets))
        return (PartitionedGraph(shard_graph, parts, P),
                PartitionedGraph(in_memory, parts, P))

    def test_partition_structure(self, pair):
        rg, tg = pair
        np.testing.assert_array_equal(rg.parts, tg.parts)
        np.testing.assert_array_equal(rg.boundary_mask, tg.boundary_mask)
        np.testing.assert_array_equal(rg.entry_mask, tg.entry_mask)
        assert rg.num_cross_edges == tg.num_cross_edges
        assert rg.inner_edge_ratio == tg.inner_edge_ratio
        for p in range(P):
            assert rg.partition_size(p) == tg.partition_size(p)
            assert rg.partition_edge_count(p) == tg.partition_edge_count(p)
            assert rg.partition_bytes(p) == tg.partition_bytes(p)

    def test_partition_edges(self, pair):
        rg, tg = pair
        for p in range(P):
            r_src, r_dst = rg.partition_edges(p)
            t_src, t_dst = tg.partition_edges(p)
            np.testing.assert_array_equal(r_src, t_src)
            np.testing.assert_array_equal(r_dst, t_dst)

    def test_partition_out_edges_subset(self, pair):
        rg, tg = pair
        verts = rg.partition_vertices[3][::5]
        r_src, r_dst = rg.partition_out_edges(3, verts)
        t_src, t_dst = tg.partition_out_edges(3, verts)
        np.testing.assert_array_equal(r_src, t_src)
        np.testing.assert_array_equal(r_dst, t_dst)

    def test_cross_counts_and_placement_inputs(self, pair):
        rg, tg = pair
        r_out, r_in = rg.cross_partition_counts()
        t_out, t_in = tg.cross_partition_counts()
        np.testing.assert_array_equal(r_out, t_out)
        np.testing.assert_array_equal(r_in, t_in)
        np.testing.assert_array_equal(rg.cross_traffic_counts(),
                                      tg.cross_traffic_counts())
        np.testing.assert_array_equal(estimate_partition_costs(rg),
                                      estimate_partition_costs(tg))
        np.testing.assert_array_equal(partition_traffic_matrix(rg),
                                      partition_traffic_matrix(tg))


class TestContiguousRangePlan:
    def test_balanced_offsets_cover_graph(self, in_memory):
        offsets = balanced_offsets(in_memory.out_indptr, P)
        assert offsets[0] == 0 and offsets[-1] == in_memory.num_vertices
        assert np.all(np.diff(offsets) >= 0)

    def test_plan_fields(self, in_memory):
        topo = topology_by_name("T2(4,1)", 8)
        plan = contiguous_range_plan(in_memory, topo, P, seed=SEED)
        assert plan.method == "contiguous-range"
        assert plan.num_parts == P
        assert np.all(np.diff(plan.parts) >= 0)
        assert plan.parts.size == in_memory.num_vertices
        assert plan.placement.size == P

    def test_rejects_non_power_of_two(self, in_memory):
        topo = topology_by_name("T2(4,1)", 8)
        with pytest.raises(PartitioningError):
            contiguous_range_plan(in_memory, topo, 6)

    def test_rejects_bad_offsets(self, in_memory):
        topo = topology_by_name("T2(4,1)", 8)
        with pytest.raises(PartitioningError):
            contiguous_range_plan(in_memory, topo, 4,
                                  offsets=[0, 5, 3, 7,
                                           in_memory.num_vertices])

    def test_surfer_dispatches_range_pgraph(self, in_memory):
        """Consecutive ids get CSR slices: zero-copy, nothing cached."""
        pgraph = deploy(in_memory, None).pgraph
        for p in range(P):
            _, dst = pgraph.partition_out_edges(p)
            assert np.shares_memory(dst, in_memory.out_indices)
        assert not pgraph._scan_edge_cache

    def test_cascaded_matches_plain(self):
        """Regression: cascading read per-edge tables only the
        table-based partitioned graph had."""
        graph = rmat(8, edge_factor=4, seed=1)
        cluster = make_cluster(topology_by_name("T2(4,1)", 8))
        jobs = []
        for cascaded in (False, True):
            plan = contiguous_range_plan(graph, cluster.topology, 4)
            jobs.append(Surfer(graph, cluster, plan=plan).run_propagation(
                APP_REGISTRY["NR"][0](), iterations=3, cascaded=cascaded))
        plain, cascade = jobs
        assert not plain.failed and not cascade.failed
        np.testing.assert_array_equal(cascade.result, plain.result)
        assert reconcile(cascade) == []
        assert (cascade.metrics.disk_read_bytes
                + cascade.metrics.disk_write_bytes
                <= plain.metrics.disk_read_bytes
                + plain.metrics.disk_write_bytes)

    def test_saved_plan_deploys_on_shard_store(self, tmp_path):
        """Regression: ``save_plan`` dropped the range offsets, so a
        reloaded plan fell back to a class that needs ``out_indices``."""
        build_shard_store(stream_rmat(9, edge_factor=4), tmp_path / "s",
                          num_shards=4)
        graph = open_shard_graph(tmp_path / "s")
        cluster = make_cluster(topology_by_name("T2(4,1)", 8))
        plan = contiguous_range_plan(graph, cluster.topology, 4,
                                     offsets=graph.store.vertex_starts)
        save_plan(plan, tmp_path / "plan.npz")
        jobs = [
            Surfer(graph, cluster, plan=deployed).run_propagation(
                APP_REGISTRY["NR"][0](), iterations=1, vectorized=True)
            for deployed in (plan, load_plan(tmp_path / "plan.npz"))
        ]
        assert_jobs_identical(*jobs)


class TestOutOfCoreJobParity:
    """The acceptance bar: shard-backed == in-memory, bit for bit."""

    def test_nr_vectorized(self, in_memory, shard_graph):
        offsets = shard_graph.store.vertex_starts
        jobs = []
        for graph in (in_memory, shard_graph):
            surfer = deploy(graph, offsets)
            jobs.append(surfer.run_propagation(
                APP_REGISTRY["NR"][0](), iterations=3, vectorized=True))
        assert_jobs_identical(*jobs)

    def test_nr_mapreduce(self, in_memory, shard_graph):
        offsets = shard_graph.store.vertex_starts
        jobs = []
        for graph in (in_memory, shard_graph):
            surfer = deploy(graph, offsets)
            jobs.append(surfer.run_mapreduce(
                APP_REGISTRY["NR"][1](), rounds=2, vectorized=True))
        assert_jobs_identical(*jobs)

    def test_bfs_frontier_until_convergence(self, in_memory, shard_graph):
        offsets = shard_graph.store.vertex_starts
        jobs = []
        for graph in (in_memory, shard_graph):
            surfer = deploy(graph, offsets)
            jobs.append(surfer.run_propagation(
                EXTENSION_APPS["BFS"][0](), iterations=64,
                frontier=True, until_convergence=True, vectorized=True))
        assert_jobs_identical(*jobs)

    def test_messages_counters_identical(self, in_memory, shard_graph):
        offsets = shard_graph.store.vertex_starts
        registries = []
        for graph in (in_memory, shard_graph):
            surfer = deploy(graph, offsets)
            job = surfer.run_propagation(APP_REGISTRY["NR"][0](),
                                         iterations=2, vectorized=True)
            registries.append(job.events.metrics)
        a, b = registries
        assert (a.get("propagation.messages_shipped")
                == b.get("propagation.messages_shipped"))
        assert (a.get("propagation.iterations")
                == b.get("propagation.iterations"))
