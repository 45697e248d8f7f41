"""Shard store: round-trip fidelity and the O(shard) access contract.

``build_shard_store`` must write exactly the graph that
``Graph.from_edges(dedup=True, drop_self_loops=True)`` would build from
the same stream — per-shard dedup equals global dedup because shards
split by source range — and ``ShardBackedGraph`` must serve every
consumer-facing accessor from memmapped shard views without ever
assembling the global indices array (``out_indices`` raises).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.digraph import Graph
from repro.graph.store import (
    ShardBackedGraph,
    ShardStore,
    build_shard_store,
    open_shard_graph,
)
from repro.graph.stream import EdgeStream, stream_from_edges, stream_rmat


def reference_graph(stream) -> Graph:
    parts = [np.stack([s, d], axis=1) for s, d in stream.chunks()]
    edges = (np.concatenate(parts, axis=0) if parts
             else np.zeros((0, 2), dtype=np.int64))
    return Graph.from_edges(edges, num_vertices=stream.num_vertices,
                            dedup=True, drop_self_loops=True)


@pytest.fixture
def rmat_stream():
    return stream_rmat(9, edge_factor=8, seed=2010, chunk_size=997)


class TestRoundTrip:
    @pytest.mark.parametrize("num_shards", [1, 3, 7])
    def test_equals_in_memory_build(self, tmp_path, rmat_stream,
                                    num_shards):
        store = build_shard_store(rmat_stream, tmp_path / "s", num_shards)
        shard_graph = ShardBackedGraph(store)
        ref = reference_graph(rmat_stream)
        assert shard_graph == ref
        assert ref == shard_graph.to_graph()
        np.testing.assert_array_equal(store.global_indptr(),
                                      ref.out_indptr)

    def test_reopen(self, tmp_path, rmat_stream):
        build_shard_store(rmat_stream, tmp_path / "s", 4)
        reopened = open_shard_graph(tmp_path / "s")
        assert reopened == reference_graph(rmat_stream)
        assert reopened.store.num_shards == 4

    def test_pinned_boundaries_with_empty_shards(self, tmp_path):
        edges = np.array([[0, 1], [0, 2], [9, 0]], dtype=np.int64)
        stream = stream_from_edges(edges, num_vertices=10)
        # shards 1 and 3 own vertex ranges with no edges at all
        starts = [0, 1, 5, 9, 9, 10]
        store = build_shard_store(stream, tmp_path / "s", 5,
                                  vertex_starts=starts)
        assert store.shard_edge_count(1) == 0
        assert store.shard_edge_count(3) == 0
        assert ShardBackedGraph(store) == reference_graph(stream)

    def test_empty_graph(self, tmp_path):
        stream = stream_from_edges(np.zeros((0, 2), dtype=np.int64),
                                   num_vertices=6)
        store = build_shard_store(stream, tmp_path / "s", 3)
        g = ShardBackedGraph(store)
        assert g.num_edges == 0
        assert g == reference_graph(stream)

    def test_dedup_and_self_loops_match_from_edges(self, tmp_path):
        edges = np.array([[1, 0], [1, 0], [2, 2], [0, 1], [2, 1]],
                         dtype=np.int64)
        stream = stream_from_edges(edges, num_vertices=3)
        store = build_shard_store(stream, tmp_path / "s", 2)
        assert store.num_edges == 3  # one dup and one self-loop dropped
        assert ShardBackedGraph(store) == reference_graph(stream)

    def test_raw_duplicates_preserved_when_dedup_off(self, tmp_path):
        edges = np.array([[1, 0], [1, 0], [2, 2]], dtype=np.int64)
        stream = stream_from_edges(edges, num_vertices=3)
        store = build_shard_store(stream, tmp_path / "s", 2, dedup=False,
                                  drop_self_loops=False)
        assert store.num_edges == 3
        ref = Graph.from_edges(edges, num_vertices=3)
        np.testing.assert_array_equal(store.global_indptr(),
                                      ref.out_indptr)


class TestBuildIsAtomic:
    """A directory that exists at ``path`` is a complete store."""

    def test_interrupted_build_leaves_nothing(self, tmp_path, rmat_stream):
        passes = []

        def chunks():
            passes.append(None)
            if len(passes) == 2:  # the scatter pass
                raise RuntimeError("disk full")
            return rmat_stream.chunks()

        broken = EdgeStream(rmat_stream.num_vertices, rmat_stream.num_edges,
                            rmat_stream.chunk_size, chunks)
        with pytest.raises(RuntimeError, match="disk full"):
            build_shard_store(broken, tmp_path / "out" / "s", 4)
        assert list((tmp_path / "out").iterdir()) == []

    def test_refuses_to_build_over_a_store(self, tmp_path, rmat_stream):
        build_shard_store(rmat_stream, tmp_path / "s", 2)
        before = sorted(f.name for f in (tmp_path / "s").iterdir())
        with pytest.raises(GraphError, match=str(tmp_path / "s")):
            build_shard_store(rmat_stream, tmp_path / "s", 4)
        assert sorted(f.name for f in (tmp_path / "s").iterdir()) == before
        assert open_shard_graph(tmp_path / "s").store.num_shards == 2

    def test_empty_directory_is_accepted(self, tmp_path, rmat_stream):
        store = build_shard_store(rmat_stream, tmp_path, 2)
        assert store.path == tmp_path
        assert ShardBackedGraph(store) == reference_graph(rmat_stream)


class TestShardStoreAccess:
    def test_manifest_and_offsets(self, tmp_path, rmat_stream):
        store = build_shard_store(rmat_stream, tmp_path / "s", 4)
        assert store.vertex_starts.size == 5
        assert store.edge_offsets[-1] == store.num_edges
        assert store.largest_shard_edges() == max(
            store.shard_edge_count(s) for s in range(4))

    def test_shard_of(self, tmp_path, rmat_stream):
        store = build_shard_store(rmat_stream, tmp_path / "s", 4)
        verts = np.arange(store.num_vertices, dtype=np.int64)
        by_array = store.shard_of_array(verts)
        assert all(store.shard_of(int(v)) == by_array[v] for v in
                   verts[:: max(1, verts.size // 37)])
        for s in range(4):
            lo, hi = store.vertex_starts[s], store.vertex_starts[s + 1]
            assert np.all(by_array[lo:hi] == s)

    def test_indices_range_crosses_shards(self, tmp_path, rmat_stream):
        store = build_shard_store(rmat_stream, tmp_path / "s", 4)
        ref = reference_graph(rmat_stream)
        total = ref.out_indices.size
        for lo, hi in [(0, total), (1, total - 1),
                       (total // 3, 2 * total // 3), (5, 5)]:
            np.testing.assert_array_equal(store.indices_range(lo, hi),
                                          ref.out_indices[lo:hi])

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(GraphError):
            ShardStore(tmp_path)


class TestShardBackedGraph:
    def test_out_indices_raises(self, tmp_path, rmat_stream):
        g = ShardBackedGraph(
            build_shard_store(rmat_stream, tmp_path / "s", 3))
        with pytest.raises(GraphError):
            g.out_indices

    def test_accessors_match_reference(self, tmp_path, rmat_stream):
        g = ShardBackedGraph(
            build_shard_store(rmat_stream, tmp_path / "s", 3))
        ref = reference_graph(rmat_stream)
        for v in range(0, ref.num_vertices, 19):
            np.testing.assert_array_equal(g.out_neighbors(v),
                                          ref.out_neighbors(v))
        lo, hi = int(ref.out_indptr[7]), int(ref.out_indptr[100])
        np.testing.assert_array_equal(g.out_indices_range(lo, hi),
                                      ref.out_indices[lo:hi])

    def test_out_edges_of_unsorted_vertices(self, tmp_path, rmat_stream):
        g = ShardBackedGraph(
            build_shard_store(rmat_stream, tmp_path / "s", 3))
        ref = reference_graph(rmat_stream)
        verts = np.array([200, 3, 3, 511, 0, 127], dtype=np.int64)
        g_src, g_dst = g.out_edges_of(verts)
        r_src, r_dst = ref.out_edges_of(verts)
        np.testing.assert_array_equal(g_src, r_src)
        np.testing.assert_array_equal(g_dst, r_dst)

    def test_iter_edges(self, tmp_path):
        edges = np.array([[0, 2], [1, 0], [3, 1]], dtype=np.int64)
        store = build_shard_store(
            stream_from_edges(edges, num_vertices=4), tmp_path / "s", 2)
        assert (sorted(ShardBackedGraph(store).iter_edges())
                == sorted(map(tuple, edges.tolist())))
