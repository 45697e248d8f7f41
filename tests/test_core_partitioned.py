"""Unit tests for PartitionedGraph and the vertex-id encoding."""

import numpy as np
import pytest

from repro.errors import PartitioningError
from repro.core.partitioned import PartitionedGraph, VertexEncoding
from repro.graph.digraph import Graph
from repro.graph.generators import ring
from repro.partitioning.baselines import chunk_partition


def make_pg() -> PartitionedGraph:
    # 0,1 in part 0; 2,3 in part 1.  Edges: 0->1 inner, 1->2 cross,
    # 2->3 inner, 3->0 cross.
    g = ring(4)
    parts = np.array([0, 0, 1, 1])
    return PartitionedGraph(g, parts, 2)


class TestStructure:
    def test_cross_edges(self):
        pg = make_pg()
        assert pg.num_cross_edges == 2
        assert pg.inner_edge_ratio == 0.5

    def test_boundary_vertices(self):
        pg = make_pg()
        # every vertex of the 4-ring touches a cross edge
        assert pg.boundary_mask.all()
        assert pg.inner_vertex_ratio == 0.0

    def test_inner_vertices(self):
        g = Graph.from_edges([(0, 1), (1, 0), (2, 3)], num_vertices=4)
        pg = PartitionedGraph(g, np.array([0, 0, 1, 1]), 2)
        assert pg.inner_vertex_ratio == 1.0
        assert not pg.boundary_mask[0]

    def test_boundary_tables_match_paper_structures(self):
        """Section 5.1's per-partition boundary-vertex table is the
        boundary mask read over the partition's vertices."""
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (4, 0)],
                             num_vertices=5)
        pg = PartitionedGraph(g, np.array([0, 0, 1, 1, 0]), 2)
        tables = [set(verts[pg.boundary_mask[verts]].tolist())
                  for verts in pg.partition_vertices]
        assert tables == [{1}, {2}]

    def test_cross_dest_maps(self):
        """Section 5.1's ``(v, pid)`` map: each cross-edge destination
        and the remote partition holding it."""
        pg = make_pg()
        maps = []
        for p in range(2):
            _, dst = pg.partition_edges(p)
            remote = dst[pg.parts[dst] != p]
            maps.append({int(v): pg.partition_of(v) for v in remote})
        # partition 0's cross edge 1->2 targets vertex 2 in partition 1
        assert maps == [{2: 1}, {0: 0}]
        assert np.flatnonzero(pg.entry_mask).tolist() == [0, 2]

    def test_partition_edges(self):
        pg = make_pg()
        src, dst = pg.partition_edges(0)
        assert sorted(zip(src, dst)) == [(0, 1), (1, 2)]

    def test_partition_bytes_positive(self):
        pg = make_pg()
        assert pg.partition_bytes(0) > 0
        assert pg.partition_bytes(0) == pg.partition_bytes(1)

    def test_validate(self, small_graph):
        parts = chunk_partition(small_graph, 4)
        pg = PartitionedGraph(small_graph, parts, 4)
        pg.validate()

    def test_partition_of(self):
        pg = make_pg()
        assert pg.partition_of(0) == 0
        assert pg.partition_of(3) == 1

    def test_ivr_consistent_with_boundary(self, small_graph):
        parts = chunk_partition(small_graph, 4)
        pg = PartitionedGraph(small_graph, parts, 4)
        assert pg.inner_vertex_ratio == pytest.approx(
            1 - pg.boundary_mask.mean()
        )


class TestVertexEncoding:
    def test_consecutive_ranges(self):
        parts = np.array([1, 0, 1, 0, 2])
        enc = VertexEncoding(parts, 3)
        # partition 0 owns encoded ids 0..1, partition 1 ids 2..3, etc.
        for old in range(5):
            new = enc.encode(old)
            assert enc.partition_of(new) == parts[old]
            assert enc.decode(new) == old

    def test_offsets(self):
        parts = np.array([0, 0, 1, 2, 2, 2])
        enc = VertexEncoding(parts, 3)
        assert list(enc.offsets) == [0, 2, 3, 6]

    def test_roundtrip_permutation(self, small_graph):
        parts = chunk_partition(small_graph, 4)
        enc = VertexEncoding(parts, 4)
        ids = np.arange(small_graph.num_vertices)
        assert np.array_equal(enc.new_to_old[enc.old_to_new], ids)

    def test_encode_graph_isomorphic(self):
        g = ring(6)
        parts = np.array([0, 1, 0, 1, 0, 1])
        enc = VertexEncoding(parts, 2)
        encoded = enc.encode_graph(g)
        assert encoded.num_edges == g.num_edges
        for u, v in g.iter_edges():
            assert encoded.has_edge(enc.encode(u), enc.encode(v))

    def test_partition_lookup_out_of_range(self):
        enc = VertexEncoding(np.array([0, 1]), 2)
        with pytest.raises(PartitioningError):
            enc.partition_of(5)

    def test_encoding_from_pgraph(self):
        pg = make_pg()
        enc = pg.encoding()
        assert enc.partition_of(enc.encode(2)) == 1
