"""Unit tests for the weighted undirected partitioning graph."""

import numpy as np
import pytest

from repro.errors import PartitioningError
from repro.graph.digraph import Graph
from repro.graph.generators import ring
from repro.partitioning.wgraph import WGraph
from tests.conftest import wgraph_is_symmetric


class TestFromDigraph:
    def test_symmetrizes(self):
        g = Graph.from_edges([(0, 1)], num_vertices=2)
        wg = WGraph.from_digraph(g)
        assert wgraph_is_symmetric(wg)
        assert list(wg.neighbors(1)) == [0]

    def test_merges_antiparallel_weight(self):
        g = Graph.from_edges([(0, 1), (1, 0)], num_vertices=2)
        wg = WGraph.from_digraph(g)
        assert wg.num_edges == 1
        assert list(wg.eweights[:wg.indptr[1]]) == [2]

    def test_edge_balance_weights(self):
        g = Graph.from_edges([(0, 1), (0, 2)], num_vertices=3)
        wg = WGraph.from_digraph(g, balance="edges")
        assert list(wg.vweights) == [3, 1, 1]

    def test_vertex_balance_weights(self):
        g = ring(4)
        wg = WGraph.from_digraph(g, balance="vertices")
        assert list(wg.vweights) == [1, 1, 1, 1]

    def test_rejects_unknown_balance(self):
        with pytest.raises(PartitioningError):
            WGraph.from_digraph(ring(3), balance="magic")

    def test_total_vertex_weight(self):
        wg = WGraph.from_digraph(ring(4), balance="edges")
        assert wg.total_vertex_weight == 8  # each vertex 1 + outdeg 1


class TestFromEdges:
    def test_basic(self):
        wg = WGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        assert wg.num_edges == 2
        assert wg.degree(1) == 2
        assert wgraph_is_symmetric(wg)

    def test_explicit_weights(self):
        wg = WGraph.from_edges([(0, 1)], num_vertices=2, eweights=[5])
        assert list(wg.eweights[:wg.indptr[1]]) == [5]

    def test_empty(self):
        wg = WGraph.from_edges([], num_vertices=3)
        assert wg.num_edges == 0
        assert wg.num_vertices == 3

    def test_self_loop_is_refused(self):
        with pytest.raises(PartitioningError, match="self loop"):
            WGraph.from_edges([(0, 0), (0, 1), (1, 2), (2, 3), (3, 0)], 4)

    @pytest.mark.parametrize("edge", [(0, 4), (-1, 2), (5, 9)])
    def test_id_out_of_range_is_refused(self, edge):
        with pytest.raises(PartitioningError, match="outside"):
            WGraph.from_edges([(0, 1), edge], 4)

    @pytest.mark.parametrize("weight", [0, -3])
    def test_non_positive_edge_weight_is_refused(self, weight):
        with pytest.raises(PartitioningError, match="positive"):
            WGraph.from_edges([(0, 1), (1, 2)], 3, eweights=[1, weight])

    def test_non_positive_vertex_weight_is_refused(self):
        with pytest.raises(PartitioningError, match="positive"):
            WGraph.from_edges([(0, 1)], 2, vweights=[1, 0])

    def test_one_weight_per_pair(self):
        with pytest.raises(PartitioningError, match="one weight per pair"):
            WGraph.from_edges([(0, 1), (1, 2)], 3, eweights=[1])

    def test_alignment_validation(self):
        with pytest.raises(PartitioningError):
            WGraph(np.array([0, 1]), np.array([0]), np.array([1, 2]),
                   np.array([1]))


class TestValidateSymmetry:
    def test_empty_graph_is_symmetric(self):
        assert wgraph_is_symmetric(WGraph.from_edges([], num_vertices=3))

    def test_missing_mirror(self):
        # arc 0->1 stored, 1->0 absent
        wg = WGraph(np.array([0, 1, 1]), np.array([1]), np.array([1]),
                    np.array([1, 1]))
        assert not wgraph_is_symmetric(wg)

    def test_mirror_with_another_weight(self):
        wg = WGraph(np.array([0, 1, 2]), np.array([1, 0]), np.array([2, 3]),
                    np.array([1, 1]))
        assert not wgraph_is_symmetric(wg)

    def test_row_order_does_not_matter(self):
        wg = WGraph(np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]),
                    np.array([7, 5, 5, 7]), np.array([1, 1, 1]))
        assert wgraph_is_symmetric(wg)


class TestRowAccess:
    def test_rows_of_lists_each_row_in_stored_order(self):
        wg = WGraph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)], 5,
                               eweights=[1, 2, 3, 4])
        owner, arcs = wg.rows_of(np.array([2, 4, 0]))
        assert owner.tolist() == [0, 0, 0, 2, 2]
        assert wg.indices[arcs].tolist() == [0, 1, 3, 1, 2]
        assert wg.eweights[arcs].tolist() == [2, 3, 4, 1, 2]

    def test_rows_of_nothing(self):
        wg = WGraph.from_edges([(0, 1)], 2)
        owner, arcs = wg.rows_of(np.zeros(0, dtype=np.int64))
        assert owner.size == 0 and arcs.size == 0

    def test_tolists_are_plain_ints(self):
        wg = WGraph.from_edges([(0, 1)], 2, eweights=[3])
        indptr, indices, eweights, vweights = wg.tolists()
        assert (indptr, indices, eweights, vweights) == (
            [0, 1, 2], [1, 0], [3, 3], [1, 1])
        assert type(indices[0]) is int
