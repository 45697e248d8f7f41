"""Unit tests for the CSR digraph."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.digraph import Graph


def simple_graph() -> Graph:
    #     0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0, 3 isolated
    return Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 0)],
                            num_vertices=4)


class TestConstruction:
    def test_from_edges_counts(self):
        g = simple_graph()
        assert g.num_vertices == 4
        assert g.num_edges == 4

    def test_from_edges_infers_num_vertices(self):
        g = Graph.from_edges([(0, 5)])
        assert g.num_vertices == 6

    def test_empty_graph(self):
        g = Graph.empty(3)
        assert g.num_vertices == 3
        assert g.num_edges == 0
        assert list(g.out_neighbors(0)) == []

    def test_zero_edges_from_edges(self):
        g = Graph.from_edges([], num_vertices=2)
        assert g.num_edges == 0

    def test_dedup(self):
        g = Graph.from_edges([(0, 1), (0, 1), (1, 0)], dedup=True)
        assert g.num_edges == 2

    def test_drop_self_loops(self):
        g = Graph.from_edges([(0, 0), (0, 1)], drop_self_loops=True)
        assert g.num_edges == 1

    def test_rejects_negative_vertex(self):
        with pytest.raises(GraphError):
            Graph.from_edges([(-1, 0)])

    def test_rejects_out_of_range_with_explicit_n(self):
        with pytest.raises(GraphError):
            Graph.from_edges([(0, 5)], num_vertices=3)

    def test_rejects_bad_shape(self):
        with pytest.raises(GraphError):
            Graph.from_edges(np.array([[1, 2, 3]]))

    def test_rejects_inconsistent_csr(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 2]), np.array([0]))

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 2, 1]), np.array([0, 0]))


class TestAdjacency:
    def test_out_neighbors_sorted(self):
        g = simple_graph()
        assert list(g.out_neighbors(0)) == [1, 2]

    def test_in_neighbors(self):
        g = simple_graph()
        assert sorted(g.in_neighbors(2)) == [0, 1]
        assert list(g.in_neighbors(3)) == []

    def test_degrees(self):
        g = simple_graph()
        assert list(g.out_degrees()) == [2, 1, 1, 0]
        assert list(g.in_degrees()) == [1, 1, 2, 0]

    def test_edge_sources_aligned(self):
        g = simple_graph()
        src = g.edge_sources()
        dst = g.out_indices
        assert sorted(zip(src, dst)) == [(0, 1), (0, 2), (1, 2), (2, 0)]

    def test_iter_edges_matches_edges(self):
        g = simple_graph()
        assert list(g.iter_edges()) == [tuple(e) for e in g.edges()]

    def test_has_edge(self):
        g = simple_graph()
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert not g.has_edge(3, 0)


class TestDerived:
    def test_reverse_roundtrip(self):
        g = simple_graph()
        assert g.reverse().reverse() == g

    def test_reverse_edges(self):
        g = simple_graph()
        r = g.reverse()
        assert r.has_edge(1, 0)
        assert r.has_edge(0, 2)
        assert not r.has_edge(0, 1)

    def test_to_undirected_merges_antiparallel(self):
        g = Graph.from_edges([(0, 1), (1, 0)], num_vertices=2)
        indptr, indices, weights = g.to_undirected()
        # one undirected edge stored twice, weight 2 each side
        assert list(indices) == [1, 0]
        assert list(weights) == [2, 2]

    def test_to_undirected_drops_self_loops(self):
        g = Graph.from_edges([(0, 0), (0, 1)], num_vertices=2)
        __, indices, __ = g.to_undirected()
        assert 0 not in indices[:1]

    def test_subgraph(self):
        g = simple_graph()
        sub, ids = g.subgraph([0, 2])
        assert sub.num_vertices == 2
        assert list(ids) == [0, 2]
        # edges 0->2 and 2->0 survive in local ids
        assert sub.has_edge(0, 1)
        assert sub.has_edge(1, 0)
        assert sub.num_edges == 2

    def test_subgraph_rejects_duplicates(self):
        g = simple_graph()
        from repro.errors import GraphError
        with pytest.raises(GraphError):
            g.subgraph([0, 0])

    @pytest.mark.parametrize("vertices", [[-1, 0], [0, 4], [7]])
    def test_subgraph_rejects_out_of_range(self, vertices):
        # not fancy indexing's answers: -1 wraps to vertex n-1, >= n is
        # an IndexError
        with pytest.raises(GraphError, match="subgraph vertices"):
            simple_graph().subgraph(vertices)

    def test_subgraph_of_nothing(self):
        sub, ids = simple_graph().subgraph([])
        assert sub.num_vertices == 0 and sub.num_edges == 0
        assert ids.size == 0

    def test_equality(self):
        assert simple_graph() == simple_graph()
        assert simple_graph() != Graph.empty(4)


class TestChunkedIngest:
    """``from_edges`` consumes iterables in chunks: no ``list(edges)``."""

    def test_generator_matches_array(self):
        rng = np.random.default_rng(11)
        arr = rng.integers(0, 500, size=(200_000, 2), dtype=np.int64)
        from_gen = Graph.from_edges((tuple(row) for row in arr.tolist()),
                                    num_vertices=500)
        from_arr = Graph.from_edges(arr, num_vertices=500)
        assert from_gen == from_arr

    def test_generator_with_dedup(self):
        pairs = [(0, 1), (1, 2), (0, 1), (2, 2)]
        g = Graph.from_edges(iter(pairs), dedup=True,
                             drop_self_loops=True)
        assert g.num_edges == 2

    def test_empty_generator(self):
        g = Graph.from_edges(iter(()), num_vertices=3)
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_ragged_iterable_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_edges(iter([(0, 1), (2,)]))


class TestOutIndicesRange:
    def test_matches_slice(self):
        g = simple_graph()
        np.testing.assert_array_equal(g.out_indices_range(1, 3),
                                      g.out_indices[1:3])
        assert g.out_indices_range(0, 0).size == 0
