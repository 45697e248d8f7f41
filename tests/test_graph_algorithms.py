"""Unit tests for the reference graph algorithms (the oracles)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.digraph import Graph
from repro.graph.generators import grid, ring, star
from repro.graph.algorithms import (
    bfs_levels,
    count_triangles,
    degree_histogram,
    estimate_diameter,
    multi_source_bfs,
    pagerank,
    two_hop_neighbors,
    weakly_connected_components,
)


class TestBFS:
    def test_ring_distances(self):
        g = ring(5)
        dist = bfs_levels(g, 0)
        assert list(dist) == [0, 1, 2, 3, 4]

    def test_reverse_bfs(self):
        g = ring(5)
        dist = bfs_levels(g, 0, reverse=True)
        assert list(dist) == [0, 4, 3, 2, 1]

    def test_unreachable(self):
        g = Graph.from_edges([(0, 1)], num_vertices=3)
        dist = bfs_levels(g, 0)
        assert dist[2] == -1

    def test_multi_source(self):
        g = ring(6)
        dist = multi_source_bfs(g, [0, 3])
        assert list(dist) == [0, 1, 2, 0, 1, 2]

    def test_source_out_of_range(self):
        with pytest.raises(GraphError):
            bfs_levels(ring(3), 5)


class TestComponents:
    def test_single_component(self):
        labels = weakly_connected_components(ring(4))
        assert len(set(labels)) == 1

    def test_two_components(self):
        g = Graph.from_edges([(0, 1), (2, 3)], num_vertices=4)
        labels = weakly_connected_components(g)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_direction_ignored(self):
        g = Graph.from_edges([(1, 0), (1, 2)], num_vertices=3)
        assert len(set(weakly_connected_components(g))) == 1


class TestDiameter:
    def test_ring_diameter(self):
        # undirected view of a 10-ring has diameter 5
        assert estimate_diameter(ring(10), num_probes=4) == 5

    def test_star_diameter(self):
        assert estimate_diameter(star(5), num_probes=4) == 2

    def test_empty(self):
        assert estimate_diameter(Graph.empty(0)) == 0

    def test_isolated(self):
        assert estimate_diameter(Graph.empty(4)) == 0


class TestPageRank:
    def test_sums_below_one_with_dangling_self(self):
        g = star(3)  # leaves dangle
        ranks = pagerank(g, num_iterations=10, dangling="self")
        assert ranks.sum() <= 1.0 + 1e-9

    def test_uniform_dangling_sums_to_one(self):
        g = star(3)
        ranks = pagerank(g, num_iterations=50, dangling="uniform")
        assert ranks.sum() == pytest.approx(1.0)

    def test_symmetric_ring_is_uniform(self):
        g = ring(8)
        ranks = pagerank(g, num_iterations=30)
        assert np.allclose(ranks, ranks[0])

    def test_hub_ranks_highest(self):
        g = star(6, out=False)  # all leaves point at 0
        ranks = pagerank(g, num_iterations=10)
        assert ranks[0] == ranks.max()
        assert ranks[0] > ranks[1]

    def test_rejects_bad_dangling(self):
        with pytest.raises(GraphError):
            pagerank(ring(3), dangling="drop")

    def test_empty_graph(self):
        assert pagerank(Graph.empty(0)).size == 0


class TestDegreeHistogram:
    def test_out_histogram(self):
        g = star(3)
        assert degree_histogram(g, "out") == {0: 3, 3: 1}

    def test_in_histogram(self):
        g = star(3)
        assert degree_histogram(g, "in") == {0: 1, 1: 3}

    def test_counts_cover_all_vertices(self, small_graph):
        hist = degree_histogram(small_graph)
        assert sum(hist.values()) == small_graph.num_vertices

    def test_rejects_bad_direction(self):
        with pytest.raises(GraphError):
            degree_histogram(ring(3), "sideways")


class TestTriangles:
    def test_directed_triangle(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert count_triangles(g) == 1

    def test_mutual_edges_single_triangle(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
        assert count_triangles(Graph.from_edges(edges)) == 1

    def test_no_triangles_in_ring(self):
        assert count_triangles(ring(5)) == 0

    def test_k4(self):
        edges = [(a, b) for a in range(4) for b in range(4) if a < b]
        assert count_triangles(Graph.from_edges(edges)) == 4

    def test_grid_has_no_triangles(self):
        assert count_triangles(grid(3, 3)) == 0


class TestTwoHop:
    def test_chain(self):
        g = Graph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        # vertex 2's in-neighbor is 1; 1 points at 2 -> {2}
        assert two_hop_neighbors(g, 2) == {2}
        # vertex 1's in-neighbor is 0; 0 points at 1 -> {1}
        assert two_hop_neighbors(g, 1) == {1}
        assert two_hop_neighbors(g, 0) == set()

    def test_push_semantics(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 3)], num_vertices=4)
        # 1 receives 0's list {1, 2}
        assert two_hop_neighbors(g, 1) == {1, 2}
        # 3 receives 1's list {3}
        assert two_hop_neighbors(g, 3) == {3}


def _count_triangles_reference(graph: Graph) -> int:
    """Per-vertex set-intersection triangle count (the pre-vectorization
    implementation, the parity oracle)."""
    indptr, indices, _ = graph.to_undirected()
    n = graph.num_vertices
    neighbor_sets = [
        set(indices[indptr[v]: indptr[v + 1]].tolist()) for v in range(n)
    ]
    total = 0
    for v in range(n):
        for u in neighbor_sets[v]:
            if u <= v:
                continue
            # count w > u to count each triangle exactly once
            common = neighbor_sets[v] & neighbor_sets[u]
            total += sum(1 for w in common if w > u)
    return total


class TestTrianglesVectorizedParity:
    """The merge-based fast path must reproduce the per-vertex oracle."""

    def cases(self):
        from repro.graph.generators import erdos_renyi, rmat, small_world

        yield Graph.empty(5)
        yield ring(6)
        yield grid(4, 4)
        yield star(7)
        yield Graph.from_edges(
            [(a, b) for a in range(5) for b in range(5) if a != b],
            num_vertices=5)
        yield rmat(7, edge_factor=6, seed=3)
        yield erdos_renyi(60, 300, seed=1)
        yield small_world(80, k=5, rewire_p=0.2, seed=4)

    def test_matches_reference(self):
        for g in self.cases():
            assert count_triangles(g) == _count_triangles_reference(g)
