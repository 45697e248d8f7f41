"""Unit tests for the adjacency-record sizing the cost model charges."""

from repro.graph.digraph import Graph
from repro.graph.io import graph_storage_bytes


def sample() -> Graph:
    return Graph.from_edges([(0, 1), (0, 2), (2, 1)], num_vertices=4)


class TestSizing:
    def test_graph_storage_bytes_matches_records(self):
        # one <ID, d, neighbors> record per vertex: 8 B id + 4 B degree
        # + 8 B per neighbor
        g = sample()
        total = sum(12 + 8 * int(d) for d in g.out_degrees())
        assert graph_storage_bytes(g) == total
