"""Deeper partition-sketch property checks on structured graphs."""

import numpy as np

from tests.partition_sketch import PartitionSketch
from repro.graph.digraph import Graph
from repro.graph.generators import grid, ring
from repro.partitioning.recursive import recursive_bisection
from repro.partitioning.wgraph import WGraph


def sketch_for(graph, num_parts, seed=0):
    wg = WGraph.from_digraph(graph)
    rp = recursive_bisection(wg, num_parts, seed=seed)
    return PartitionSketch(graph, rp.parts, num_parts), rp


class TestSketchOnStructuredGraphs:
    def test_grid_sketch_monotone(self):
        sketch, __ = sketch_for(grid(16, 16), 16)
        cuts = [sketch.total_cut_at_level(l) for l in range(5)]
        assert cuts == sorted(cuts)
        assert cuts[0] == 0
        assert cuts[-1] > 0

    def test_disconnected_components_cut_zero(self):
        """Perfectly separable graph: the sketch finds zero cuts."""
        edges = []
        for c in range(4):
            base = 4 * c
            edges += [(base + i, base + (i + 1) % 4) for i in range(4)]
        g = Graph.from_edges(edges, num_vertices=16)
        sketch, rp = sketch_for(g, 4)
        assert sketch.total_cut_at_level(2) == 0

    def test_proximity_on_separable_graph(self):
        """With an ideal-like sketch, proximity violations vanish."""
        edges = []
        for c in range(8):
            base = 8 * c
            edges += [(base + i, base + j)
                      for i in range(8) for j in range(8) if i != j]
        # weak chain between consecutive cliques
        edges += [(8 * c + 7, 8 * (c + 1)) for c in range(7)]
        g = Graph.from_edges(edges, num_vertices=64)
        sketch, __ = sketch_for(g, 8, seed=3)
        # the chain structure means siblings share the heavy links
        assert len(sketch.proximity_violations()) <= 2

    def test_cross_edges_count_both_directions(self):
        g = ring(8)  # one directed cycle
        parts = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        sketch = PartitionSketch(g, parts, 2)
        # edges 3->4 and 7->0 cross, counted regardless of direction
        assert sketch.cross_edges((1, 0), (1, 1)) == 2

    def test_sibling_cuts_match_recursive_record(self):
        """C(left, right) of the root equals the recorded root cut
        (when no k-way rebalancing moved vertices)."""
        g = grid(8, 8)
        wg = WGraph.from_digraph(g)
        rp = recursive_bisection(wg, 4, seed=1, kway_tolerance=None)
        sketch = PartitionSketch(g, rp.parts, 4)
        # the weighted cut counts each merged undirected edge with its
        # multiplicity (2 for the grid's mutual pairs), and the sketch
        # counts directed edges — identical totals by construction
        assert sketch.cross_edges((1, 0), (1, 1)) == rp.node_cuts[(0, 0)]
