"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.generators import (
    composite_social_graph,
    erdos_renyi,
    grid,
    ring,
    rmat,
    small_world,
    star,
)


class TestRmat:
    def test_sizes(self):
        g = rmat(scale=8, edge_factor=4, seed=1)
        assert g.num_vertices == 256
        assert 0 < g.num_edges <= 4 * 256

    def test_deterministic(self):
        assert rmat(6, seed=5) == rmat(6, seed=5)

    def test_seed_changes_graph(self):
        assert rmat(6, seed=5) != rmat(6, seed=6)

    def test_no_self_loops(self):
        g = rmat(7, seed=2)
        src = g.edge_sources()
        assert not np.any(src == g.out_indices)

    def test_skewed_degrees(self):
        """R-MAT with a != d must produce a skewed degree distribution."""
        g = rmat(10, edge_factor=8, seed=3)
        deg = g.out_degrees()
        assert deg.max() > 4 * max(deg.mean(), 1)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(GraphError):
            rmat(4, a=0.9, b=0.9, c=0.9)

    def test_rejects_negative_scale(self):
        with pytest.raises(GraphError):
            rmat(-1)


class TestSmallWorld:
    def test_out_degree_without_rewiring(self):
        g = small_world(20, k=4, rewire_p=0.0)
        assert np.all(g.out_degrees() == 4)

    def test_rewiring_changes_edges(self):
        assert small_world(50, rewire_p=0.0, seed=1) != small_world(
            50, rewire_p=0.5, seed=1
        )

    def test_k_clamped_to_n(self):
        g = small_world(3, k=10, rewire_p=0.0)
        assert g.out_degrees().max() <= 2

    def test_rejects_bad_p(self):
        with pytest.raises(GraphError):
            small_world(10, rewire_p=1.5)


class TestComposite:
    def test_sizes(self):
        g = composite_social_graph(num_communities=4, community_size=32,
                                   seed=0)
        assert g.num_vertices == 128

    def test_deterministic(self):
        a = composite_social_graph(4, 32, seed=9)
        b = composite_social_graph(4, 32, seed=9)
        assert a == b

    def test_communities_dominate_edges(self):
        """With small p_r most edges stay inside their community."""
        g = composite_social_graph(8, 64, p_r=0.05, seed=1)
        src = g.edge_sources() // 64
        dst = g.out_indices // 64
        intra = np.count_nonzero(src == dst)
        assert intra / g.num_edges > 0.8

    def test_no_rewiring_keeps_all_intra(self):
        g = composite_social_graph(4, 32, p_r=0.0, seed=1)
        src = g.edge_sources() // 32
        dst = g.out_indices // 32
        assert np.all(src == dst)

    def test_small_world_model(self):
        g = composite_social_graph(4, 30, community_model="small-world",
                                   seed=1)
        assert g.num_vertices == 120

    def test_rejects_unknown_model(self):
        with pytest.raises(GraphError):
            composite_social_graph(2, 8, community_model="scale-free")

    def test_rejects_bad_ratio(self):
        with pytest.raises(GraphError):
            composite_social_graph(2, 8, p_r=2.0)


class TestSimpleShapes:
    def test_ring(self):
        g = ring(5)
        assert g.num_edges == 5
        assert g.has_edge(4, 0)

    def test_grid_degrees(self):
        g = grid(3, 3)
        center_deg = g.out_degrees()[4]
        assert center_deg == 4  # bidirected grid: center has 4 neighbors
        assert g.out_degrees()[0] == 2

    def test_star(self):
        g = star(4, out=True)
        assert g.out_degrees()[0] == 4
        g_in = star(4, out=False)
        assert g_in.in_degrees()[0] == 4

    def test_erdos_renyi_bounds(self):
        g = erdos_renyi(100, 300, seed=0)
        assert g.num_vertices == 100
        assert g.num_edges <= 300

    def test_rejects_nonpositive(self):
        for fn in (ring, lambda n: grid(n, 2), lambda n: small_world(n)):
            with pytest.raises(GraphError):
                fn(0)
