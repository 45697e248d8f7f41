"""Unit tests for matching, coarsening, GGGP, FM and multilevel bisection."""

import numpy as np
import pytest

from repro.errors import PartitioningError
from repro.graph.generators import grid
from repro.partitioning.bisect import BisectionOptions, multilevel_bisection
from repro.partitioning.coarsen import coarsen_until, contract_matching
from repro.partitioning.ggp import gggp_bisection, random_bisection
from repro.partitioning.matching import heavy_edge_matching
from repro.partitioning.metrics import weighted_cut
from repro.partitioning.refine import _gains_and_cut, fm_refine
from repro.partitioning.wgraph import WGraph


def two_cliques(k: int = 5) -> WGraph:
    """Two k-cliques joined by a single bridge edge; obvious bisection."""
    edges = []
    for base in (0, k):
        edges += [(base + a, base + b)
                  for a in range(k) for b in range(a + 1, k)]
    edges.append((0, k))
    return WGraph.from_edges(edges, num_vertices=2 * k)


class TestMatching:
    def test_matching_is_involution(self):
        wg = WGraph.from_digraph(grid(5, 5))
        rng = np.random.default_rng(0)
        match = heavy_edge_matching(wg, rng)
        for v in range(wg.num_vertices):
            assert match[match[v]] == v

    def test_matched_pairs_are_neighbors(self):
        wg = WGraph.from_digraph(grid(4, 4))
        match = heavy_edge_matching(wg, np.random.default_rng(1))
        for v in range(wg.num_vertices):
            if match[v] != v:
                assert match[v] in wg.neighbors(v)

    def test_heavy_edges_preferred(self):
        # 0-1 weight 10, 0-2 weight 1: whenever 0 or 1 is visited first
        # the heavy pair forms, so it must dominate across seeds.
        wg = WGraph.from_edges([(0, 1), (0, 2)], num_vertices=3,
                               eweights=[10, 1])
        heavy = sum(
            heavy_edge_matching(wg, np.random.default_rng(seed))[0] == 1
            for seed in range(30)
        )
        assert heavy >= 15


class TestCoarsening:
    def test_weights_preserved(self):
        wg = WGraph.from_digraph(grid(4, 4))
        match = heavy_edge_matching(wg, np.random.default_rng(0))
        coarse, mapping = contract_matching(wg, match)
        assert coarse.vweights.sum() == wg.vweights.sum()
        assert coarse.num_vertices < wg.num_vertices
        assert mapping.max() == coarse.num_vertices - 1

    def test_cut_preserved_under_projection(self):
        """Any coarse cut equals the projected fine cut (key invariant)."""
        wg = WGraph.from_digraph(grid(6, 6))
        match = heavy_edge_matching(wg, np.random.default_rng(3))
        coarse, mapping = contract_matching(wg, match)
        rng = np.random.default_rng(4)
        coarse_side = rng.integers(0, 2, coarse.num_vertices)
        fine_side = coarse_side[mapping]
        assert weighted_cut(coarse, coarse_side) == weighted_cut(
            wg, fine_side
        )

    def test_coarsen_until_target(self):
        wg = WGraph.from_digraph(grid(10, 10))
        levels = coarsen_until(wg, 12, np.random.default_rng(0))
        assert levels
        assert levels[-1].coarse.num_vertices <= max(
            12, levels[-1].fine.num_vertices
        )

    def test_coarsen_stops_on_stall(self):
        # star graphs barely shrink: matching pairs hub with one leaf
        wg = WGraph.from_edges([(0, i) for i in range(1, 40)],
                               num_vertices=40)
        levels = coarsen_until(wg, 2, np.random.default_rng(0))
        assert len(levels) < 40  # must terminate


class TestInitialBisection:
    def test_gggp_finds_clique_split(self):
        wg = two_cliques(6)
        side = gggp_bisection(wg, np.random.default_rng(0), num_trials=8)
        assert weighted_cut(wg, side) == 1

    def test_gggp_balanced(self):
        wg = WGraph.from_digraph(grid(6, 6))
        side = gggp_bisection(wg, np.random.default_rng(1))
        counts = np.bincount(side, minlength=2)
        assert abs(counts[0] - counts[1]) <= 2

    def test_single_vertex(self):
        wg = WGraph.from_edges([], num_vertices=1)
        assert list(gggp_bisection(wg, np.random.default_rng(0))) == [0]

    def test_random_bisection_balanced(self):
        wg = WGraph.from_digraph(grid(6, 6))
        side = random_bisection(wg, np.random.default_rng(0))
        counts = np.bincount(side, minlength=2)
        assert abs(counts[0] - counts[1]) <= 2


class TestFM:
    def test_gains_definition(self):
        wg = two_cliques(4)
        side = np.zeros(8, dtype=np.int64)
        side[4:] = 1  # optimal split
        gains = _gains_and_cut(wg, side)[0]
        # every vertex is internal except the bridge endpoints
        assert gains[0] == 1 - 3  # bridge endpoint: ext 1, int 3
        assert gains[1] == -3

    def test_fm_never_worsens(self):
        wg = WGraph.from_digraph(grid(6, 6))
        rng = np.random.default_rng(5)
        side = rng.integers(0, 2, wg.num_vertices)
        before = weighted_cut(wg, side)
        after = weighted_cut(wg, fm_refine(wg, side))
        assert after <= before

    def test_fm_fixes_one_bad_vertex(self):
        wg = two_cliques(5)
        side = np.zeros(10, dtype=np.int64)
        side[5:] = 1
        side[9] = 0  # one clique member on the wrong side
        refined = fm_refine(wg, side)
        assert weighted_cut(wg, refined) == 1

    @pytest.mark.parametrize("epsilon", [0.5, 0.7, -0.01, float("nan"),
                                         float("inf")])
    def test_fm_refuses_an_epsilon_outside_the_range(self, epsilon):
        # at 0.7 the side floor is negative: FM used to empty a side
        wg = WGraph.from_edges([(0, 1), (1, 2)], 3)
        with pytest.raises(PartitioningError, match="epsilon"):
            fm_refine(wg, np.array([0, 1, 1]), epsilon=epsilon)

    def test_fm_respects_balance(self):
        wg = WGraph.from_digraph(grid(4, 4))
        side = np.zeros(16, dtype=np.int64)
        side[8:] = 1
        refined = fm_refine(wg, side, epsilon=0.05)
        counts = np.bincount(refined, minlength=2)
        assert counts.min() >= int((0.5 - 0.05) * 16)


class TestMultilevel:
    def test_two_cliques(self):
        wg = two_cliques(8)
        result = multilevel_bisection(wg, np.random.default_rng(0))
        assert result.cut == 1

    def test_grid_cut_reasonable(self):
        wg = WGraph.from_digraph(grid(8, 8))
        result = multilevel_bisection(wg, np.random.default_rng(0))
        # optimal cut of an 8x8 bidirected grid bisection is 8
        assert result.cut <= 16

    def test_random_initial_worse_or_equal(self):
        wg = WGraph.from_digraph(grid(8, 8))
        good = multilevel_bisection(
            wg, np.random.default_rng(0),
            BisectionOptions(refine=False, initial="gggp"),
        )
        bad = multilevel_bisection(
            wg, np.random.default_rng(0),
            BisectionOptions(refine=False, initial="random"),
        )
        assert good.cut <= bad.cut

    def test_refinement_helps(self):
        wg = WGraph.from_digraph(grid(8, 8))
        refined = multilevel_bisection(
            wg, np.random.default_rng(1), BisectionOptions(refine=True)
        )
        raw = multilevel_bisection(
            wg, np.random.default_rng(1), BisectionOptions(refine=False)
        )
        assert refined.cut <= raw.cut

    def test_empty_and_singleton(self):
        assert multilevel_bisection(
            WGraph.from_edges([], num_vertices=0),
            np.random.default_rng(0),
        ).side.size == 0
        assert list(multilevel_bisection(
            WGraph.from_edges([], num_vertices=1),
            np.random.default_rng(0),
        ).side) == [0]


class TestBisectionOptions:
    @pytest.mark.parametrize("kwargs, field", [
        ({"initial": "bogus"}, "initial"),
        ({"epsilon": 0.5}, "epsilon"),
        ({"epsilon": -0.1}, "epsilon"),
        ({"epsilon": float("nan")}, "epsilon"),
        ({"gggp_trials": 0}, "gggp_trials"),
        ({"max_passes": -1}, "max_passes"),
    ])
    def test_a_bad_field_is_refused(self, kwargs, field):
        with pytest.raises(PartitioningError, match=field):
            BisectionOptions(**kwargs)

    def test_the_edges_of_the_ranges_are_accepted(self):
        BisectionOptions(epsilon=0.0, gggp_trials=1, max_passes=0,
                         initial="random")
        BisectionOptions(epsilon=0.499)
