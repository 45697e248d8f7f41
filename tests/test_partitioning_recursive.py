"""Unit tests for recursive bisection, k-way balance and baselines."""

import numpy as np
import pytest

from repro.errors import PartitioningError
from repro.graph.generators import grid
from repro.partitioning.baselines import random_partition
from repro.partitioning.kway import kway_refine_balance
from repro.partitioning.metrics import (
    balance,
    edge_cut,
    inner_edge_ratio,
    partition_sizes,
    weighted_cut,
)
from repro.partitioning.recursive import (
    num_levels_for_parts,
    recursive_bisection,
)
from repro.partitioning.wgraph import WGraph
from tests.partition_sketch import cut_matrix, recorded_cut_at_level


class TestLevels:
    def test_levels(self):
        assert num_levels_for_parts(1) == 0
        assert num_levels_for_parts(2) == 1
        assert num_levels_for_parts(64) == 6

    @pytest.mark.parametrize("bad", [0, 3, 6, -2])
    def test_rejects_non_powers(self, bad):
        with pytest.raises(PartitioningError):
            num_levels_for_parts(bad)


class TestRecursiveBisection:
    def test_partition_count(self, small_graph):
        wg = WGraph.from_digraph(small_graph)
        rp = recursive_bisection(wg, 8, seed=0)
        assert set(np.unique(rp.parts)) == set(range(8))

    def test_single_part(self, small_graph):
        wg = WGraph.from_digraph(small_graph)
        rp = recursive_bisection(wg, 1, seed=0)
        assert np.all(rp.parts == 0)

    def test_beats_random_on_communities(self, small_graph):
        wg = WGraph.from_digraph(small_graph)
        rp = recursive_bisection(wg, 8, seed=0)
        ours = inner_edge_ratio(small_graph, rp.parts)
        rand = inner_edge_ratio(
            small_graph, random_partition(small_graph, 8, seed=0)
        )
        assert ours > rand + 0.3

    def test_node_cuts_recorded(self, small_graph):
        wg = WGraph.from_digraph(small_graph)
        rp = recursive_bisection(wg, 4, seed=0, kway_tolerance=None)
        assert set(rp.node_cuts) == {(0, 0), (1, 0), (1, 1)}
        # root cut equals the actual level-1 split cut
        side = rp.parts >> (rp.num_levels - 1)  # side of the root split
        assert rp.node_cuts[(0, 0)] == weighted_cut(wg, side)

    def test_monotone_level_cuts(self, small_graph):
        wg = WGraph.from_digraph(small_graph)
        rp = recursive_bisection(wg, 8, seed=0, kway_tolerance=None)
        cuts = [recorded_cut_at_level(rp, l) for l in range(4)]
        assert cuts == sorted(cuts)

    def test_balanced(self, small_graph):
        wg = WGraph.from_digraph(small_graph)
        rp = recursive_bisection(wg, 8, seed=0)
        b = balance(rp.parts, 8, weights=wg.vweights)
        assert b <= 1.12


class TestKwayRefine:
    def test_restores_balance(self, small_graph):
        wg = WGraph.from_digraph(small_graph)
        rng = np.random.default_rng(0)
        # deliberately unbalanced assignment
        parts = rng.integers(0, 4, wg.num_vertices).astype(np.int64)
        parts[: wg.num_vertices // 2] = 0
        refined = kway_refine_balance(wg, parts, 4, tolerance=0.1)
        weights = np.zeros(4)
        np.add.at(weights, refined, wg.vweights.astype(float))
        assert weights.max() <= 1.12 * weights.sum() / 4

    def test_noop_when_balanced(self):
        wg = WGraph.from_digraph(grid(4, 4))
        parts = np.repeat(np.arange(4), 4).astype(np.int64)
        refined = kway_refine_balance(wg, parts, 4, tolerance=0.2)
        assert np.array_equal(refined, parts)

    def test_does_not_mutate_input(self):
        wg = WGraph.from_digraph(grid(4, 4))
        parts = np.zeros(16, dtype=np.int64)
        parts[:2] = 1
        snapshot = parts.copy()
        kway_refine_balance(wg, parts, 2)
        assert np.array_equal(parts, snapshot)


class TestBaselines:
    def test_random_balanced(self, small_graph):
        parts = random_partition(small_graph, 8, seed=1)
        sizes = partition_sizes(parts, 8)
        assert sizes.max() - sizes.min() <= 1

    def test_random_deterministic(self, small_graph):
        a = random_partition(small_graph, 8, seed=1)
        b = random_partition(small_graph, 8, seed=1)
        assert np.array_equal(a, b)

    def test_rejects_zero_parts(self, small_graph):
        with pytest.raises(PartitioningError):
            random_partition(small_graph, 0)


class TestMetrics:
    def test_edge_cut_and_ier_consistent(self, small_graph):
        parts = random_partition(small_graph, 4, seed=0)
        cut = edge_cut(small_graph, parts)
        assert inner_edge_ratio(small_graph, parts) == pytest.approx(
            1 - cut / small_graph.num_edges
        )

    def test_cut_matrix_totals(self, small_graph):
        parts = random_partition(small_graph, 4, seed=0)
        mat = cut_matrix(small_graph, parts, 4)
        assert mat.sum() == small_graph.num_edges
        assert np.trace(mat) == small_graph.num_edges - edge_cut(
            small_graph, parts
        )

    def test_single_partition_perfect_ier(self, small_graph):
        parts = np.zeros(small_graph.num_vertices, dtype=np.int64)
        assert inner_edge_ratio(small_graph, parts) == 1.0

    def test_rejects_wrong_shape(self, small_graph):
        with pytest.raises(PartitioningError):
            edge_cut(small_graph, np.zeros(3, dtype=np.int64))
