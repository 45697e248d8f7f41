"""Unit tests for placement refinement and dispatch rebalancing."""

import numpy as np
import pytest

from repro.cluster.storage import PartitionStore
from repro.cluster.topology import t1, t2
from repro.core.partitioned import PartitionedGraph
from repro.core.placement import (
    estimate_partition_costs,
    partition_traffic_matrix,
    rebalance_placement,
    refine_colocated_placement,
)
from repro.errors import PlacementError
from repro.graph.digraph import Graph
from repro.graph.generators import ring
from tests.conftest import chunk_partition


def simple_pgraph() -> PartitionedGraph:
    g = ring(8)
    parts = (np.arange(8) // 2).astype(np.int64)
    return PartitionedGraph(g, parts, 4)


class TestCosts:
    def test_costs_positive_and_shaped(self, small_graph):
        pg = PartitionedGraph(small_graph,
                              chunk_partition(small_graph, 4), 4)
        costs = estimate_partition_costs(pg)
        assert costs.shape == (4,)
        assert np.all(costs > 0)

    def test_network_factor_zero_drops_traffic_term(self):
        pg = simple_pgraph()
        with_net = estimate_partition_costs(pg, network_factor=4.0)
        without = estimate_partition_costs(pg, network_factor=0.0)
        assert np.all(with_net >= without)
        assert with_net.sum() > without.sum()

    def test_traffic_matrix_symmetric(self):
        pg = simple_pgraph()
        mat = partition_traffic_matrix(pg)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0)
        # ring: each adjacent partition pair exchanges one edge (16 bytes)
        assert mat[0, 1] == 16.0


class TestRebalance:
    def test_relieves_bottleneck_via_replicas(self):
        # 3 partitions all on machine 0, replicas everywhere
        store = PartitionStore([0, 0, 0], num_machines=3, replication=3,
                               seed=0)
        costs = np.array([10.0, 10.0, 10.0])
        assignment = rebalance_placement(store, costs)
        load = np.bincount(assignment, minlength=3)
        assert load.max() == 1

    def test_respects_replica_constraint(self):
        store = PartitionStore([0, 0], num_machines=4, replication=2,
                               seed=3)
        assignment = rebalance_placement(store, np.array([5.0, 5.0]))
        for p in range(2):
            assert assignment[p] in store.replicas(p)

    def test_nonlocal_allowed_with_fetch_costs(self):
        store = PartitionStore([0, 0, 0], num_machines=4, replication=1,
                               seed=0)
        costs = np.array([10.0, 10.0, 10.0])
        fetch = np.zeros(3)  # free fetches: pure balancing
        assignment = rebalance_placement(store, costs, fetch_costs=fetch)
        assert np.bincount(assignment, minlength=4).max() == 1

    def test_expensive_fetch_blocks_moves(self):
        store = PartitionStore([0, 0], num_machines=2, replication=1,
                               seed=0)
        costs = np.array([10.0, 10.0])
        fetch = np.array([100.0, 100.0])
        assignment = rebalance_placement(store, costs, fetch_costs=fetch)
        assert list(assignment) == [0, 0]

    def test_rejects_bad_shapes(self):
        store = PartitionStore([0], num_machines=2, replication=1)
        with pytest.raises(PlacementError):
            rebalance_placement(store, np.array([1.0, 2.0]))


class TestRefineColocated:
    def test_splits_stacked_independent_partitions(self):
        # four disjoint 2-cliques: no inter-partition traffic, so
        # stacking them on one machine is pure imbalance
        edges = [(2 * i, 2 * i + 1) for i in range(4)]
        edges += [(b, a) for a, b in edges]
        g = Graph.from_edges(edges, num_vertices=8)
        pg = PartitionedGraph(g, (np.arange(8) // 2).astype(np.int64), 4)
        placement = np.zeros(4, dtype=np.int64)
        refined = refine_colocated_placement(pg, placement, t1(4))
        assert np.bincount(refined, minlength=4).max() == 1

    def test_keeps_stack_when_colocated_traffic_dominates(self):
        """On a ring, splitting turns heavy local traffic into network
        traffic — the load model must refuse the move."""
        pg = simple_pgraph()
        placement = np.zeros(4, dtype=np.int64)
        refined = refine_colocated_placement(pg, placement, t1(4))
        loads = np.bincount(refined, minlength=4)
        # whichever arrangement it picks must not be worse than stacked
        assert loads.max() <= 4

    def test_never_crosses_pods(self):
        pg = simple_pgraph()
        topo = t2(2, 1, 4)
        placement = np.array([0, 0, 2, 2])  # two per pod
        refined = refine_colocated_placement(pg, placement, topo)
        for p in range(4):
            assert topo.pod_of(int(refined[p])) == topo.pod_of(
                int(placement[p])
            )

    def test_preserves_tight_pairs(self):
        """A pair exchanging heavy traffic stays together."""
        # 0<->1 heavily connected, in partitions 0 and 1
        edges = [(0, 1), (1, 0)] * 1 + [(0, 1)]
        g = Graph.from_edges(edges, num_vertices=4, dedup=True)
        parts = np.array([0, 1, 2, 3])
        pg = PartitionedGraph(g, parts, 4)
        placement = np.array([0, 0, 1, 1], dtype=np.int64)
        refined = refine_colocated_placement(pg, placement, t1(2))
        assert refined[0] == refined[1]

    def test_balanced_input_unchanged(self):
        pg = simple_pgraph()
        placement = np.array([0, 1, 2, 3], dtype=np.int64)
        refined = refine_colocated_placement(pg, placement, t1(4))
        loads = np.bincount(refined, minlength=4)
        assert loads.max() == 1
