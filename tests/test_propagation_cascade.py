"""Unit tests for cascaded multi-iteration propagation (Section 5.2)."""

import numpy as np
import pytest

from repro.apps import NetworkRankingPropagation
from repro.core.partitioned import PartitionedGraph
from repro.core.surfer import Surfer
from repro.graph.digraph import Graph
from repro.graph.generators import ring
from repro.propagation.cascade import (
    cascade_io_fractions,
    compute_cascade_info,
)
from tests.conftest import make_test_cluster


def chain_partitioned() -> PartitionedGraph:
    """Chain 0->1->2->3->4->5, split [0..2] / [3..5]."""
    g = Graph.from_edges([(i, i + 1) for i in range(5)], num_vertices=6)
    parts = np.array([0, 0, 0, 1, 1, 1])
    return PartitionedGraph(g, parts, 2)


class TestCascadeInfo:
    def test_entry_depths_on_chain(self):
        info = compute_cascade_info(chain_partitioned())
        # vertex 3 is the entry of partition 1 (cross edge 2->3)
        assert info.depth[3] == 0
        assert info.depth[4] == 1
        assert info.depth[5] == 2

    def test_unreached_vertices_are_v_inf(self):
        info = compute_cascade_info(chain_partitioned())
        # partition 0 has no incoming cross edges: all of it is V_inf
        assert info.depth[0] == -1
        assert info.depth[0] < 0

    def test_v_k_masks_nested(self):
        info = compute_cascade_info(chain_partitioned())
        v1 = info.v_k_mask(1)
        v2 = info.v_k_mask(2)
        assert np.all(v2 <= v1)  # V_2 is a subset of V_1

    def test_ratio_decreases_with_k(self):
        pg = chain_partitioned()
        info = compute_cascade_info(pg)
        assert info.ratio_v_k(1) >= info.ratio_v_k(2) >= info.ratio_v_k(5)

    def test_ring_single_partition_all_v_inf(self):
        g = ring(6)
        pg = PartitionedGraph(g, np.zeros(6, dtype=np.int64), 1)
        info = compute_cascade_info(pg)
        assert (info.depth < 0).all()


class TestIoFractions:
    def test_bounds(self):
        pg = chain_partitioned()
        info = compute_cascade_info(pg)
        fractions = cascade_io_fractions(pg, info, phase_length=2)
        assert np.all(fractions > 0)
        assert np.all(fractions <= 1)

    def test_all_cascadable_gives_minimum(self):
        g = ring(6)
        pg = PartitionedGraph(g, np.zeros(6, dtype=np.int64), 1)
        info = compute_cascade_info(pg)
        fractions = cascade_io_fractions(pg, info, phase_length=3)
        assert fractions[0] == pytest.approx(2.0 / 4.0)

    def test_longer_phases_save_more(self):
        g = ring(6)
        pg = PartitionedGraph(g, np.zeros(6, dtype=np.int64), 1)
        info = compute_cascade_info(pg)
        f2 = cascade_io_fractions(pg, info, 2)
        f4 = cascade_io_fractions(pg, info, 4)
        assert f4[0] < f2[0]


def chain_with_island() -> PartitionedGraph:
    """Chain 0..5 split [0..2]/[3..5] plus an isolated ring 6-7-8 in its
    own partition (no cross edges touch it) and an edgeless vertex 9 in
    a fourth partition; partition 4 is empty."""
    edges = [(i, i + 1) for i in range(5)]
    edges += [(6, 7), (7, 8), (8, 6)]
    g = Graph.from_edges(edges, num_vertices=10)
    parts = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 3])
    return PartitionedGraph(g, parts, 5)


class TestIslandPartitions:
    """Regressions: unreachable-vertex semantics must agree between
    d_min (phase sizing) and cascade_io_fractions (I/O accounting)."""

    def test_island_partition_does_not_cap_d_min(self):
        pg = chain_with_island()
        info = compute_cascade_info(pg)
        # the ring island (diameter 2 internally) and the isolated
        # vertex get the V_inf sentinel, matching their depth == -1
        assert info.partition_diameters[2] == -1
        assert info.partition_diameters[3] == -1
        assert info.partition_diameters[4] == -1  # empty partition
        assert (info.depth[[6, 7, 8, 9]] < 0).all()
        # d_min is set by the only partition external info enters
        # (partition 1, internal chain 3->4->5, diameter 2) — not
        # dragged to a degenerate value by islands
        assert info.d_min == 2

    def test_all_island_graph_falls_back_to_phase_one(self):
        g = ring(6)
        pg = PartitionedGraph(g, np.zeros(6, dtype=np.int64), 1)
        info = compute_cascade_info(pg)
        assert info.partition_diameters == [-1]
        assert info.d_min == 1

    def test_island_vertices_are_fully_cascadable_in_fractions(self):
        pg = chain_with_island()
        info = compute_cascade_info(pg)
        fractions = cascade_io_fractions(pg, info, phase_length=2)
        # V_inf partitions still pay the initial-read/final-write floor
        assert fractions[2] == pytest.approx(2.0 / 3.0)
        assert fractions[3] == pytest.approx(2.0 / 3.0)

    def test_empty_partition_fraction_is_zero(self):
        pg = chain_with_island()
        info = compute_cascade_info(pg)
        fractions = cascade_io_fractions(pg, info, phase_length=3)
        assert fractions[4] == 0.0
        # and every non-empty partition keeps a positive fraction
        assert np.all(fractions[:4] > 0)


class TestCascadedExecution:
    @pytest.fixture()
    def surfer(self, small_graph):
        return Surfer(small_graph, make_test_cluster(4), num_parts=8,
                      seed=4)

    def test_results_identical(self, surfer):
        plain = surfer.run_propagation(NetworkRankingPropagation(),
                                       iterations=3, cascaded=False)
        cascaded = surfer.run_propagation(NetworkRankingPropagation(),
                                          iterations=3, cascaded=True)
        assert np.allclose(plain.result, cascaded.result)

    def test_disk_io_reduced(self, surfer):
        plain = surfer.run_propagation(NetworkRankingPropagation(),
                                       iterations=3, cascaded=False)
        cascaded = surfer.run_propagation(NetworkRankingPropagation(),
                                          iterations=3, cascaded=True)
        assert cascaded.metrics.disk_bytes < plain.metrics.disk_bytes
        assert (cascaded.metrics.response_time
                <= plain.metrics.response_time)

    def test_network_unchanged(self, surfer):
        """Cascading only touches intermediate value I/O, not messages."""
        plain = surfer.run_propagation(NetworkRankingPropagation(),
                                       iterations=3, cascaded=False)
        cascaded = surfer.run_propagation(NetworkRankingPropagation(),
                                          iterations=3, cascaded=True)
        assert cascaded.metrics.network_bytes == plain.metrics.network_bytes

    def test_single_iteration_noop(self, surfer):
        plain = surfer.run_propagation(NetworkRankingPropagation(),
                                       iterations=1, cascaded=False)
        cascaded = surfer.run_propagation(NetworkRankingPropagation(),
                                          iterations=1, cascaded=True)
        assert cascaded.metrics.disk_bytes == plain.metrics.disk_bytes
