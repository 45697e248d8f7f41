"""Unit tests for the Table-1 partitioning elapsed-time model."""

import pytest

from repro.cluster.topology import t1, t2
from repro.core.bandwidth_aware import build_machine_tree, random_machine_tree
from repro.core.partition_cost import (
    PartitioningCostModel,
    simulate_partitioning_time,
)

GB = 1024**3


class TestCostModel:
    def test_flat_topology_method_independent(self):
        topo = t1(16)
        aware = build_machine_tree(topo, 5, seed=0)
        random_tree = random_machine_tree(topo, 5, seed=0)
        a = simulate_partitioning_time(10 * GB, aware, topo)
        b = simulate_partitioning_time(10 * GB, random_tree, topo)
        assert a.total_seconds == pytest.approx(b.total_seconds, rel=0.01)

    def test_aware_beats_random_on_tree(self):
        topo = t2(2, 1, 16)
        aware = build_machine_tree(topo, 5, seed=0)
        random_tree = random_machine_tree(topo, 5, seed=0)
        a = simulate_partitioning_time(10 * GB, aware, topo)
        b = simulate_partitioning_time(10 * GB, random_tree, topo)
        assert a.total_seconds < 0.7 * b.total_seconds

    def test_time_scales_with_graph_size(self):
        topo = t2(2, 1, 16)
        tree = build_machine_tree(topo, 5, seed=0)
        small = simulate_partitioning_time(1 * GB, tree, topo)
        large = simulate_partitioning_time(4 * GB, tree, topo)
        assert large.total_seconds == pytest.approx(
            4 * small.total_seconds, rel=0.01
        )

    def test_level_breakdown_sums(self):
        topo = t1(8)
        tree = build_machine_tree(topo, 4, seed=0)
        report = simulate_partitioning_time(GB, tree, topo)
        assert sum(report.level_seconds) == pytest.approx(
            report.total_seconds
        )
        assert len(report.level_seconds) == 4

    def test_components_positive(self):
        topo = t2(4, 1, 16)
        tree = build_machine_tree(topo, 4, seed=0)
        report = simulate_partitioning_time(GB, tree, topo)
        assert report.compute_seconds > 0
        assert report.exchange_seconds > 0
        assert report.redistribution_seconds > 0

    def test_no_redistribution_option(self):
        topo = t2(2, 1, 8)
        tree = build_machine_tree(topo, 3, seed=0)
        with_r = simulate_partitioning_time(GB, tree, topo)
        without = simulate_partitioning_time(
            GB, tree, topo,
            PartitioningCostModel(include_redistribution=False),
        )
        assert without.total_seconds < with_r.total_seconds
        assert without.redistribution_seconds == 0.0

    def test_more_pods_cost_more_for_random(self):
        """Deeper unevenness hurts the oblivious partitioner more."""
        sizes = {}
        for pods in (2, 4):
            topo = t2(pods, 1, 16)
            tree = random_machine_tree(topo, 5, seed=0)
            sizes[pods] = simulate_partitioning_time(
                10 * GB, tree, topo
            ).total_seconds
        assert sizes[4] > sizes[2] * 0.9
